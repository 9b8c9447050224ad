"""Queueing-theoretic service performance model.

Each service instance pool is modeled as a processor-sharing queue: with
offered demand ``D`` (capacity units, see
:class:`~repro.workloads.request_mix.Workload`) served by capacity ``C``,
utilization is ``rho = D / C`` and response latency follows the classic
open-system curve ``base / (1 - rho)``, with a linear overload branch
above saturation so that under-provisioned configurations show the
bounded-but-bad latencies of Figs. 1 and 6(c) (~100–250 ms) instead of
diverging.

Interference from co-located tenants steals a fraction ``i`` of the
effective capacity (``C_eff = C * (1 - i)``), which is how the Q-Clouds
and Fig. 11 style degradations manifest on shared hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QueueingModel:
    """Open processor-sharing latency model with an overload branch.

    Parameters
    ----------
    base_latency_ms:
        Zero-load service time.  With ``base = 20`` ms and a 60 ms SLO,
        the SLO is crossed at ``rho = 2/3`` — the knee all trace
        experiments are calibrated around.
    overload_slope_ms:
        Added latency per unit of excess utilization past saturation.
    max_latency_ms:
        Client-side timeout cap (keeps overloaded plots on the paper's
        axes).
    smoothing_rho:
        The ``1/(1-rho)`` branch is evaluated up to this utilization and
        then continued linearly, keeping the function finite and
        monotonic through the saturation point.
    """

    base_latency_ms: float = 20.0
    overload_slope_ms: float = 400.0
    max_latency_ms: float = 250.0
    smoothing_rho: float = 0.97

    def __post_init__(self) -> None:
        if self.base_latency_ms <= 0:
            raise ValueError(f"base latency must be positive: {self.base_latency_ms}")
        if not 0 < self.smoothing_rho < 1:
            raise ValueError(f"smoothing rho must be in (0,1): {self.smoothing_rho}")
        if self.max_latency_ms <= self.base_latency_ms:
            raise ValueError("timeout cap must exceed the base latency")

    def utilization(
        self, demand_units: float, capacity_units: float, interference: float = 0.0
    ) -> float:
        """Effective utilization, accounting for stolen capacity.

        Raises
        ------
        ValueError
            If capacity is not positive or interference is outside
            ``[0, 1)``.
        """
        if demand_units < 0:
            raise ValueError(f"demand cannot be negative: {demand_units}")
        if capacity_units <= 0:
            raise ValueError(f"capacity must be positive: {capacity_units}")
        if not 0.0 <= interference < 1.0:
            raise ValueError(f"interference fraction out of [0,1): {interference}")
        return demand_units / (capacity_units * (1.0 - interference))

    @property
    def saturated_utilization(self) -> float:
        """Smallest utilization at which latency is pinned at the cap.

        The finite stand-in for "nothing is serving at all": a sample at
        this utilization already reports ``max_latency_ms``, so using it
        as the zero-capacity sentinel keeps (latency, utilization) pairs
        on the model's curve while staying finite — ``float("inf")``
        here used to leak into fleet-wide numpy aggregates and turn
        means into inf/NaN.
        """
        rho = 1.0 - self.base_latency_ms / self.max_latency_ms
        if rho < self.smoothing_rho:
            return rho
        knee_latency = self.base_latency_ms / (1.0 - self.smoothing_rho)
        knee_slope = self.base_latency_ms / (1.0 - self.smoothing_rho) ** 2
        rho = self.smoothing_rho + (self.max_latency_ms - knee_latency) / knee_slope
        if rho <= 1.0:
            return rho
        return (
            self.max_latency_ms
            - knee_latency
            + knee_slope * self.smoothing_rho
            + self.overload_slope_ms
        ) / (knee_slope + self.overload_slope_ms)

    def latency_ms(
        self, demand_units: float, capacity_units: float, interference: float = 0.0
    ) -> float:
        """Response latency at the given demand/capacity point."""
        rho = self.utilization(demand_units, capacity_units, interference)
        if rho < self.smoothing_rho:
            latency = self.base_latency_ms / (1.0 - rho)
        else:
            # Continue linearly from the knee with the knee's slope, then
            # steepen with the overload slope beyond rho = 1.
            knee_latency = self.base_latency_ms / (1.0 - self.smoothing_rho)
            knee_slope = self.base_latency_ms / (1.0 - self.smoothing_rho) ** 2
            latency = knee_latency + knee_slope * (rho - self.smoothing_rho)
            if rho > 1.0:
                latency += self.overload_slope_ms * (rho - 1.0)
        return min(latency, self.max_latency_ms)

    def utilization_rows(
        self,
        demand_units: np.ndarray,
        capacity_units: np.ndarray,
        interference: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`utilization` over many service instances.

        Same elementwise formula, so each element is bit-identical to a
        scalar call.  Callers are responsible for masking non-positive
        capacities (the scalar method raises; the fleet observation
        path substitutes the timeout-cap sample instead).
        """
        return demand_units / (capacity_units * (1.0 - interference))

    def latency_rows(self, rho: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`latency_ms` from precomputed utilizations.

        Evaluates both branches elementwise and selects, which yields
        the exact floats of the scalar branch logic.  The smooth branch
        divides by ``1 - min(rho, smoothing_rho)``: the same divisor on
        every element it is selected for, and never zero on the others.
        """
        smooth = self.base_latency_ms / (
            1.0 - np.minimum(rho, self.smoothing_rho)
        )
        knee_latency = self.base_latency_ms / (1.0 - self.smoothing_rho)
        knee_slope = self.base_latency_ms / (1.0 - self.smoothing_rho) ** 2
        linear = knee_latency + knee_slope * (rho - self.smoothing_rho)
        linear = np.where(
            rho > 1.0, linear + self.overload_slope_ms * (rho - 1.0), linear
        )
        latency = np.where(rho < self.smoothing_rho, smooth, linear)
        return np.minimum(latency, self.max_latency_ms)

    def capacity_for_latency(self, demand_units: float, latency_ms: float) -> float:
        """Minimum capacity that keeps latency at or below ``latency_ms``.

        The inverse of :meth:`latency_ms` on its ``1/(1-rho)`` branch;
        used by tests and by the oracle baseline, not by DejaVu itself
        (which searches like the paper's Tuner does).
        """
        if latency_ms <= self.base_latency_ms:
            raise ValueError(
                f"latency {latency_ms} ms is unreachable "
                f"(base is {self.base_latency_ms} ms)"
            )
        if demand_units < 0:
            raise ValueError(f"demand cannot be negative: {demand_units}")
        rho_target = 1.0 - self.base_latency_ms / latency_ms
        rho_target = min(rho_target, self.smoothing_rho)
        return demand_units / rho_target if demand_units > 0 else 0.0

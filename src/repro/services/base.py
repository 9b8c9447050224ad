"""Common service interface.

A :class:`Service` is the thing DejaVu provisions: it turns (offered
workload, deployed capacity, interference) into the performance metric
its SLO is written against.  Controllers never look inside — they observe
``performance`` and ``slo`` only, matching the paper's assumption that
applications merely "report a performance-level metric" (Sec. 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.services.perf_model import QueueingModel
from repro.services.slo import LatencySLO, QoSSLO
from repro.workloads.request_mix import Workload


@dataclass(frozen=True)
class PerformanceSample:
    """One observation of the service's externally visible performance."""

    latency_ms: float
    qos_percent: float
    utilization: float

    def slo_metric(self, slo: LatencySLO | QoSSLO) -> float:
        """The component of the sample the given SLO is written against."""
        if isinstance(slo, LatencySLO):
            return self.latency_ms
        return self.qos_percent


class Service:
    """Base class for the simulated services.

    Subclasses provide the calibrated :class:`QueueingModel` and may add
    service-specific behaviour (Cassandra's re-partitioning transient,
    SPECweb's QoS curve).

    Parameters
    ----------
    name:
        Service label used in experiment output.
    slo:
        The agreed service-level objective.
    model:
        Latency model mapping (demand, capacity, interference) to
        response time.
    """

    def __init__(
        self,
        name: str,
        slo: LatencySLO | QoSSLO,
        model: QueueingModel | None = None,
    ) -> None:
        self.name = name
        self.slo = slo
        self.model = model if model is not None else QueueingModel()

    def performance(
        self,
        workload: Workload,
        capacity_units: float,
        *,
        interference: float = 0.0,
        now: float | None = None,
    ) -> PerformanceSample:
        """Observe service performance at one simulation instant.

        ``now`` lets stateful services (Cassandra) apply time-dependent
        transients; stateless models ignore it.
        """
        latency = self._latency_ms(workload, capacity_units, interference, now)
        rho = self.model.utilization(
            workload.demand_units, capacity_units, interference
        )
        return PerformanceSample(
            latency_ms=latency,
            qos_percent=self._qos_percent(rho),
            utilization=rho,
        )

    def slo_met(self, sample: PerformanceSample) -> bool:
        return self.slo.is_met(sample.slo_metric(self.slo))

    def row_key(self) -> tuple:
        """Instances with equal keys share every parameter of the row
        hooks (queueing model, SLO, QoS curve), so
        :func:`performance_rows` may evaluate them as one vector."""
        return (
            type(self), self.model, self.slo, self._qos_knee, self._qos_slope
        )

    @staticmethod
    def latency_penalty_rows(services, now: float) -> "np.ndarray | None":
        """Each instance's time-dependent latency added on top of the
        queueing model at ``now`` (Cassandra's re-partitioning
        transient), as one vector over a family (a list) sharing a
        :meth:`row_key`; None when the class adds none."""
        return None

    def notify_allocation_change(self, now: float) -> None:
        """Hook invoked when the deployed allocation changes.

        Stateless services ignore it; Cassandra starts its
        re-partitioning transient here.
        """

    # -- hooks for subclasses ------------------------------------------

    def _latency_ms(
        self,
        workload: Workload,
        capacity_units: float,
        interference: float,
        now: float | None,
    ) -> float:
        return self.model.latency_ms(
            workload.demand_units, capacity_units, interference
        )

    #: QoS curve parameters, shared by the scalar and vectorized
    #: graders so the two cannot drift apart; a service with its own
    #: curve (SPECweb) sets them per instance.
    _qos_knee = 0.72
    _qos_slope = 55.0

    def _qos_percent(self, rho: float) -> float:
        """QoS curve: degrade linearly past a utilization knee.

        Calibrated so a well-provisioned service sits near 99.5% and a
        saturated one falls into the low 80s (Figs. 9(b)/10(b) y-range).
        """
        qos = 99.5 - max(0.0, rho - self._qos_knee) * self._qos_slope
        return float(max(50.0, min(99.5, qos)))

    def _qos_rows(self, rho: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`_qos_percent` (bit-identical per element).

        With every element at or below the knee (a NaN is not) each one
        is exactly 99.5, and the curve is not evaluated.
        """
        if rho.size and rho.max() <= self._qos_knee:
            return np.full(rho.shape, 99.5)
        qos = 99.5 - np.maximum(0.0, rho - self._qos_knee) * self._qos_slope
        return np.maximum(50.0, np.minimum(99.5, qos))


def performance_rows(
    services,
    demands: np.ndarray,
    capacities: np.ndarray,
    interferences: np.ndarray,
    now: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(latency_ms, qos_percent)`` of many service instances at once.

    Element ``j`` is bit-identical to the latency and QoS of
    ``services[j].performance(workload, capacities[j],
    interference=interferences[j], now=now)`` for a workload offering
    ``demands[j]``: the queueing math runs through the model's
    ``utilization_rows`` / ``latency_rows`` and the service's
    ``_qos_rows`` (each one branch when every utilization is below its
    knee), plus the family's :meth:`Service.latency_penalty_rows`
    (Cassandra's transients, read off columns).  Every service must
    share the first one's :meth:`Service.row_key`, and every capacity
    must be positive (the scalar path raises on zero; callers mask such
    instances).
    """
    lead = services[0]
    rho = lead.model.utilization_rows(demands, capacities, interferences)
    return _latency_rows(services, rho, now), lead._qos_rows(rho)


def _latency_rows(services, rho: np.ndarray, now: float) -> np.ndarray:
    """The latency half of :func:`performance_rows`."""
    lead = services[0]
    model = lead.model
    latency = model.latency_rows(rho)
    penalties = lead.latency_penalty_rows(services, now)
    if penalties is None:
        return latency
    return np.minimum(latency + penalties, model.max_latency_ms)


def slo_met_rows(
    services,
    demands: np.ndarray,
    capacities: np.ndarray,
    interferences: np.ndarray,
    now: float,
) -> np.ndarray:
    """Elementwise ``service.slo_met(service.performance(...))`` over
    the instances of :func:`performance_rows` (same arguments and
    preconditions), as one boolean vector.  Only the metric the SLO is
    written against is computed."""
    lead = services[0]
    rho = lead.model.utilization_rows(demands, capacities, interferences)
    slo = lead.slo
    if isinstance(slo, LatencySLO):
        return slo.is_met(_latency_rows(services, rho, now))
    return slo.is_met(lead._qos_rows(rho))

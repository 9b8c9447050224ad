"""Stepped simulation engine.

The engine advances a :class:`~repro.sim.clock.SimClock` in fixed steps.
At every step it builds a :class:`StepContext` (current time and offered
workload) and hands it to a *controller* — DejaVu itself or one of the
baselines — which may react by changing the service's resource
allocation.  The engine then asks the service substrate for the resulting
performance and records the series the paper plots.

The controller contract is deliberately small so that DejaVu, Autopilot,
RightScale and the fixed-allocation baseline are interchangeable in every
experiment (paper Sec. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.sim.result import SimulationResult
from repro.workloads.request_mix import Workload


@dataclass(frozen=True)
class StepContext:
    """What a controller can observe at one simulation step."""

    t: float
    """Simulation time in seconds."""

    workload: Workload
    """The offered workload (volume + request mix) during this step."""

    hour: int
    """Whole hours since trace start (trace granularity)."""

    day: int
    """Whole days since trace start."""


class Controller(Protocol):
    """A resource-allocation policy driven by the engine.

    Implementations: :class:`repro.core.manager.DejaVuManager`,
    :class:`repro.baselines.autopilot.Autopilot`,
    :class:`repro.baselines.rightscale.RightScale`,
    :class:`repro.baselines.overprovision.Overprovision`.
    """

    def on_step(self, ctx: StepContext) -> None:
        """React to the current step (possibly reallocating resources)."""
        ...


class SimulationEngine:
    """Drives one controller against one service for a span of trace time.

    Parameters
    ----------
    workload_fn:
        Maps simulation time (seconds) to the offered :class:`Workload`.
    controller:
        The resource-allocation policy under test.
    observe_fn:
        Called after the controller acts each step; returns a mapping of
        series name to value (e.g. ``{"latency_ms": 42.0, "cost": 4}``).
    step_seconds:
        Step width.  The trace-driven runs use coarse steps (the paper's
        traces are hourly); the adaptation-time study uses fine steps.
    """

    def __init__(
        self,
        workload_fn: Callable[[float], Workload],
        controller: Controller,
        observe_fn: Callable[[StepContext], dict[str, float]],
        step_seconds: float = 60.0,
        label: str = "run",
    ) -> None:
        if not 0.0 < step_seconds < math.inf:
            raise ValueError(
                f"step_seconds must be positive and finite, got {step_seconds}"
            )
        self._workload_fn = workload_fn
        self._controller = controller
        self._observe_fn = observe_fn
        self._step = float(step_seconds)
        self._label = label

    def run(self, duration_seconds: float, start: float = 0.0) -> SimulationResult:
        """Run the simulation and return the recorded result.

        Implemented as a one-lane :class:`~repro.sim.fleet.FleetEngine`
        run, so the single-service experiments exercise the same
        stepping code path as fleet-scale studies.  The wrapper pins
        ``batched=False``: its contract is bit-identical replay of the
        seed engine's per-step loop, and the batched control plane's own
        equivalence is pinned separately in
        ``tests/test_fleet_equivalence.py``.
        """
        from repro.sim.fleet import FleetEngine, FleetLane

        lane = FleetLane(
            workload_fn=self._workload_fn,
            controller=self._controller,
            observe_fn=self._observe_fn,
            label=self._label,
        )
        fleet = FleetEngine(
            [lane], step_seconds=self._step, label=self._label, batched=False
        )
        return fleet.run(duration_seconds, start=start).lane_result(0)

"""Scale-out and scale-up case studies (Figs. 6, 7, 9, 10).

Each comparison runs the full week for every policy against identical
trace/service/provider wiring (fresh substrate instances per policy so
billing and state never leak across runs), then computes the savings
and SLO statistics over the six reuse days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.costs import CostSummary, cost_summary
from repro.analysis.slo_report import SLOReport, slo_report
from repro.baselines.autopilot import Autopilot
from repro.baselines.overprovision import Overprovision
from repro.core.manager import DejaVuConfig
from repro.experiments.setup import (
    DEFAULT_PEAK_DEMAND,
    build_scaleout_setup,
    build_scaleup_setup,
    max_scaleup_allocation,
    observe_scaleout,
    observe_scaleup,
)
from repro.sim.clock import HOUR, SECONDS_PER_DAY
from repro.sim.engine import SimulationEngine
from repro.sim.result import SimulationResult

#: The reuse window: "the remaining 6 days are used to evaluate the
#: performance/cost benefits" (Sec. 4).
REUSE_WINDOW = (float(SECONDS_PER_DAY), 7.0 * SECONDS_PER_DAY)

DEFAULT_STEP_SECONDS = 60.0


def _run_policy(setup, controller, observe, label: str) -> SimulationResult:
    engine = SimulationEngine(
        workload_fn=setup.trace,
        controller=controller,
        observe_fn=observe,
        step_seconds=DEFAULT_STEP_SECONDS,
        label=label,
    )
    return engine.run(duration_seconds=setup.trace.duration_seconds)


@dataclass
class ScaleOutComparison:
    """Outputs of one Fig. 6/7-style comparison."""

    trace_name: str
    results: dict[str, SimulationResult]
    costs: dict[str, CostSummary] = field(default_factory=dict)
    slo: dict[str, SLOReport] = field(default_factory=dict)
    n_classes: int = 0
    n_misses: int = 0
    mean_adaptation_seconds: float = 0.0


def run_scaleout_comparison(
    trace_name: str = "messenger",
    policies: tuple[str, ...] = ("dejavu", "autopilot", "overprovision"),
    peak_demand: float = DEFAULT_PEAK_DEMAND,
    config: DejaVuConfig | None = None,
    seed: int = 0,
) -> ScaleOutComparison:
    """Run the Cassandra scale-out week under each policy.

    Policies: ``dejavu``, ``autopilot``, ``overprovision``.
    RightScale is exercised by the dedicated adaptation-time experiment
    (Fig. 8) because its interesting axis is reaction latency, not
    steady-state cost.
    """
    results: dict[str, SimulationResult] = {}
    comparison = ScaleOutComparison(trace_name=trace_name, results=results)
    for policy in policies:
        setup = build_scaleout_setup(
            trace_name=trace_name,
            peak_demand=peak_demand,
            config=config,
            seed=seed,
        )
        learning_day = setup.trace.hourly_workloads(day=0)
        if policy == "dejavu":
            report = setup.manager.learn(learning_day)
            comparison.n_classes = report.n_classes
            controller = setup.manager
        elif policy == "autopilot":
            controller = Autopilot(setup.production, setup.tuner)
            controller.learn_schedule(learning_day)
        elif policy == "overprovision":
            controller = Overprovision(setup.production)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        results[policy] = _run_policy(
            setup, controller, observe_scaleout(setup), f"{trace_name}-{policy}"
        )
        if policy == "dejavu":
            comparison.n_misses = len(setup.manager.miss_events())
            comparison.mean_adaptation_seconds = (
                setup.manager.mean_adaptation_seconds()
            )
        slo = setup.service.slo
        comparison.slo[policy] = slo_report(results[policy], slo, window=REUSE_WINDOW)
    if "overprovision" in results:
        for policy in results:
            if policy == "overprovision":
                continue
            comparison.costs[policy] = cost_summary(
                results[policy], results["overprovision"], window=REUSE_WINDOW
            )
    return comparison


@dataclass
class ScaleUpComparison:
    """Outputs of one Fig. 9/10-style comparison."""

    trace_name: str
    results: dict[str, SimulationResult]
    costs: dict[str, CostSummary] = field(default_factory=dict)
    slo: dict[str, SLOReport] = field(default_factory=dict)
    n_classes: int = 0
    xl_hours: float = 0.0


def run_scaleup_comparison(
    trace_name: str = "hotmail",
    peak_demand: float | None = None,
    fixed_count: int = 5,
    config: DejaVuConfig | None = None,
    seed: int = 0,
) -> ScaleUpComparison:
    """Run the SPECweb scale-up week: DejaVu versus always-extra-large."""
    results: dict[str, SimulationResult] = {}
    comparison = ScaleUpComparison(trace_name=trace_name, results=results)
    for policy in ("dejavu", "overprovision"):
        setup = build_scaleup_setup(
            trace_name=trace_name,
            peak_demand=peak_demand,
            fixed_count=fixed_count,
            config=config,
            seed=seed,
        )
        if policy == "dejavu":
            report = setup.manager.learn(setup.trace.hourly_workloads(day=0))
            comparison.n_classes = report.n_classes
            controller = setup.manager
        else:
            controller = Overprovision(
                setup.production, max_scaleup_allocation(fixed_count)
            )
        results[policy] = _run_policy(
            setup, controller, observe_scaleup(setup), f"{trace_name}-up-{policy}"
        )
        comparison.slo[policy] = slo_report(
            results[policy], setup.service.slo, window=REUSE_WINDOW
        )
        if policy == "dejavu":
            xl_series = results[policy].series["instance_is_xl"].window(*REUSE_WINDOW)
            comparison.xl_hours = xl_series.integrate() / HOUR
    comparison.costs["dejavu"] = cost_summary(
        results["dejavu"], results["overprovision"], window=REUSE_WINDOW
    )
    return comparison

"""Sensitivity studies on DejaVu's calibration knobs.

Two parameters govern the cost/SLO trade-off and are worth sweeping:

* **Tuner safety margin** — the tuner requires ``latency <= bound *
  margin``.  A loose margin (near 1.0) buys cheaper allocations but
  leaves no headroom for intra-class workload jitter; a tight margin
  over-provisions every class.  The sweep reproduces the expected
  monotone trade-off and locates the operating point the main
  experiments use (0.85).
* **Profiling trials per workload** — the classifier's Laplace-smoothed
  leaf confidence for a singleton class (the daily peak hour) is
  ``(n+1)/(n+k)``; with 4 classes and fewer than 4 trials it drops
  below the 0.6 certainty threshold and every peak hour falls back to
  full capacity.  The paper profiles with 5 trials per condition
  (Fig. 4); the sweep shows why.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costs import cost_summary
from repro.analysis.slo_report import slo_report
from repro.baselines.overprovision import Overprovision
from repro.core.manager import DejaVuConfig
from repro.experiments.scaling import REUSE_WINDOW, _run_policy
from repro.experiments.setup import build_scaleout_setup, observe_scaleout


@dataclass(frozen=True)
class MarginPoint:
    """One tuner-margin operating point."""

    margin: float
    saving_fraction: float
    violation_fraction: float


def run_margin_sweep(
    margins: tuple[float, ...] = (0.70, 0.80, 0.85, 0.95, 1.0),
    trace_name: str = "messenger",
    seed: int = 0,
) -> list[MarginPoint]:
    """Sweep the tuner's latency safety margin over the trace week."""
    if not margins:
        raise ValueError("nothing to sweep")
    points = []
    baseline = None
    for margin in sorted(margins):
        setup = build_scaleout_setup(
            trace_name, latency_margin=margin, seed=seed
        )
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        result = _run_policy(
            setup, setup.manager, observe_scaleout(setup), f"margin-{margin}"
        )
        if baseline is None:
            base_setup = build_scaleout_setup(trace_name, seed=seed)
            baseline = _run_policy(
                base_setup,
                Overprovision(base_setup.production),
                observe_scaleout(base_setup),
                "margin-baseline",
            )
        costs = cost_summary(result, baseline, window=REUSE_WINDOW)
        slo = slo_report(result, setup.service.slo, window=REUSE_WINDOW)
        points.append(
            MarginPoint(
                margin=margin,
                saving_fraction=costs.saving_fraction,
                violation_fraction=slo.violation_fraction,
            )
        )
    return points


@dataclass(frozen=True)
class TrialsPoint:
    """One trials-per-workload operating point."""

    trials: int
    misses: int
    saving_fraction: float
    violation_fraction: float
    n_classes: int


def run_trials_sweep(
    trials_options: tuple[int, ...] = (2, 3, 5, 8),
    trace_name: str = "messenger",
    seed: int = 0,
) -> list[TrialsPoint]:
    """Sweep the number of profiling trials per learning workload."""
    if not trials_options:
        raise ValueError("nothing to sweep")
    points = []
    baseline = None
    for trials in sorted(trials_options):
        config = DejaVuConfig(trials_per_workload=trials)
        setup = build_scaleout_setup(trace_name, config=config, seed=seed)
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        result = _run_policy(
            setup, setup.manager, observe_scaleout(setup), f"trials-{trials}"
        )
        if baseline is None:
            base_setup = build_scaleout_setup(trace_name, seed=seed)
            baseline = _run_policy(
                base_setup,
                Overprovision(base_setup.production),
                observe_scaleout(base_setup),
                "trials-baseline",
            )
        costs = cost_summary(result, baseline, window=REUSE_WINDOW)
        slo = slo_report(result, setup.service.slo, window=REUSE_WINDOW)
        points.append(
            TrialsPoint(
                trials=trials,
                misses=len(setup.manager.miss_events()),
                saving_fraction=costs.saving_fraction,
                violation_fraction=slo.violation_fraction,
                n_classes=setup.manager.model.clustering.n_classes,
            )
        )
    return points

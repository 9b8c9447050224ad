"""Kingfisher-style cost-aware tuner.

The paper's related-work section (Sec. 5) notes that Kingfisher
[Sharma et al., ICDCS'11] — which "takes into account the cost of each
VM instance, the possibilities of scaling up and scaling out, as well as
the transition time from one configuration to another" and solves an
integer program for the minimum-cost configuration — is complementary:
"DejaVu could simply use Kingfisher as its Tuner."

This module provides exactly that plug-in: a tuner over the full mixed
(count, instance type) configuration space that minimizes dollar cost
subject to the SLO (with the same safety margin as the linear-search
tuner) plus a transition penalty relative to the currently deployed
configuration.  The space is small enough (counts x 2 types) that
exhaustive enumeration *is* the exact integer-program solution.

It is call-compatible with :class:`~repro.core.tuner.LinearSearchTuner`
(``tune(workload, assumed_interference) -> TuningOutcome``), so a
:class:`~repro.core.manager.DejaVuManager` accepts either.

:func:`explore_then_exploit` generalizes the same cost-first search
discipline to knob spaces that are only observable by *running* a
candidate (no closed-form objective): explore every candidate once
with a cheap evaluation, score each outcome in dollars, exploit the
cheapest.  The placement layer uses it to auto-tune
:class:`~repro.sim.placement.MigrationPolicy` rebalance/blackout knobs
per scenario
(:func:`repro.experiments.placement_study.tune_migration_policy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.cloud.instance_types import EXTRA_LARGE, LARGE, InstanceType
from repro.cloud.provider import Allocation
from repro.core.tuner import DEFAULT_EXPERIMENT_SECONDS, TuningOutcome
from repro.services.base import Service
from repro.services.slo import LatencySLO, QoSSLO
from repro.workloads.request_mix import Workload


@dataclass(frozen=True)
class ExplorationRound:
    """One explored candidate with its observed cost and raw metrics."""

    candidate: Any
    cost: float
    metrics: Mapping[str, float]


def explore_then_exploit(
    candidates: Iterable[Any],
    evaluate: Callable[[Any], Mapping[str, float]],
    objective: Callable[[Mapping[str, float]], float],
) -> tuple[Any, tuple[ExplorationRound, ...]]:
    """Explore each candidate once, then exploit the cheapest.

    ``evaluate`` runs one candidate (typically a short, cheap
    simulation) and returns its observed metrics; ``objective`` folds
    those metrics into a single dollar-equivalent cost.  Every
    candidate is explored exactly once, in the given order, and the
    argmin is exploited — ties go to the earliest candidate, so the
    search is deterministic for a deterministic evaluator.

    Returns ``(best_candidate, rounds)`` where ``rounds`` records every
    exploration in order (the audit trail the studies surface).
    """
    rounds: list[ExplorationRound] = []
    best: ExplorationRound | None = None
    for candidate in candidates:
        metrics = evaluate(candidate)
        round_ = ExplorationRound(
            candidate=candidate, cost=float(objective(metrics)),
            metrics=dict(metrics),
        )
        rounds.append(round_)
        if best is None or round_.cost < best.cost:
            best = round_
    if best is None:
        raise ValueError("need at least one candidate to explore")
    return best.candidate, tuple(rounds)


@dataclass(frozen=True)
class TransitionCost:
    """Cost of moving between configurations.

    Parameters
    ----------
    per_started_vm_dollars:
        Charge per VM that must be started (warm-up, cache refill,
        rebalancing traffic — Cassandra re-partitioning is not free).
    per_stopped_vm_dollars:
        Charge per VM stopped (draining, range hand-off).
    """

    per_started_vm_dollars: float = 0.02
    per_stopped_vm_dollars: float = 0.01

    def __post_init__(self) -> None:
        if self.per_started_vm_dollars < 0 or self.per_stopped_vm_dollars < 0:
            raise ValueError("transition costs cannot be negative")

    def between(self, current: Allocation | None, target: Allocation) -> float:
        """Dollar-equivalent cost of transitioning ``current → target``."""
        if current is None:
            return 0.0
        if current.itype == target.itype:
            delta = target.count - current.count
            if delta >= 0:
                return delta * self.per_started_vm_dollars
            return -delta * self.per_stopped_vm_dollars
        # Type switch replaces the whole fleet.
        return (
            target.count * self.per_started_vm_dollars
            + current.count * self.per_stopped_vm_dollars
        )


class KingfisherTuner:
    """Minimum-cost configuration search over mixed instance types.

    Parameters
    ----------
    service:
        The service model used for sandboxed evaluation.
    max_count_per_type:
        Pool bound per instance type.
    instance_types:
        Types to consider (homogeneous configurations only, as on EC2
        auto-scaling groups; the search is over (count, type)).
    transition:
        Transition-cost model; None disables transition awareness.
    horizon_hours:
        Running cost is amortized over this horizon when traded against
        the one-off transition cost (a configuration is expected to
        persist for about one workload-class dwell time).
    latency_margin, qos_margin_points, experiment_seconds:
        As in :class:`~repro.core.tuner.LinearSearchTuner`.
    """

    def __init__(
        self,
        service: Service,
        max_count_per_type: int = 10,
        instance_types: tuple[InstanceType, ...] = (LARGE, EXTRA_LARGE),
        transition: TransitionCost | None = None,
        horizon_hours: float = 1.0,
        latency_margin: float = 0.9,
        qos_margin_points: float = 1.0,
        experiment_seconds: float = DEFAULT_EXPERIMENT_SECONDS,
    ) -> None:
        if max_count_per_type < 1:
            raise ValueError(f"pool must allow one instance: {max_count_per_type}")
        if not instance_types:
            raise ValueError("need at least one instance type")
        if horizon_hours <= 0:
            raise ValueError(f"horizon must be positive: {horizon_hours}")
        if not 0 < latency_margin <= 1:
            raise ValueError(f"latency margin out of (0,1]: {latency_margin}")
        if qos_margin_points < 0:
            raise ValueError(f"QoS margin cannot be negative: {qos_margin_points}")
        if experiment_seconds <= 0:
            raise ValueError(f"experiment time must be positive: {experiment_seconds}")
        self._service = service
        self._max_count = max_count_per_type
        self._types = tuple(instance_types)
        self._transition = transition
        self._horizon_hours = horizon_hours
        self._latency_margin = latency_margin
        self._qos_margin = qos_margin_points
        self._experiment_seconds = experiment_seconds
        self.current_allocation: Allocation | None = None

    def configurations(self) -> list[Allocation]:
        """The full search space, cheapest first."""
        space = [
            Allocation(count=count, itype=itype)
            for itype in self._types
            for count in range(1, self._max_count + 1)
        ]
        return sorted(space, key=lambda a: (a.hourly_cost, -a.capacity_units))

    def _meets_slo(self, workload: Workload, allocation: Allocation, theft: float) -> bool:
        sample = self._service.performance(
            workload, allocation.capacity_units, interference=theft
        )
        slo = self._service.slo
        if isinstance(slo, LatencySLO):
            return sample.latency_ms <= slo.bound_ms * self._latency_margin
        if isinstance(slo, QoSSLO):
            return sample.qos_percent >= slo.floor_percent + self._qos_margin
        raise TypeError(f"unknown SLO type: {type(slo).__name__}")

    def _objective(self, allocation: Allocation) -> float:
        """Amortized running cost plus the transition charge."""
        running = allocation.hourly_cost * self._horizon_hours
        if self._transition is None:
            return running
        return running + self._transition.between(
            self.current_allocation, allocation
        )

    def tune(
        self, workload: Workload, assumed_interference: float = 0.0
    ) -> TuningOutcome:
        """Pick the objective-minimizing SLO-meeting configuration.

        Evaluates cheapest-first and stops at the first feasible
        configuration whose objective no later candidate can beat
        (candidates are cost-ordered, so once one is feasible only
        same-running-cost alternatives with lower transition charges
        can win; those are checked before returning).

        Falls back to the largest configuration with ``met_slo=False``
        when nothing is feasible.
        """
        if not 0.0 <= assumed_interference < 1.0:
            raise ValueError(
                f"assumed interference out of [0,1): {assumed_interference}"
            )
        space = self.configurations()
        experiments = 0
        best: tuple[float, Allocation] | None = None
        for allocation in space:
            if best is not None and self._objective(allocation) >= best[0]:
                # Cost-ordered: all remaining running costs are >= this
                # one; only transition differences could still win, and
                # they are bounded by the objective check itself.
                if allocation.hourly_cost > best[1].hourly_cost:
                    break
            experiments += 1
            if self._meets_slo(workload, allocation, assumed_interference):
                objective = self._objective(allocation)
                if best is None or objective < best[0]:
                    best = (objective, allocation)
        if best is None:
            biggest = max(space, key=lambda a: a.capacity_units)
            return TuningOutcome(
                allocation=biggest,
                experiments_run=experiments,
                tuning_seconds=experiments * self._experiment_seconds,
                met_slo=False,
            )
        return TuningOutcome(
            allocation=best[1],
            experiments_run=experiments,
            tuning_seconds=experiments * self._experiment_seconds,
            met_slo=True,
        )

"""Admission-policy benchmark: priority vs fifo at equal slots.

The profiling economy's acceptance claim: with the *same* number of
clone-VM slots on the contended smoke fleet, ``queue_policy="priority"``
yields strictly fewer SLO-violation minutes than ``fifo``.  The market
does not add capacity — it reorders it: escalation probes and
violation-triggered adaptations outbid routine re-signature traffic, so
the waits that cross step boundaries land on the work that could afford
to wait.

The contended regime mirrors ``scenarios/SYN-profiler-market.yaml``:
eight mixed lanes on one profiling slot with a tight pending bound, a
routine re-signature stream as background traffic, and a 60-second step
so queue residency is visible in deployment timing.
"""

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

#: The contended smoke fleet (kept in lockstep with the
#: SYN-profiler-market scenario document).
CONTENDED = dict(
    n_lanes=8,
    hours=6.0,
    step_seconds=60.0,
    profiling_slots=1,
    max_pending=2,
    mix="mixed",
    resignature_every_seconds=600.0,
)


def violation_minutes(study) -> float:
    """Total lane-minutes spent in SLO violation across the run."""
    return (
        study.violation_fraction
        * study.n_steps
        * study.n_lanes
        * study.config.step_seconds
        / 60.0
    )


def test_priority_admission_cuts_violation_minutes(benchmark):
    """Equal slots: priority admission strictly beats fifo on SLO time."""
    fifo = run_fleet_multiplexing_study(queue_policy="fifo", **CONTENDED)
    priority = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs=dict(queue_policy="priority", **CONTENDED),
        rounds=1,
        iterations=1,
    )
    fifo_minutes = violation_minutes(fifo)
    priority_minutes = violation_minutes(priority)

    print_figure(
        f"Admission market: {fifo.n_lanes} lanes, 1 slot, "
        f"{fifo.config.step_seconds:.0f} s steps",
        [
            f"fifo: {fifo_minutes:.0f} violation-minutes "
            f"({fifo.violation_fraction:.2%} of lane-steps), "
            f"{fifo.accepted_profiles} accepted / "
            f"{fifo.rejected_profiles} rejected",
            f"priority: {priority_minutes:.0f} violation-minutes "
            f"({priority.violation_fraction:.2%}), "
            f"{priority.accepted_profiles} accepted / "
            f"{priority.rejected_profiles} rejected / "
            f"{priority.evicted_profiles} evicted",
            f"saved: {fifo_minutes - priority_minutes:.0f} "
            f"violation-minutes at identical slot count and spend",
        ],
    )
    benchmark.extra_info["fifo_violation_minutes"] = fifo_minutes
    benchmark.extra_info["priority_violation_minutes"] = priority_minutes
    benchmark.extra_info["fifo_violation_fraction"] = fifo.violation_fraction
    benchmark.extra_info["priority_violation_fraction"] = (
        priority.violation_fraction
    )
    benchmark.extra_info["priority_evicted_profiles"] = (
        priority.evicted_profiles
    )

    # Same fleet, same capacity, same spend envelope.
    assert fifo.n_steps == priority.n_steps
    assert fifo.fleet_hourly_cost == pytest.approx(
        priority.fleet_hourly_cost, rel=0.05
    )
    # The queue must actually be contended for the claim to mean
    # anything: fifo turns work away and priority exercises eviction.
    assert fifo.rejected_profiles > 0
    assert priority.evicted_profiles > 0
    # The acceptance criterion: strictly fewer SLO-violation minutes
    # under priority admission at equal slots.
    assert priority_minutes < fifo_minutes

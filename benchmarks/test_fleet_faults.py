"""Failure-recovery benchmark: evacuation vs riding out the outage.

The fault subsystem's acceptance claim: on the *same* fleet, hosts, and
seed, with the *same* scripted host deaths, the recovery response —
failure-triggered evacuation onto survivors (each evacuee paying the
Sec. 3 VM-cloning blackout), bounded profiling retries, degraded
fallback — yields strictly fewer SLO-violation minutes than the
no-recovery baseline (``recovery=off``), where the dead host's tenants
sit degraded at the residual rate until the host returns.  Recovery
does not add capacity — it moves work off the corpse and pays a
bounded blackout for the move.

The outage regime mirrors ``scenarios/SYN-host-outage.yaml`` (minus
the sharding, which is equivalence-pinned elsewhere): two scripted
host deaths in a tightly packed eight-lane fleet, 90 minutes and two
hours long.
"""

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

#: The outage fleet (kept in lockstep with the SYN-host-outage
#: scenario document); both arms share it, seed included.
OUTAGE = dict(
    n_lanes=8,
    hours=12.0,
    mix="scaleout",
    profiling_slots=4,
    n_hosts=3,
    host_capacity_units=10.0,
    seed=0,
)

#: Two host deaths with the VM-cloning blackout charged per evacuee.
FAULTS = "host:0@25+18,host:2@91+24,blackout=300"


def violation_minutes(study) -> float:
    """Total lane-minutes spent in SLO violation across the run."""
    return (
        study.violation_fraction
        * study.n_steps
        * study.n_lanes
        * study.config.step_seconds
        / 60.0
    )


def test_recovery_cuts_violation_minutes(benchmark):
    """Equal fleet, hosts, seed, and fault script: recovery strictly
    beats riding out the outage on SLO time."""
    no_recovery = run_fleet_multiplexing_study(
        faults=FAULTS + ",recovery=off", **OUTAGE
    )
    recovery = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs=dict(faults=FAULTS, **OUTAGE),
        rounds=1,
        iterations=1,
    )
    recovery_minutes = violation_minutes(recovery)
    no_recovery_minutes = violation_minutes(no_recovery)

    print_figure(
        f"Host-death recovery: {recovery.n_lanes} lanes on "
        f"{OUTAGE['n_hosts']} hosts, two scripted outages",
        [
            f"no recovery: {no_recovery_minutes:.0f} violation-minutes "
            f"({no_recovery.violation_fraction:.2%} of lane-steps), "
            f"tenants degraded in place",
            f"recovery: {recovery_minutes:.0f} violation-minutes "
            f"({recovery.violation_fraction:.2%}), "
            f"{recovery.evacuations} evacuation(s) / "
            f"{recovery.unplaced_evacuations} unplaceable, "
            f"blackout charged per evacuee",
            f"saved: {no_recovery_minutes - recovery_minutes:.0f} "
            f"violation-minutes at identical fleet, hosts, and seed",
        ],
    )
    benchmark.extra_info["recovery_violation_minutes"] = recovery_minutes
    benchmark.extra_info["no_recovery_violation_minutes"] = (
        no_recovery_minutes
    )
    benchmark.extra_info["recovery_violation_fraction"] = (
        recovery.violation_fraction
    )
    benchmark.extra_info["no_recovery_violation_fraction"] = (
        no_recovery.violation_fraction
    )
    benchmark.extra_info["recovery_evacuations"] = recovery.evacuations

    # Same fleet, same fault timeline, same horizon.
    assert recovery.n_steps == no_recovery.n_steps
    assert recovery.host_failures == no_recovery.host_failures == 2
    assert recovery.host_recoveries == no_recovery.host_recoveries == 2
    # The hosts must actually die and tenants must actually move, or
    # the comparison proves nothing.
    assert recovery.evacuations > 0
    assert no_recovery.evacuations == 0
    # The acceptance criterion: strictly fewer SLO-violation minutes
    # with recovery at equal fleet, hosts, and seed.
    assert recovery_minutes < no_recovery_minutes

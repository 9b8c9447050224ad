"""Golden digests of contended *batched* fleet runs.

On a contended profiling queue the batched wave and the per-lane
reference legitimately order grants differently, so no equivalence pin
covers the batched plane there.  These cases pin it on its own, where
queue-delayed deployments are common and the wave decides when each
one lands:

* one profiling slot with a ``max_pending`` bound on a mixed fleet;
* one unbounded slot with whole-profiler outages that revoke queued
  grants, so the managers retry with backoff;
* the priority market with watermark shedding and a routine
  re-signature stream;
* host-coupled fleets on one slot, FIFO and priority, where landed
  deployments fail the post-deploy SLO check and escalate to an
  interference band (the scalar fallback after the landing pass's
  vectorized pre-check).

The digest is :func:`tests.test_scalar_golden.study_digest`: series
matrices, step times, schemas, per-lane adaptation events and every
statistic.  Run this module as a script to print the current digests.
"""

from __future__ import annotations

import pytest

from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from tests.test_scalar_golden import study_digest

CONTENDED = dict(
    n_lanes=24,
    hours=12.0,
    mix="mixed",
    profiling_slots=1,
    max_pending=2,
    seed=0,
)

HOSTED = dict(
    n_lanes=16,
    hours=12.0,
    mix="mixed",
    seed=3,
    n_hosts=4,
    host_capacity_units=8.0,
    profiling_slots=1,
)

CASES = {
    "fifo-contended": CONTENDED,
    "fifo-outage": dict(
        CONTENDED,
        max_pending=None,
        # Each pair: an outage at an hourly check holds the check's
        # signatures until it ends, and the second one, opening as the
        # first closes, revokes them before they finish collecting.
        faults=(
            "profiler@36+2,profiler@38+2,"
            "profiler@60+1,profiler@61+3,retries=1"
        ),
        seed=1,
    ),
    "priority-market": dict(
        CONTENDED,
        queue_policy="priority",
        max_pending=4,
        queue_high_watermark=3,
        queue_low_watermark=1,
        resignature_every_seconds=1800.0,
    ),
    "hosts-escalation-fifo": HOSTED,
    "hosts-escalation-priority": dict(HOSTED, queue_policy="priority"),
}

#: Recorded before the batched wave let queue-delayed lanes sleep
#: until their deployment lands; the wave must reproduce every one.
GOLDEN = {
    "fifo-contended": "647645eb9717656e",
    "fifo-outage": "debd1f1f4b040317",
    "priority-market": "001863e6eabb3c7c",
    # Recorded before deployments landed in one pass per step.
    "hosts-escalation-fifo": "6504603f20460491",
    "hosts-escalation-priority": "6504603f20460491",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_run_matches_golden_digest(case):
    assert study_digest(run_fleet_multiplexing_study(**CASES[case])) == (
        GOLDEN[case]
    )


def test_cases_exercise_what_they_pin():
    """The queue really turns requests away, the outages really revoke
    queued signatures and the managers retry them, and the market
    really sheds or evicts."""
    contended = run_fleet_multiplexing_study(**CASES["fifo-contended"])
    assert contended.rejected_profiles > 0
    assert contended.max_queue_wait_seconds > 0.0
    outage = run_fleet_multiplexing_study(**CASES["fifo-outage"])
    assert outage.revoked_profiles > 0
    assert outage.profiling_retries > 0
    market = run_fleet_multiplexing_study(**CASES["priority-market"])
    assert market.shed_profiles + market.evicted_profiles > 0
    for case in ("hosts-escalation-fifo", "hosts-escalation-priority"):
        hosted = run_fleet_multiplexing_study(**CASES[case])
        assert hosted.interference_escalations == 2
        assert hosted.max_queue_wait_seconds > 0.0


if __name__ == "__main__":
    for case in sorted(CASES):
        digest = study_digest(run_fleet_multiplexing_study(**CASES[case]))
        print(f'    "{case}": "{digest}",')

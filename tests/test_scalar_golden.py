"""Golden digests of ``batched=False`` fleet runs no equivalence pin covers.

The equivalence suites compare the scalar and batched control planes
on uncontended queues, where both paths must agree.  These cases pin
the scalar path on its own, where the paths may legitimately differ:

* a contended FIFO queue (one slot, ``max_pending=2``) on a mixed fleet;
* the same fleet on the priority market, with watermark shedding and a
  routine re-signature stream;
* a mixed fleet on shared hosts with consolidating migration, a host
  death and a profiler outage.

Each digest hashes the run's series matrices, step times, schemas,
per-lane adaptation events and every statistic.  Floats enter through
``tobytes``/``json``, so a change in the last bit of any recorded
number changes the digest.  Run this module as a script to print the
current digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.sim.placement import MigrationPolicy

CONTENDED = dict(
    n_lanes=24,
    hours=12.0,
    mix="mixed",
    profiling_slots=1,
    max_pending=2,
    batched=False,
    seed=0,
)

CASES = {
    "fifo-contended": CONTENDED,
    "priority-market": dict(
        CONTENDED,
        queue_policy="priority",
        max_pending=4,
        queue_high_watermark=3,
        queue_low_watermark=1,
        resignature_every_seconds=1800.0,
    ),
    "hosts-faults": dict(
        n_lanes=16,
        hours=12.0,
        mix="mixed",
        n_hosts=4,
        host_capacity_units=10.0,
        migration=MigrationPolicy(mode="consolidate"),
        faults="host:1@40+30,profiler@30+18",
        batched=False,
        seed=2,
    ),
}

#: Recorded before the scalar loop was folded into the phased loop; the
#: single loop must reproduce every one of them.
GOLDEN = {
    "fifo-contended": "8a592e6759c89e37",
    "priority-market": "c75c65887e7929da",
    "hosts-faults": "5dde28b44793ab5c",
}


def study_digest(study) -> str:
    result = study.result
    digest = hashlib.sha256()
    for name in sorted(result.matrices):
        matrix = np.ascontiguousarray(result.matrix(name), dtype=float)
        digest.update(f"{name}{matrix.shape}".encode())
        digest.update(matrix.tobytes())
    document = {
        "times": result.times.tolist(),
        "lane_labels": list(result.lane_labels),
        "schemas": [list(schema) for schema in result.schemas],
        "lane_schemas": list(result.lane_schemas),
        "series_lanes": {
            name: list(lanes) for name, lanes in result.series_lanes.items()
        },
        "lane_events": [
            [list(event) for event in events] for events in study.lane_events
        ],
        "statistics": study.statistics(),
    }
    digest.update(json.dumps(document, sort_keys=True).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_run_matches_golden_digest(case):
    assert study_digest(run_fleet_multiplexing_study(**CASES[case])) == (
        GOLDEN[case]
    )


def test_cases_exercise_what_they_pin():
    """The digests only pin the scalar order where it matters: the
    queue really turns requests away, the market really sheds or
    evicts, and the faulted fleet really loses a host, evacuates and
    migrates while the profiler outage holds requests back."""
    contended = run_fleet_multiplexing_study(**CASES["fifo-contended"])
    assert contended.rejected_profiles > 0
    market = run_fleet_multiplexing_study(**CASES["priority-market"])
    assert market.shed_profiles + market.evicted_profiles > 0
    faulted = run_fleet_multiplexing_study(**CASES["hosts-faults"])
    assert faulted.host_failures == faulted.host_recoveries == 1
    assert faulted.evacuations > 0
    assert faulted.migrations > 0
    # The 18-step (90-minute) outage holds a request over an hour.
    assert faulted.max_queue_wait_seconds > 3600.0


if __name__ == "__main__":
    for case in sorted(CASES):
        digest = study_digest(run_fleet_multiplexing_study(**CASES[case]))
        print(f'    "{case}": "{digest}",')

"""The benchmark's three fleet workloads and their correctness checks.

Each workload is one ``run_fleet_multiplexing_study`` configuration
built from the seed, plus a *reference* configuration the simulator
promises to reproduce bit for bit (the repository's central claim:
scalar == batched == sharded).  Across the scalar/batched and the
sharded/single-process boundaries the promise covers only an
uncontended profiling queue (under contention the paths can order
queue grants differently, and at some seeds do), so the workloads
checked across them give the queue the fewest clone-VM slots that keep
it uncontended: one per lane on ``sharded``, as the repository's own
shard sweeps do, and three per lane on ``hosts``.  Every seed thus
gives a run in which no operation fails and the reference must match.

Workloads (the fleet size is fixed per workload; the seed changes the
traces, the telemetry noise and, on ``hosts``, the fault):

* ``batched`` — 200 mixed lanes on dedicated hardware for a simulated
  day under the batched control plane, sharing one profiling slot (the
  contended queue of the paper's Sec. 5 economics).  Stresses the
  adaptation wave (gate, collect, classify, lookup, finish), the queue
  and the vectorized observers; no hosts, no shards.  The reference is
  the same engine overlapping its waves on two threads.
* ``hosts`` — 40 mixed lanes of two sizes packed first-fit-decreasing
  on forecast peaks onto 10 shared hosts for half a day, with
  consolidating migration and one host outage.  Stresses the host
  theft pass, the migration planner and fault evacuation.  The
  reference is the scalar loop.
* ``sharded`` — 48 mixed lanes on 12 shared hosts, cut into 2 shards
  run by 2 spawned worker processes that exchange demands at a barrier
  every step.  Stresses spawn, the barrier, npz persistence and the
  merge.  The reference is the same fleet in one process.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

STEP_SECONDS = 300.0
SHARD_DIR = Path(__file__).resolve().parents[1] / ".perfbench" / "shards"


@dataclass(frozen=True)
class Workload:
    name: str
    kwargs: Callable[[int], dict]
    """Study keyword arguments for a seed."""
    reference: dict
    """Overrides that turn the kwargs into the reference run."""
    expect: Callable[[object, dict], list[str]]
    """Workload-specific invariants; returns the violated ones."""


def _batched_kwargs(seed: int) -> dict:
    return dict(n_lanes=200, hours=24.0, mix="mixed", seed=seed)


def _hosts_kwargs(seed: int) -> dict:
    from repro.sim.placement import MigrationPolicy

    rng = random.Random(seed)
    n_hosts = 10
    host = rng.randrange(n_hosts)
    start = rng.randrange(30, 100)
    length = rng.randrange(12, 37)
    return dict(
        n_lanes=40,
        hours=12.0,
        mix="mixed",
        seed=seed,
        # The host outage makes every evacuee adapt and probe in the
        # same step; fewer than three slots per lane queue that burst
        # and the scalar reference then orders it differently.
        profiling_slots=120,
        n_hosts=n_hosts,
        placement="first_fit_decreasing",
        placement_demand="forecast",
        demand_factors=(0.5, 1.5),
        migration=MigrationPolicy(rebalance_every=6, mode="consolidate"),
        faults=f"host:{host}@{start}+{length}",
    )


def _sharded_kwargs(seed: int) -> dict:
    return dict(
        n_lanes=48,
        hours=12.0,
        mix="mixed",
        seed=seed,
        profiling_slots=48,
        n_hosts=12,
        placement="first_fit_decreasing",
        shards=2,
        workers=2,
        # The shards' results are persisted inside the checkout rather
        # than in the system's temporary directory.
        shard_dir=str(SHARD_DIR),
    )


def _no_extra(study, kwargs) -> list[str]:
    return []


def _hosts_expect(study, kwargs) -> list[str]:
    problems = []
    if (study.host_failures, study.host_recoveries) != (1, 1):
        problems.append(
            f"expected 1 host failure and recovery, got "
            f"{study.host_failures}/{study.host_recoveries}"
        )
    if not 0.0 < study.host_hours_on <= kwargs["n_hosts"] * kwargs["hours"]:
        problems.append(f"host_hours_on out of range: {study.host_hours_on}")
    if not 0.0 <= study.mean_host_theft <= study.peak_host_theft <= 1.0:
        problems.append(
            f"theft out of range: mean {study.mean_host_theft}, "
            f"peak {study.peak_host_theft}"
        )
    return problems


def _sharded_expect(study, kwargs) -> list[str]:
    if (study.shards, study.workers) != (kwargs["shards"], kwargs["workers"]):
        return [f"ran {study.shards} shards on {study.workers} workers"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "batched",
            _batched_kwargs,
            {"wave_workers": 2},
            _no_extra,
        ),
        Workload(
            "hosts",
            _hosts_kwargs,
            {"batched": False},
            _hosts_expect,
        ),
        Workload(
            "sharded",
            _sharded_kwargs,
            {"shards": 1, "workers": None},
            _sharded_expect,
        ),
    )
}


def fingerprint(study) -> str:
    """A digest of everything the reference run must reproduce exactly."""
    digest = hashlib.sha256()
    result = study.result
    digest.update(repr(result.lane_labels).encode())
    digest.update(np.ascontiguousarray(result.times).tobytes())
    for name in sorted(result.series_names()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.matrix(name)).tobytes())
    digest.update(repr(study.lane_events).encode())
    fields = [
        study.violation_fraction,
        study.mean_host_theft,
        study.peak_host_theft,
        study.host_overload_fraction,
        study.migrations,
        study.evacuations,
        study.host_failures,
        study.host_recoveries,
        study.host_hours_on,
        study.interference_escalations,
        study.accepted_profiles,
        study.hit_rate,
    ]
    digest.update(repr(fields).encode())
    return digest.hexdigest()


def invariants(workload: Workload, study, kwargs: dict) -> list[str]:
    """Checks every run of the workload must pass, beyond determinism."""
    problems = []
    expected_steps = int(round(kwargs["hours"] * 3600.0 / STEP_SECONDS))
    if (study.n_lanes, study.n_steps) != (kwargs["n_lanes"], expected_steps):
        problems.append(
            f"shape {study.n_lanes}x{study.n_steps}, expected "
            f"{kwargs['n_lanes']}x{expected_steps}"
        )
    if study.result.n_lanes != kwargs["n_lanes"]:
        problems.append(f"result holds {study.result.n_lanes} lanes")
    for name in study.result.series_names():
        if not np.all(np.isfinite(study.result.matrix(name))):
            problems.append(f"series {name!r} is not finite")
    if len(study.lane_events) != kwargs["n_lanes"]:
        problems.append(f"{len(study.lane_events)} lane event logs")
    if not 0.0 <= study.violation_fraction <= 1.0:
        problems.append(f"violation fraction {study.violation_fraction}")
    return problems + workload.expect(study, kwargs)

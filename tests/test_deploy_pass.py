"""Every deployment the batched wave makes goes through one deploy pass.

:meth:`~repro.sim.fleet.FleetEngine._deploy` puts both kinds of
decision in production in one column pass per step — the queue-delayed
decisions the landing pass lands and the finish's at-once decisions —
skips ``ProductionEnvironment.apply`` for rows whose allocation is
already deployed, and pre-checks the post-deploy SLO of all of them as
vectors; a row failing the pre-check runs the scalar check at its
lane's place in lane order.  These tests pin that at-once deployments
that fail the pre-check escalate exactly as the per-lane reference
does on a contended queue, and that only real allocation changes reach
the provider.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider
from repro.core.manager import DejaVuManager
from repro.core.profiler import ProductionEnvironment
from repro.core.repository import AllocationRepository
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.experiments.setup import (
    build_scaleout_setup,
    fleet_observer_scaleout,
    observe_scaleout,
)
from repro.sim.clock import HOUR
from repro.sim.fleet import FleetEngine, FleetLane
from repro.sim.profiling_queue import ProfilingQueue
from tests.test_batched_golden import CASES

#: A short step, one profiling slot of the same length: a lane's
#: escalation probes hold the slot into the next lanes' checks.
STEP = 10.0


class ConstantTheft:
    """An injector stealing a fixed share of capacity, always."""

    def __init__(self, theft: float) -> None:
        self.theft = theft

    def interference_at(self, t: float) -> float:
        return self.theft


def staggered_fleet(n_lanes: int):
    """Scale-out lanes sharing one model on one priority slot; every
    other lane loses half its capacity to a co-tenant, so its band-0
    allocation misses the SLO and the check escalates.  Lane ``i``'s
    checks fall ``i`` steps into each hour, so each step one lane is
    due: the wave and the per-lane reference then charge the queue in
    the same order, while probes and queue-delayed signatures still
    contend for the slot."""
    repository = AllocationRepository()
    setups = [
        build_scaleout_setup(
            repository=repository,
            trace_seed=i,
            seed=3 * i,
            injector=ConstantTheft(0.5) if i % 2 == 0 else None,
            trace_days=1,
        )
        for i in range(n_lanes)
    ]
    leader = setups[0].manager
    leader.learn(setups[0].trace.hourly_workloads(day=0))
    for setup in setups[1:]:
        setup.manager.adopt_trained_state(leader)
    for i, setup in enumerate(setups):
        setup.manager._next_check = i * STEP
    observer = fleet_observer_scaleout(setups)
    lanes = [
        FleetLane(
            workload_fn=setup.trace,
            controller=setup.manager,
            observe_fn=observe_scaleout(setup),
            label=f"lane-{i}",
            observe_batch=observer,
        )
        for i, setup in enumerate(setups)
    ]
    queue = ProfilingQueue(slots=1, service_seconds=STEP, queue_policy="priority")
    return lanes, queue, [setup.manager for setup in setups]


def staggered_run(batched: bool, hours: int = 3):
    """``(digest, queue, managers)`` of one run: the digest covers every
    recorded series, every adaptation event and every grant."""
    lanes, queue, managers = staggered_fleet(6)
    result = FleetEngine(
        lanes, step_seconds=STEP, profiling_queue=queue, batched=batched
    ).run(hours * HOUR)
    digest = hashlib.sha256()
    for name in sorted(result.series_names()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.matrix(name)).tobytes())
    for manager in managers:
        digest.update(repr(manager.adaptation_events).encode())
        meter = manager.production.provider.meter
        digest.update(repr(meter.instance_seconds).encode())
    digest.update(repr(queue.grants).encode())
    return digest.hexdigest(), queue, managers


def test_at_once_deployments_failing_the_precheck_escalate_as_per_lane(
    monkeypatch,
):
    """At-once deployments that fail the pre-check charge their probes
    and escalate at their lane's place in lane order: on a contended
    priority queue the batched run equals the per-lane reference in
    every series, event and grant."""
    finished = []
    complete = DejaVuManager.complete_batched_adapt

    def spy(self, t, workload, label, certainty, prefetched, grant,
            deployed=None, failed=False):
        finished.append((deployed is not None, failed))
        return complete(
            self, t, workload, label, certainty, prefetched, grant,
            deployed, failed,
        )

    monkeypatch.setattr(DejaVuManager, "complete_batched_adapt", spy)
    batched, queue, managers = staggered_run(True)
    monkeypatch.undo()
    scalar, _queue, _managers = staggered_run(False)
    # The run exercises what it pins: at-once deployments failing the
    # pre-check, queue-delayed decisions, probes on a queue that makes
    # requests wait, and escalated interference bands.
    assert finished.count((True, True)) >= 3
    assert (False, False) in finished
    assert sum(grant.kind == "probe" for grant in queue.grants) >= 4
    assert max(grant.wait_seconds for grant in queue.grants) > 0.0
    assert any(manager._deployed_band for manager in managers)
    assert batched == scalar


#: ``CloudProvider.apply`` calls per pinned batched study, recorded
#: before the deploy pass: every one changes the allocation.
PROVIDER_APPLIES = {
    "fifo-contended": 66,
    "fifo-outage": 60,
    "hosts-escalation-fifo": 93,
    "hosts-escalation-priority": 93,
    "priority-market": 66,
}


@pytest.mark.parametrize("case", sorted(PROVIDER_APPLIES))
def test_only_allocation_changes_reach_the_provider(monkeypatch, case):
    """Each pinned study applies exactly its allocation changes, and
    deployments reach ``ProductionEnvironment.apply`` only when they
    change the allocation: the batched wave's deploy pass and the
    per-lane flush (which lands revised, retried and degraded
    decisions) skip the rest by one rule."""
    counts = {"provider": 0, "changes": 0, "production": 0}
    provider_apply = CloudProvider.apply
    production_apply = ProductionEnvironment.apply

    def count_provider(self, allocation, now):
        counts["provider"] += 1
        counts["changes"] += allocation != self.current_allocation
        return provider_apply(self, allocation, now)

    def count_production(self, allocation, t):
        counts["production"] += 1
        return production_apply(self, allocation, t)

    monkeypatch.setattr(CloudProvider, "apply", count_provider)
    monkeypatch.setattr(ProductionEnvironment, "apply", count_production)
    run_fleet_multiplexing_study(**CASES[case])
    assert counts["provider"] == counts["changes"] == PROVIDER_APPLIES[case]
    assert counts["production"] == counts["provider"]

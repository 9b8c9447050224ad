"""The batched wave's lane table stays equal to the lanes it mirrors.

:class:`~repro.sim.fleet.FleetEngine` keeps one row per batch candidate
(next check, next re-signature, pending ``apply_at``, the batchable and
pending-grant masks) and picks the lanes to visit, adapt and land with
mask operations over it.  These tests pin the engine's decisions on
fleets that exercise every way a row changes, and check after every
step that each row still equals the per-lane predicate it replaced.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.sim.clock import HOUR
from repro.sim.fleet import FleetEngine
from repro.sim.profiling_queue import PRIORITY_ESCALATION
from tests.test_fleet_quiet_lanes import (
    OUTAGES,
    STEP,
    build_fleet,
    run_fingerprint,
)

#: Twelve lanes on one FIFO or priority slot, a one-minute step so
#: queue-delayed deployments land steps after their check; every lane
#: re-learns after two misses under a strict certainty threshold, and
#: every third lane also adapts on SLO violations (a row the wave
#: masks and steps through ``on_step``).
PINNED_LANES, PINNED_HOURS, PINNED_STEP = 12, 6, 60.0
PINNED_CONFIG = DejaVuConfig(
    auto_relearn=True,
    certainty_threshold=0.95,
    relearn_after_misses=2,
    min_relearn_history=6,
)


def pinned_fleet(queue_policy: str) -> dict:
    return dict(
        step=PINNED_STEP,
        config=[
            replace(PINNED_CONFIG, adapt_on_violation=i % 3 == 2)
            for i in range(PINNED_LANES)
        ],
        slots=1,
        queue_policy=queue_policy,
    )


#: Recorded before the wave read its lanes from the table.
GOLDEN = {
    "fifo": "c19928452f23844b",
    "priority": "da84ad80d810f9e7",
}


@pytest.mark.parametrize("queue_policy", sorted(GOLDEN))
def test_engine_run_matches_golden_digest(queue_policy):
    digest = run_fingerprint(
        True, PINNED_LANES, PINNED_HOURS, **pinned_fleet(queue_policy)
    )
    assert digest[:16] == GOLDEN[queue_policy]


@pytest.mark.parametrize("queue_policy", sorted(GOLDEN))
def test_pinned_runs_exercise_every_row_change(monkeypatch, queue_policy):
    """Each pinned run stages re-learned models, adapts on SLO
    violations, and lands queue-delayed deployments."""
    violations, staged = [], []
    adapt = DejaVuManager.adapt
    stage = DejaVuManager._stage_relearn

    def spy_adapt(self, ctx, priority=None):
        event = adapt(self, ctx, priority)
        if priority == PRIORITY_ESCALATION and event is not None:
            violations.append(ctx.t)
        return event

    def spy_stage(self, now, workloads, burst):
        staged.append(now)
        return stage(self, now, workloads, burst)

    monkeypatch.setattr(DejaVuManager, "adapt", spy_adapt)
    monkeypatch.setattr(DejaVuManager, "_stage_relearn", spy_stage)
    fleet = pinned_fleet(queue_policy)
    lanes, queue, managers = build_fleet(PINNED_LANES, **{
        key: value for key, value in fleet.items() if key != "step"
    })
    FleetEngine(
        lanes, step_seconds=PINNED_STEP, profiling_queue=queue
    ).run(PINNED_HOURS * HOUR)
    assert staged and violations
    signature = managers[0].profiler.signature_seconds
    delayed = sum(
        event.duration_seconds > signature
        for manager in managers
        for event in manager.adaptation_events
    )
    never_landed = sum(
        manager.superseded_deployments
        + manager.evicted_adaptations
        + manager.revoked_adaptations
        + (manager.pending_deployment is not None)
        for manager in managers
    )
    assert delayed - never_landed >= PINNED_LANES


def test_a_model_shared_across_monitor_families_classifies_as_one_group():
    """A lane adopting a model while its monitor collects in another
    monitor family (here: a longer window) is collected in a pass of
    its own and still classifies with its model group, bit-identically
    to the per-lane reference."""

    def run(batched: bool):
        lanes, queue, managers = build_fleet(
            4, config=DejaVuConfig(), slots=64 * 4
        )
        managers[2].profiler.monitor.window_seconds *= 2
        engine = FleetEngine(
            lanes, step_seconds=STEP, profiling_queue=queue, batched=batched
        )
        return engine, engine.run(3 * HOUR), managers

    engine, batched, managers = run(True)
    table = engine._table
    assert table.model_groups([0, 2]) == [table.model_group[0]] * 2
    assert table.monitor_group[0] != table.monitor_group[2]
    _engine, scalar, scalar_managers = run(False)
    for name in scalar.series_names():
        assert batched.matrix(name).tolist() == scalar.matrix(name).tolist()
    assert [m.adaptation_events for m in managers] == [
        m.adaptation_events for m in scalar_managers
    ]


# -- the scalar predicates the table replaced --------------------------


def scalar_batchable(manager: DejaVuManager) -> bool:
    """The wave drives the lane: trained, not ``adapt_on_violation``."""
    return manager.is_trained and not manager.config.adapt_on_violation


def scalar_due(manager: DejaVuManager, t: float) -> bool:
    """The periodic-check predicate of ``on_step``."""
    return t + 1e-9 >= manager._next_check


def scalar_wake(manager: DejaVuManager) -> float:
    """The earliest step time the wave must visit the lane."""
    if manager._staged_model is not None or not scalar_batchable(manager):
        return -math.inf
    wake = min(manager._next_check, manager._next_resignature)
    pending = manager.pending_deployment
    if pending is None:
        return wake
    grant = pending.grant
    if grant is not None and (grant.outcome != "accepted" or grant.revised):
        return -math.inf
    queue = manager.profiling_queue
    stable = math.inf if queue is None else queue.grants_stable_until()
    return min(wake, pending.apply_at, stable)


def check_rows(engine: FleetEngine, t: float) -> None:
    """Every row equals its manager's scalar predicates as a step at
    ``t`` starts (before its outage windows apply)."""
    table = engine._table
    stable = engine.profiling_queue.grants_stable_until()
    wake = table.wake(stable)
    for k, manager in enumerate(table.controllers):
        pending = manager.pending_deployment
        assert table.batchable[k] == scalar_batchable(manager), (t, k)
        assert wake[k] == scalar_wake(manager), (t, k)
        assert table.next_check[k] == manager._next_check, (t, k)
        assert (t + 1e-9 >= table.next_check[k]) == scalar_due(manager, t)
        assert table.next_resignature[k] == manager._next_resignature, (t, k)
        assert table.apply_at[k] == (
            math.inf if pending is None else pending.apply_at
        ), (t, k)


@given(
    n_lanes=st.integers(min_value=2, max_value=8),
    # Six hours at least: a lane re-learns once six checks are on record.
    hours=st.integers(min_value=6, max_value=8),
    step=st.sampled_from([STEP, 120.0]),
    contended=st.booleans(),
    queue_policy=st.sampled_from(["fifo", "priority"]),
    resignature=st.booleans(),
    auto_relearn=st.booleans(),
    outage=st.booleans(),
    violations=st.booleans(),
    moved=st.lists(st.integers(min_value=0, max_value=7), max_size=3),
)
@example(
    n_lanes=8,
    hours=7,
    step=120.0,
    contended=True,
    queue_policy="fifo",
    resignature=True,
    auto_relearn=True,
    outage=True,
    violations=True,
    moved=[0, 3],
)
@example(
    n_lanes=6,
    hours=7,
    step=120.0,
    contended=True,
    queue_policy="priority",
    resignature=True,
    auto_relearn=True,
    outage=True,
    violations=True,
    moved=[1],
)
@settings(max_examples=25, deadline=None)
def test_rows_equal_the_scalar_predicates_after_every_step(
    n_lanes,
    hours,
    step,
    contended,
    queue_policy,
    resignature,
    auto_relearn,
    outage,
    violations,
    moved,
):
    """After every step — and after a caller moves lanes' next checks
    between two runs — each row's wake time, due and batchable
    predicates, and the state they read, equal the lane's own."""
    config = DejaVuConfig(
        resignature_every_seconds=1800.0 if resignature else None,
        auto_relearn=auto_relearn,
        certainty_threshold=0.95 if auto_relearn else 0.6,
        relearn_after_misses=2,
        min_relearn_history=6,
        profiling_retry_limit=2 if outage else 0,
        profiling_retry_backoff_seconds=step,
    )
    lanes, queue, managers = build_fleet(
        n_lanes,
        config=[
            replace(config, adapt_on_violation=violations and i % 3 == 2)
            for i in range(n_lanes)
        ],
        slots=1 if contended else 64 * n_lanes,
        queue_policy=queue_policy,
        outages=OUTAGES if outage else (),
    )
    engine = FleetEngine(lanes, step_seconds=step, profiling_queue=queue)
    advance = queue.advance_to
    checked = []

    def check_then_advance(t):
        check_rows(engine, t)
        checked.append(t)
        advance(t)

    queue.advance_to = check_then_advance
    engine.run(hours * HOUR)
    end = hours * HOUR
    check_rows(engine, end)
    for lane in moved:
        managers[lane % n_lanes]._next_check = end + step
    engine.run(3 * step, start=end)
    check_rows(engine, end + 3 * step)
    assert len(checked) == round(hours * HOUR / step) + 3


if __name__ == "__main__":
    for policy in sorted(GOLDEN):
        digest = run_fingerprint(
            True, PINNED_LANES, PINNED_HOURS, **pinned_fleet(policy)
        )
        print(f'    "{policy}": "{digest[:16]}",')

"""Lanes cost work only when their state can change, and skipping
them changes nothing.

The batched fleet engine keeps each DejaVu lane's wake times in its
lane table (:class:`~repro.sim.fleet._LaneTable`) and visits only the
lanes whose wake time has come, a queue-delayed FIFO deployment
included; trace lanes re-evaluate their workload once per
trace hour; the family observers re-read capacity and allocation only
for lanes whose provider changed or is still warming up
(:class:`~repro.cloud.provider.CapacityCache`).  These tests pin the
shortcuts to the scalar reference bit for bit, prove each one is live,
and prove a lane the queue can still touch is not put to sleep.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation
from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.core.repository import AllocationRepository
from repro.experiments.setup import (
    build_scaleout_setup,
    build_scaleup_setup,
    fleet_observer_scaleout,
    fleet_observer_scaleup,
    observe_scaleout,
    observe_scaleup,
)
from repro.sim.clock import HOUR
from repro.sim.engine import StepContext
from repro.sim.fleet import FleetEngine, FleetLane
from repro.sim.profiling_queue import ProfilingQueue
from repro.workloads.traces import LoadTrace

STEP = 600.0

#: Profiling slots per lane, enough that no request ever waits behind
#: another: per step a lane issues at most one adaptation, one
#: re-classification, a few interference probes and a re-signature,
#: plus a relearn sweep of ``trials_per_workload`` (5) requests per
#: retained workload (one per hourly check, at most 7 in 6 hours).  An
#: outage still delays requests, but each gets a slot of its own when
#: it ends, so the order in which scalar and batched stepping charge
#: the queue cannot change a grant: the regime in which the two promise
#: bit-identical runs.
UNCONTENDED_SLOTS_PER_LANE = 64


def build_fleet(
    n_lanes: int,
    config: "DejaVuConfig | list[DejaVuConfig]",
    slots: int | None,
    queue_policy: str = "fifo",
    outages: tuple = (),
):
    """Alternating scale-out / scale-up DejaVu lanes, two trained
    families (lane 0 and lane 1 learn, the rest adopt), one batch
    observer per family; rebuilt from scratch per call.  ``config`` is
    every lane's, or a list holding one per lane."""
    repositories = {"out": AllocationRepository(), "up": AllocationRepository()}
    setups = []
    for i in range(n_lanes):
        kind = "out" if i % 2 == 0 else "up"
        build = build_scaleout_setup if kind == "out" else build_scaleup_setup
        setups.append(
            (
                kind,
                build(
                    repository=repositories[kind],
                    trace_seed=i,
                    seed=3 * i,
                    config=config[i] if isinstance(config, list) else config,
                ),
            )
        )
    leaders = {}
    for kind, setup in setups:
        leader = leaders.get(kind)
        if leader is None:
            setup.manager.learn(setup.trace.hourly_workloads(day=0))
            leaders[kind] = setup.manager
        else:
            setup.manager.adopt_trained_state(leader)
    observers = {
        "out": fleet_observer_scaleout([s for k, s in setups if k == "out"]),
        "up": fleet_observer_scaleup([s for k, s in setups if k == "up"]),
    }
    lanes = [
        FleetLane(
            workload_fn=setup.trace,
            controller=setup.manager,
            observe_fn=(observe_scaleout if kind == "out" else observe_scaleup)(
                setup
            ),
            label=f"lane-{i}",
            observe_batch=observers[kind],
        )
        for i, (kind, setup) in enumerate(setups)
    ]
    queue = None
    if slots is not None:
        queue = ProfilingQueue(
            slots=slots, service_seconds=10.0, queue_policy=queue_policy
        )
        if outages:
            queue.attach_faults(outages)
    return lanes, queue, [setup.manager for _kind, setup in setups]


def run_fingerprint(
    batched: bool, n_lanes: int, hours: float, step: float = STEP, **fleet
) -> str:
    """Digest of everything a run decides: every recorded series, every
    adaptation event, the repository and queue accounting."""
    lanes, queue, managers = build_fleet(n_lanes, **fleet)
    engine = FleetEngine(
        lanes, step_seconds=step, profiling_queue=queue, batched=batched
    )
    result = engine.run(hours * HOUR)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.times).tobytes())
    for name in sorted(result.series_names()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.matrix(name)).tobytes())
    for manager in managers:
        digest.update(repr(manager.adaptation_events).encode())
        digest.update(
            repr(
                (
                    manager.repository.stats.hits,
                    manager.repository.stats.misses,
                    manager.relearn_count,
                    manager.resignature_requests,
                    manager.deferred_adaptations,
                    manager.superseded_deployments,
                    manager.revoked_adaptations,
                    manager.profiling_retries,
                    manager.degraded_adaptations,
                    manager.production.provider.meter.instance_seconds,
                )
            ).encode()
        )
    return digest.hexdigest()


#: Two whole-profiler outages: the first holds the hour-1 checks'
#: signatures until it ends (queue-delayed deployments); the second
#: opens before the next step and revokes them (retry with backoff).
OUTAGES = (
    (HOUR - 5.0, HOUR + 1100.0, None),
    (HOUR + 1105.0, HOUR + 1700.0, None),
)


@given(
    n_lanes=st.integers(min_value=2, max_value=12),
    hours=st.integers(min_value=2, max_value=6),
    resignature=st.booleans(),
    auto_relearn=st.booleans(),
    queue_policy=st.sampled_from(["fifo", "priority"]),
    outage=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_wake_array_keeps_batched_equal_to_scalar(
    n_lanes, hours, resignature, auto_relearn, queue_policy, outage
):
    config = DejaVuConfig(
        resignature_every_seconds=1800.0 if resignature else None,
        # A strict certainty threshold turns classifications into
        # misses, so the relearn path really runs when it is drawn.
        auto_relearn=auto_relearn,
        certainty_threshold=0.95 if auto_relearn else 0.6,
        relearn_after_misses=2,
        min_relearn_history=2,
        profiling_retry_limit=2 if outage else 0,
        profiling_retry_backoff_seconds=STEP,
    )
    fleet = dict(
        config=config,
        slots=UNCONTENDED_SLOTS_PER_LANE * n_lanes,
        queue_policy=queue_policy,
        outages=OUTAGES if outage else (),
    )
    assert run_fingerprint(True, n_lanes, hours, **fleet) == run_fingerprint(
        False, n_lanes, hours, **fleet
    )


def test_quiet_lanes_are_not_polled(monkeypatch):
    """On an uncontended fleet with nothing queue-delayed, a lane is
    visited only when a check or a re-signature is due: the wave polls
    far fewer times than there are lane-steps, yet still polls."""
    calls = []
    poll = DejaVuManager.poll_pending_deployment

    def counting_poll(self, t):
        calls.append(t)
        return poll(self, t)

    monkeypatch.setattr(
        DejaVuManager, "poll_pending_deployment", counting_poll
    )
    n_lanes, hours = 4, 6
    lanes, queue, managers = build_fleet(
        n_lanes,
        config=DejaVuConfig(resignature_every_seconds=1800.0),
        slots=UNCONTENDED_SLOTS_PER_LANE * n_lanes,
    )
    engine = FleetEngine(lanes, step_seconds=STEP, profiling_queue=queue)
    result = engine.run(hours * HOUR)
    lane_steps = result.n_steps * n_lanes
    assert all(m.resignature_requests > 0 for m in managers)
    assert 0 < len(calls) < lane_steps // 2


def test_wake_times_reset_between_runs():
    """A new run starts by visiting every lane, whatever wake times the
    previous run left behind: a caller may move a check in between."""
    lanes, queue, managers = build_fleet(2, config=DejaVuConfig(), slots=8)
    engine = FleetEngine(lanes, step_seconds=STEP, profiling_queue=queue)
    engine.run(2 * STEP)  # adapts at t=0; the next check is an hour out
    for manager in managers:
        manager._next_check = 2 * STEP
    engine.run(STEP, start=2 * STEP)
    for manager in managers:
        assert [event.t for event in manager.adaptation_events] == [
            0.0,
            2 * STEP,
        ]


def test_family_observers_match_scalar_observation_every_step():
    """Each family observer reads capacity and allocation only for
    lanes its cache marks as changed; on every step, including steps
    inside warm-up windows cut short by another ``apply``, its rows
    equal the scalar ``observe_*`` closures bit for bit."""
    out = [build_scaleout_setup(trace_seed=i, seed=i) for i in range(3)]
    up = [build_scaleup_setup(trace_seed=i, seed=i) for i in range(3)]
    # (t, allocation) changes per lane, in out + up order.  The VM
    # warm-up is 8 s and the step 2 s.
    scripts = [
        # Scale out, out again before the first warm-up ends, then in.
        [(0.0, Allocation(3)), (4.0, Allocation(7)), (30.0, Allocation(2))],
        # Serves nothing until late.
        [(40.0, Allocation(5))],
        [(0.0, Allocation(10))],
        # Large to extra-large and back, each switch mid-warm-up.
        [
            (0.0, Allocation(5, LARGE)),
            (6.0, Allocation(5, EXTRA_LARGE)),
            (10.0, Allocation(5, LARGE)),
        ],
        # Re-deploying the running allocation changes nothing.
        [(0.0, Allocation(2, EXTRA_LARGE)), (2.0, Allocation(2, EXTRA_LARGE))],
        [(20.0, Allocation(4, EXTRA_LARGE)), (22.0, Allocation(1, LARGE))],
    ]
    families = [
        (fleet_observer_scaleout(out), out, observe_scaleout),
        (fleet_observer_scaleup(up), up, observe_scaleup),
    ]
    step = 2.0
    for k in range(40):
        t = k * step
        for setup, script in zip(out + up, scripts):
            for at, allocation in script:
                if at == t:
                    setup.production.apply(allocation, t)
        for observer, setups, observe in families:
            block = np.empty((len(observer.names), len(setups)))
            workloads = [s.trace.workload_at(t) for s in setups]
            observer.fill_rows(
                t,
                np.array([w.volume for w in workloads]),
                np.array([w.demand_units for w in workloads]),
                block,
            )
            for j, setup in enumerate(setups):
                workload = setup.trace.workload_at(t)
                expected = observe(setup)(
                    StepContext(t=t, workload=workload, hour=0, day=0)
                )
                assert block[:, j].tolist() == [
                    expected[name] for name in observer.names
                ], (t, j)


#: A step shorter than a contended queue's backlog, so a queue-delayed
#: deployment waits several steps before it lands.
SHORT_STEP = 10.0


def record_visits(monkeypatch):
    """Per wave: ``(t, lanes holding a queue-delayed deployment as the
    wave starts, lanes the wave visited)``, plus the outcome of every
    idle lane the landing pass handled (``True`` when the pass left it
    with its deployment landed)."""
    waves, landings = [], []
    visited: set[int] = set()
    wave = FleetEngine._batched_adapt_wave
    land = FleetEngine._land_deployments
    begin = DejaVuManager.begin_batched_adapt

    def spy_wave(self, t, stable, workloads):
        pending = {
            id(c) for c in self._table.controllers if c.pending_deployment
        }
        visited.clear()
        result = wave(self, t, stable, workloads)
        waves.append((t, pending, set(visited)))
        return result

    def spy_land(self, t, idle):
        controllers = [self._table.controllers[k] for k in idle]
        had = [c.pending_deployment is not None for c in controllers]
        land(self, t, idle)
        for controller, pending in zip(controllers, had):
            visited.add(id(controller))
            landings.append(pending and controller.pending_deployment is None)

    def spy_begin(self, t, workload):
        visited.add(id(self))
        return begin(self, t, workload)

    monkeypatch.setattr(FleetEngine, "_batched_adapt_wave", spy_wave)
    monkeypatch.setattr(FleetEngine, "_land_deployments", spy_land)
    monkeypatch.setattr(DejaVuManager, "begin_batched_adapt", spy_begin)
    return waves, landings


def run_contended(n_lanes, hours, **fleet):
    lanes, queue, managers = build_fleet(
        n_lanes, config=DejaVuConfig(), slots=1, **fleet
    )
    engine = FleetEngine(lanes, step_seconds=SHORT_STEP, profiling_queue=queue)
    engine.run(hours * HOUR)
    return queue


def test_fifo_queue_delayed_lanes_sleep_until_their_deployment_lands(
    monkeypatch,
):
    """One FIFO slot, eight lanes, a 10-second step: each hourly check
    queues behind its peers for up to 70 s.  A FIFO grant never moves,
    so the landing pass visits a waiting lane once, on the step its
    deployment lands, not on every step in between."""
    waves, landings = record_visits(monkeypatch)
    run_contended(8, 2)
    landed = sum(landings)
    # Lanes wait several steps (the sleep has something to skip) ...
    assert max(len(pending) for _t, pending, _v in waves) >= 4
    assert landed >= 8
    # ... and every idle visit lands a deployment.
    assert len(landings) == landed


def test_priority_market_visits_queue_delayed_lanes_every_step(monkeypatch):
    """A priority projection can be revised or evicted by any later
    bid, so a lane holding a queue-delayed deployment is visited on
    every step until it lands."""
    waves, _landings = record_visits(monkeypatch)
    run_contended(8, 2, queue_policy="priority")
    waiting = [(t, pending, seen) for t, pending, seen in waves if pending]
    assert sum(len(pending) for _t, pending, _s in waiting) >= 16
    for t, pending, seen in waiting:
        assert pending <= seen, t


#: One FIFO slot: the first outage holds the hour-1 checks' signatures
#: until it ends, so they stack up to 70 s behind it; the second opens
#: while the later ones are still waiting and revokes them.
QUEUED_OUTAGES = (
    (HOUR - 5.0, HOUR + 100.0, None),
    (HOUR + 125.0, HOUR + 200.0, None),
)


def test_fifo_lanes_wake_when_an_outage_window_opens(monkeypatch):
    """A FIFO lane sleeps towards its deployment only until the next
    outage window: on the step that window opens, every lane still
    waiting is visited (and finds its grant revoked)."""
    waves, _landings = record_visits(monkeypatch)
    queue = run_contended(8, 2, outages=QUEUED_OUTAGES)
    opening = min(t for t, _p, _s in waves if t >= HOUR + 125.0)
    ((pending, seen),) = [(p, s) for t, p, s in waves if t == opening]
    assert len(pending) >= 4
    assert pending <= seen
    assert queue.revoked >= 4
    # Before the window the waiting lanes slept.
    before = [(p, s) for t, p, s in waves if HOUR + 100.0 < t < opening]
    assert any(p - s for p, s in before)


def count_trace_evaluations(monkeypatch):
    calls = []
    workload_at = LoadTrace.workload_at

    def counting(self, t):
        calls.append(t)
        return workload_at(self, t)

    monkeypatch.setattr(LoadTrace, "workload_at", counting)
    return calls


def test_trace_workloads_are_evaluated_once_per_trace_hour(monkeypatch):
    """A lane whose ``workload_fn`` is its trace re-evaluates on the
    first step of each hour; a plain callable (here the trace's bound
    ``workload_at``) runs every step.  Both record the same series."""
    calls = count_trace_evaluations(monkeypatch)
    n_lanes, hours = 4, 3

    def run(plain_callable):
        lanes, queue, _managers = build_fleet(
            n_lanes, config=DejaVuConfig(), slots=8 * n_lanes
        )
        if plain_callable:
            for lane in lanes:
                lane.workload_fn = lane.workload_fn.workload_at
        engine = FleetEngine(lanes, step_seconds=STEP, profiling_queue=queue)
        calls.clear()
        result = engine.run(hours * HOUR)
        return result, len(calls)

    hourly, hourly_calls = run(False)
    per_step, per_step_calls = run(True)
    assert hourly_calls == n_lanes * hours
    assert per_step_calls == n_lanes * hourly.n_steps
    for name in hourly.series_names():
        np.testing.assert_array_equal(
            hourly.matrix(name), per_step.matrix(name), strict=True
        )


def test_trace_refresh_follows_the_hour_not_a_tolerance(monkeypatch):
    """A run starting a hair before an hour boundary evaluates its
    first step in hour 0 and its second in hour 1: the refresh follows
    the trace's own ``int(t // HOUR)``, so no step reads a neighbouring
    hour's workload."""
    calls = count_trace_evaluations(monkeypatch)
    lanes, queue, _managers = build_fleet(2, config=DejaVuConfig(), slots=16)
    engine = FleetEngine(lanes, step_seconds=STEP, profiling_queue=queue)
    start = HOUR - 1e-10
    result = engine.run(3 * STEP, start=start)
    assert [int(t // HOUR) for t in result.times] == [0, 1, 1]
    assert sorted(calls) == [start, start, start + STEP, start + STEP]
    loads = result.matrix("load")
    for column, lane in enumerate(result.lanes_recording("load")):
        trace = lanes[lane].workload_fn
        assert loads[:, column].tolist() == [
            trace.workload_at(t).volume for t in result.times
        ]

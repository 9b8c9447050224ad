"""Equivalence: a 1-lane fleet reproduces the legacy engine bit-for-bit,
and the batched control plane reproduces the scalar fleet path.

``SimulationEngine.run`` is a thin wrapper over a one-lane
:class:`FleetEngine`.  These tests pin the refactor down: for every
controller family (DejaVu, Autopilot, RightScale, Overprovision) the
wrapper and a directly-driven one-lane fleet must produce series that
are bit-identical to a reference loop implementing the seed engine's
semantics (per-step: workload -> controller -> observe -> record).

The batched-control-plane tests pin the other axis: a mixed 8-lane
fleet carrying all four controller families produces **bit-identical
FleetResult blocks and adaptation events** under ``batched=True`` and
``batched=False`` — including under a contended profiling queue, whose
per-lane request sequence both paths reproduce.  (The one documented
divergence: when interference-escalation probes contend with *other
lanes'* signature collections in the same wave, the two paths produce
different — equally valid — FIFO schedules; the host-coupled studies
exercise that regime, this test pins the exact-equivalence one.)

Each run gets a freshly built setup so no provider/service/RNG state
leaks between the compared executions; determinism comes from the
seeded substrates.
"""

import numpy as np
import pytest

from repro.baselines.autopilot import Autopilot
from repro.baselines.overprovision import Overprovision
from repro.baselines.rightscale import RightScale
from repro.experiments.setup import build_scaleout_setup, observe_scaleout
from repro.sim.clock import HOUR, SECONDS_PER_DAY
from repro.sim.engine import SimulationEngine, StepContext
from repro.sim.fleet import FleetEngine, FleetLane
from repro.sim.result import SimulationResult, TimeSeries

DURATION = 3 * HOUR
STEP = 600.0


def reference_run(
    workload_fn, controller, observe_fn, step_seconds, label, duration
) -> SimulationResult:
    """The seed repo's SimulationEngine.run loop, verbatim semantics:
    a running sum of steps (exact here, where every step is a whole
    number of seconds), with each step's samples appended to per-series
    lists and the result built once at the end."""
    now = 0.0
    samples: dict[str, tuple[list[float], list[float]]] = {}
    end = 0.0 + duration
    while now < end:
        workload = workload_fn(now)
        ctx = StepContext(
            t=now,
            workload=workload,
            hour=int(now // HOUR),
            day=int(now // SECONDS_PER_DAY),
        )
        controller.on_step(ctx)
        for name, value in observe_fn(ctx).items():
            times, values = samples.setdefault(name, ([], []))
            times.append(float(now))
            values.append(float(value))
        now += step_seconds
    return SimulationResult(
        label=label,
        series={
            name: TimeSeries(name, times, values)
            for name, (times, values) in samples.items()
        },
    )


def build_policy(policy: str):
    """A fresh (workload_fn, controller, observe_fn) triple per call."""
    setup = build_scaleout_setup(seed=0)
    learning_day = setup.trace.hourly_workloads(day=0)
    if policy == "dejavu":
        setup.manager.learn(learning_day)
        controller = setup.manager
    elif policy == "autopilot":
        controller = Autopilot(setup.production, setup.tuner)
        controller.learn_schedule(learning_day)
    elif policy == "rightscale":
        controller = RightScale(setup.production, seed=7)
    elif policy == "overprovision":
        controller = Overprovision(setup.production)
    else:
        raise ValueError(policy)
    return setup.trace.workload_at, controller, observe_scaleout(setup)


def assert_bit_identical(a: SimulationResult, b: SimulationResult) -> None:
    assert set(a.series) == set(b.series)
    assert a.series, "equivalence over an empty result proves nothing"
    for name in a.series:
        sa, sb = a.series[name], b.series[name]
        np.testing.assert_array_equal(sa.times, sb.times, strict=True)
        np.testing.assert_array_equal(sa.values, sb.values, strict=True)


POLICIES = ("dejavu", "autopilot", "rightscale", "overprovision")


@pytest.mark.parametrize("policy", POLICIES)
def test_wrapper_matches_reference(policy):
    workload_fn, controller, observe_fn = build_policy(policy)
    expected = reference_run(
        workload_fn, controller, observe_fn, STEP, policy, DURATION
    )

    workload_fn, controller, observe_fn = build_policy(policy)
    engine = SimulationEngine(
        workload_fn, controller, observe_fn, step_seconds=STEP, label=policy
    )
    actual = engine.run(DURATION)

    assert actual.label == policy
    assert_bit_identical(expected, actual)


@pytest.mark.parametrize("policy", POLICIES)
def test_one_lane_fleet_matches_reference(policy):
    workload_fn, controller, observe_fn = build_policy(policy)
    expected = reference_run(
        workload_fn, controller, observe_fn, STEP, policy, DURATION
    )

    workload_fn, controller, observe_fn = build_policy(policy)
    fleet = FleetEngine(
        [FleetLane(workload_fn, controller, observe_fn, label=policy)],
        step_seconds=STEP,
    )
    actual = fleet.run(DURATION).lane_result(0)

    assert_bit_identical(expected, actual)


# ----------------------------------------------------------------------
# Batched control plane vs scalar fleet path (the tentpole's pin)
# ----------------------------------------------------------------------


def build_mixed_fleet(profiling_slots: int | None, queue_policy: str = "fifo"):
    """An 8-lane mixed fleet exercising all four controller families.

    Lane layout: DejaVu leaders for each service family, DejaVu
    adoptees sharing their trained models (the batched groups), and the
    three baselines.  Rebuilt from scratch per call so batched and
    scalar runs start from identical state.  ``queue_policy`` selects
    the shared queue's admission discipline (every request this fleet
    issues bids at the same priority class, so the two policies are in
    the equivalence regime).
    """
    from repro.core.repository import AllocationRepository
    from repro.experiments.setup import (
        build_scaleup_setup,
        fleet_observer_scaleout,
        fleet_observer_scaleup,
        observe_scaleup,
    )
    from repro.sim.profiling_queue import ProfilingQueue

    out_repo = AllocationRepository()
    up_repo = AllocationRepository()
    out_setups = [
        build_scaleout_setup(
            repository=out_repo, trace_seed=i, seed=2 * i
        )
        for i in range(5)
    ]
    up_setups = [
        build_scaleup_setup(
            repository=up_repo, trace_seed=10 + i, seed=20 + 2 * i
        )
        for i in range(3)
    ]
    out_setups[0].manager.learn(out_setups[0].trace.hourly_workloads(day=0))
    up_setups[0].manager.learn(up_setups[0].trace.hourly_workloads(day=0))
    for setup in out_setups[1:3]:
        setup.manager.adopt_trained_state(out_setups[0].manager)
    up_setups[1].manager.adopt_trained_state(up_setups[0].manager)

    out_observer = fleet_observer_scaleout(out_setups)
    up_observer = fleet_observer_scaleup(up_setups)

    def out_lane(i, controller, label):
        return FleetLane(
            workload_fn=out_setups[i].trace,
            controller=controller,
            observe_fn=observe_scaleout(out_setups[i]),
            label=label,
            observe_batch=out_observer,
        )

    def up_lane(i, controller, label):
        return FleetLane(
            workload_fn=up_setups[i].trace,
            controller=controller,
            observe_fn=observe_scaleup(up_setups[i]),
            label=label,
            observe_batch=up_observer,
        )

    def never_profiles(controller):
        # The baselines never profile online: on a queued fleet they
        # accept the shared queue and never charge it.
        controller.attach_profiling_queue = lambda queue: None
        return controller

    autopilot = Autopilot(out_setups[3].production, out_setups[3].tuner)
    autopilot.learn_schedule(out_setups[3].trace.hourly_workloads(day=0))
    rightscale = RightScale(out_setups[4].production, seed=7)
    overprovision = Overprovision(up_setups[2].production)
    lanes = [
        out_lane(0, out_setups[0].manager, "dejavu-out-leader"),
        up_lane(0, up_setups[0].manager, "dejavu-up-leader"),
        out_lane(1, out_setups[1].manager, "dejavu-out-a"),
        up_lane(1, up_setups[1].manager, "dejavu-up-a"),
        out_lane(2, out_setups[2].manager, "dejavu-out-b"),
        out_lane(3, never_profiles(autopilot), "autopilot"),
        out_lane(4, never_profiles(rightscale), "rightscale"),
        up_lane(2, never_profiles(overprovision), "overprovision"),
    ]
    queue = (
        ProfilingQueue(
            slots=profiling_slots,
            service_seconds=10.0,
            queue_policy=queue_policy,
        )
        if profiling_slots is not None
        else None
    )
    managers = [
        out_setups[0].manager,
        up_setups[0].manager,
        out_setups[1].manager,
        up_setups[1].manager,
        out_setups[2].manager,
    ]
    providers = [s.provider for s in out_setups] + [s.provider for s in up_setups]
    return lanes, queue, managers, providers


@pytest.mark.parametrize(
    "profiling_slots",
    [None, 1, 5],
    ids=["no-queue", "contended-queue", "uncontended-queue"],
)
def test_batched_path_matches_scalar_path(profiling_slots):
    results = {}
    events = {}
    stats = {}
    meters = {}
    for batched in (True, False):
        lanes, queue, managers, providers = build_mixed_fleet(profiling_slots)
        engine = FleetEngine(
            lanes,
            step_seconds=STEP,
            profiling_queue=queue,
            batched=batched,
        )
        results[batched] = engine.run(6 * HOUR)
        events[batched] = [list(m.adaptation_events) for m in managers]
        stats[batched] = [
            (m.repository.stats.hits, m.repository.stats.misses)
            for m in managers
        ]
        meters[batched] = [
            (p.meter.total_dollars, dict(p.meter.instance_seconds))
            for p in providers
        ]

    batched_result, scalar_result = results[True], results[False]
    assert batched_result.schemas == scalar_result.schemas
    assert batched_result.lane_schemas == scalar_result.lane_schemas
    assert batched_result.series_names() == scalar_result.series_names()
    assert batched_result.n_steps > 0
    for name in batched_result.series_names():
        np.testing.assert_array_equal(
            batched_result.matrix(name), scalar_result.matrix(name),
            strict=True, err_msg=name,
        )
    # Every DejaVu lane made the exact same decisions.
    assert events[True] == events[False]
    assert any(events[True])  # adaptations actually happened
    assert stats[True] == stats[False]
    # Billing too: the fast observation path settles lazily but must
    # charge every lane's meter what per-step settlement would have.
    # Instance-seconds are exact; dollar totals are summed over
    # different settlement segmentations, so they agree to rounding.
    for (b_total, b_seconds), (s_total, s_seconds) in zip(
        meters[True], meters[False]
    ):
        assert b_seconds == s_seconds
        assert b_total == pytest.approx(s_total, rel=1e-12)
    assert any(total > 0 for total, _seconds in meters[True])


def test_batched_is_the_study_default():
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    study = run_fleet_multiplexing_study(n_lanes=2, hours=2.0)
    assert study.config.batched


def test_overlapped_waves_match_serial_stepping():
    """wave_workers > 1 overlaps independent schema-group waves inside
    a step (signature collection, group classification, observation
    fills run on a thread pool) — but results are joined per step in
    submission order, so the run is bit-identical to serial."""
    results = {}
    events = {}
    stats = {}
    for wave_workers in (0, 4):
        lanes, queue, managers, _providers = build_mixed_fleet(
            profiling_slots=8
        )
        engine = FleetEngine(
            lanes,
            step_seconds=STEP,
            profiling_queue=queue,
            batched=True,
            wave_workers=wave_workers,
        )
        results[wave_workers] = engine.run(6 * HOUR)
        events[wave_workers] = [list(m.adaptation_events) for m in managers]
        stats[wave_workers] = [
            (m.repository.stats.hits, m.repository.stats.misses)
            for m in managers
        ]

    serial, overlapped = results[0], results[4]
    assert overlapped.schemas == serial.schemas
    assert overlapped.lane_schemas == serial.lane_schemas
    assert overlapped.series_names() == serial.series_names()
    assert overlapped.n_steps > 0
    for name in serial.series_names():
        np.testing.assert_array_equal(
            overlapped.matrix(name), serial.matrix(name),
            strict=True, err_msg=name,
        )
    assert events[4] == events[0]
    assert any(events[0])
    assert stats[4] == stats[0]


def test_wave_workers_validated():
    lanes, queue, _managers, _providers = build_mixed_fleet(
        profiling_slots=8
    )
    with pytest.raises(ValueError, match="wave_workers"):
        FleetEngine(
            lanes,
            step_seconds=STEP,
            profiling_queue=queue,
            wave_workers=-1,
        )


# ----------------------------------------------------------------------
# Priority admission in the equivalence regime (the economy's pin)
# ----------------------------------------------------------------------
#
# The profiling economy's contract: with every request bidding the same
# priority class and watermarks disabled, ``queue_policy="priority"``
# degenerates to FIFO *bit-for-bit* — same grants, same stats, same
# fleet series.  This mixed fleet is naturally in that regime: the
# managers charge periodic adaptations at PRIORITY_ADAPTATION, and with
# default configs there are no escalation probes (``adapt_on_violation``
# off), no relearn sweeps, and no routine re-signature stream to bid a
# different class.  The tests below assert that flatness rather than
# assuming it.


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_flat_priority_fleet_matches_fifo_fleet(batched):
    """Scalar/batched engine paths: fifo vs priority, grant-for-grant."""
    from repro.sim.profiling_queue import PRIORITY_ADAPTATION

    results = {}
    events = {}
    queues = {}
    for queue_policy in ("fifo", "priority"):
        lanes, queue, managers, _providers = build_mixed_fleet(
            1, queue_policy=queue_policy
        )
        engine = FleetEngine(
            lanes,
            step_seconds=STEP,
            profiling_queue=queue,
            batched=batched,
        )
        results[queue_policy] = engine.run(6 * HOUR)
        events[queue_policy] = [list(m.adaptation_events) for m in managers]
        queues[queue_policy] = queue

    fifo_q, prio_q = queues["fifo"], queues["priority"]
    # The regime must hold or the equivalence claim is vacuous: every
    # bid at one class, real contention, nothing shed or evicted.
    assert all(g.priority == PRIORITY_ADAPTATION for g in prio_q.grants)
    assert fifo_q.mean_wait_seconds > 0.0
    assert prio_q.evicted == 0 and prio_q.shed == 0

    def grant_tuples(queue):
        return [
            (g.outcome, g.kind, g.requested_at, g.start_at, g.finish_at)
            for g in queue.grants
        ]

    assert grant_tuples(prio_q) == grant_tuples(fifo_q)
    assert prio_q.rejected == fifo_q.rejected
    assert prio_q.max_depth == fifo_q.max_depth
    assert prio_q.busy_seconds == fifo_q.busy_seconds
    assert prio_q.mean_wait_seconds == fifo_q.mean_wait_seconds
    assert prio_q.max_wait_seconds == fifo_q.max_wait_seconds

    fifo_result, prio_result = results["fifo"], results["priority"]
    assert prio_result.series_names() == fifo_result.series_names()
    assert prio_result.n_steps > 0
    for name in fifo_result.series_names():
        np.testing.assert_array_equal(
            prio_result.matrix(name), fifo_result.matrix(name),
            strict=True, err_msg=name,
        )
    assert events["priority"] == events["fifo"]
    assert any(events["fifo"])


@pytest.mark.parametrize("shards", [1, 2], ids=["merged-1", "sharded-2"])
def test_flat_priority_study_matches_fifo_study(shards):
    """Study/sharded path: fifo vs priority on the contended sweep."""
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    studies = {
        queue_policy: run_fleet_multiplexing_study(
            n_lanes=8,
            mix="mixed",
            hours=6.0,
            profiling_slots=1,
            queue_policy=queue_policy,
            shards=shards,
            workers=0,
        )
        for queue_policy in ("fifo", "priority")
    }
    fifo, prio = studies["fifo"], studies["priority"]
    assert fifo.config.queue_policy == "fifo"
    assert prio.config.queue_policy == "priority"
    # Honesty guards: contention is real, and nothing in a default
    # config bids outside the flat class (no escalations, no relearns,
    # so nothing to evict or shed).
    assert fifo.mean_queue_wait_seconds > 0.0
    assert fifo.interference_escalations == 0
    assert prio.evicted_profiles == 0 and prio.shed_profiles == 0

    assert prio.n_steps == fifo.n_steps
    assert prio.accepted_profiles == fifo.accepted_profiles
    assert prio.rejected_profiles == fifo.rejected_profiles
    assert prio.deferred_adaptations == fifo.deferred_adaptations
    assert prio.mean_queue_wait_seconds == fifo.mean_queue_wait_seconds
    assert prio.max_queue_wait_seconds == fifo.max_queue_wait_seconds
    assert prio.max_queue_depth == fifo.max_queue_depth
    assert prio.profiler_utilization == fifo.profiler_utilization
    assert prio.violation_fraction == fifo.violation_fraction
    assert prio.fleet_hourly_cost == fifo.fleet_hourly_cost
    assert prio.lane_events == fifo.lane_events
    assert any(prio.lane_events)
    assert prio.result.schemas == fifo.result.schemas
    assert prio.result.n_steps > 0
    for name in fifo.result.series_names():
        np.testing.assert_array_equal(
            prio.result.matrix(name), fifo.result.matrix(name),
            strict=True, err_msg=f"shards={shards}:{name}",
        )


# ----------------------------------------------------------------------
# Host-coupled fleets: placement policies + allocation-aware demand
# ----------------------------------------------------------------------


HOSTED = dict(
    n_lanes=4,
    mix="mixed",
    hours=8.0,
    lane_seed_stride=0,
    seed=0,
    n_hosts=2,
    host_capacity_units=5.0,
    profiling_slots=4,  # uncontended: the exact-equivalence regime
)


@pytest.mark.parametrize(
    "placement", ["round_robin", "block", "first_fit_decreasing", "best_fit"]
)
def test_batched_matches_scalar_under_every_placement(placement):
    """Batched == scalar stays bit-identical with a HostMap and the
    allocation-aware demand footprint, under every placement policy."""
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    results = {
        batched: run_fleet_multiplexing_study(
            placement=placement, batched=batched, **HOSTED
        )
        for batched in (True, False)
    }
    batched, scalar = results[True], results[False]
    assert batched.config.placement == scalar.config.placement == placement
    # The coupling must actually fire, or this proves nothing.
    assert batched.peak_host_theft > 0.0
    assert batched.result.n_steps > 0
    assert batched.result.schemas == scalar.result.schemas
    for name in batched.result.series_names():
        np.testing.assert_array_equal(
            batched.result.matrix(name), scalar.result.matrix(name),
            strict=True, err_msg=f"{placement}:{name}",
        )
    assert batched.lane_events == scalar.lane_events
    assert any(batched.lane_events)
    assert batched.mean_host_theft == scalar.mean_host_theft
    assert batched.interference_escalations == scalar.interference_escalations


def test_batched_matches_scalar_under_host_faults():
    """The fault subsystem lives below the scalar/batched fork: a
    scripted host death (evacuation, blackout theft, recovery) must
    leave the two paths bit-identical, fault counters included."""
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    # Keep the queue uncontended even when the fault-driven theft makes
    # every lane's adaptation fire interference probes in the same step
    # (4 adapts + 5 probes at the hour mark): exact equivalence is the
    # uncontended regime, and contention ordering is charged per-lane
    # by the scalar path but per-wave by the batched path.
    faulted = dict(
        HOSTED, profiling_slots=12, faults="host:0@25+18,blackout=300"
    )
    results = {
        batched: run_fleet_multiplexing_study(batched=batched, **faulted)
        for batched in (True, False)
    }
    batched, scalar = results[True], results[False]
    # The honesty guards: the host really died and tenants really moved
    # (or were degraded in place), or the equality proves nothing.
    assert scalar.host_failures == 1
    assert scalar.host_recoveries == 1
    assert scalar.evacuations + scalar.unplaced_evacuations > 0
    assert batched.host_failures == scalar.host_failures
    assert batched.host_recoveries == scalar.host_recoveries
    assert batched.evacuations == scalar.evacuations
    assert batched.unplaced_evacuations == scalar.unplaced_evacuations
    assert batched.peak_host_theft == scalar.peak_host_theft
    assert batched.mean_host_theft == scalar.mean_host_theft
    assert batched.violation_fraction == scalar.violation_fraction
    assert batched.result.schemas == scalar.result.schemas
    assert batched.result.n_steps > 0
    for name in batched.result.series_names():
        np.testing.assert_array_equal(
            batched.result.matrix(name), scalar.result.matrix(name),
            strict=True, err_msg=name,
        )
    assert batched.lane_events == scalar.lane_events
    assert any(batched.lane_events)


def test_batched_matches_scalar_under_forecast_placement():
    """The forecast placement estimate is a pure function of the trace,
    resolved before the scalar/batched fork: both paths must pack — and
    therefore run — identically."""
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    results = {
        batched: run_fleet_multiplexing_study(
            placement="first_fit_decreasing",
            placement_demand="forecast",
            batched=batched,
            **HOSTED,
        )
        for batched in (True, False)
    }
    batched, scalar = results[True], results[False]
    assert (
        batched.config.placement_demand
        == scalar.config.placement_demand
        == "forecast"
    )
    assert batched.result.n_steps > 0
    assert batched.host_hours_on == scalar.host_hours_on > 0.0
    assert batched.mean_hosts_on == scalar.mean_hosts_on
    for name in batched.result.series_names():
        np.testing.assert_array_equal(
            batched.result.matrix(name), scalar.result.matrix(name),
            strict=True, err_msg=name,
        )
    assert batched.lane_events == scalar.lane_events


def test_batched_matches_scalar_under_consolidation():
    """Consolidation drains run below the scalar/batched fork; the
    blackouts they charge must leave the two paths bit-identical.  The
    queue is kept uncontended (see the faults test above): contention
    ordering is charged per-lane by the scalar path but per-wave by the
    batched path, which is the documented, pre-existing divergence
    regime — not a consolidation property."""
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
    from repro.sim.placement import MigrationPolicy

    consolidated = dict(HOSTED, profiling_slots=12)
    results = {
        batched: run_fleet_multiplexing_study(
            placement="first_fit_decreasing",
            migration=MigrationPolicy(rebalance_every=4, mode="consolidate"),
            batched=batched,
            **consolidated,
        )
        for batched in (True, False)
    }
    batched, scalar = results[True], results[False]
    # The drains really happened, or the equality proves nothing.
    assert scalar.migrations > 0
    assert batched.migrations == scalar.migrations
    assert batched.host_hours_on == scalar.host_hours_on > 0.0
    assert batched.mean_host_theft == scalar.mean_host_theft
    assert batched.violation_fraction == scalar.violation_fraction
    assert batched.result.schemas == scalar.result.schemas
    assert batched.result.n_steps > 0
    for name in batched.result.series_names():
        np.testing.assert_array_equal(
            batched.result.matrix(name), scalar.result.matrix(name),
            strict=True, err_msg=name,
        )
    assert batched.lane_events == scalar.lane_events
    assert any(batched.lane_events)


def test_wrapper_still_validates_duration():
    workload_fn, controller, observe_fn = build_policy("overprovision")
    engine = SimulationEngine(workload_fn, controller, observe_fn)
    with pytest.raises(ValueError, match="duration"):
        engine.run(0.0)


def test_wrapper_still_validates_step():
    workload_fn, controller, observe_fn = build_policy("overprovision")
    with pytest.raises(ValueError, match="step"):
        SimulationEngine(workload_fn, controller, observe_fn, step_seconds=-1.0)

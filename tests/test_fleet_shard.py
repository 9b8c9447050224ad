"""Sharded fleet sweeps: partitioning, npz persistence, exact merging.

The contract under test: a fleet cut into contiguous shards — each run
by a worker process against its own profiling environment, persisted
via ``FleetResult.to_npz`` and merged by the parent — produces the
same ``FleetResult``, per-lane rows, and per-lane adaptation-event
ordering as the single-process run, bit for bit — for non-interacting
lanes (uncontended queue, counter or legacy streams) and for
host-coupled fleets, where shards synchronize per-step demand
contributions through the cross-shard exchange before computing the
global theft pass.
"""

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from repro.core.manager import DejaVuManager
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.scenarios.gate import TIMING_METRICS
from repro.scenarios.runner import fleet_metrics
from repro.sim.exchange import DEFAULT_BARRIER_TIMEOUT_SECONDS
from repro.sim.fleet import FleetResult
from repro.sim.placement import MigrationPolicy, build_host_map
from repro.sim.shard import (
    _drain_exchange_futures,
    merge_fleet_results,
    partition_lanes,
    run_sharded,
)


def _shm_segments() -> set[str]:
    """Every entry currently in /dev/shm (empty where the platform has
    no /dev/shm to inspect): a sweep must leave no segment or named
    semaphore of any name behind."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return set()
    return {p.name for p in shm_dir.iterdir()}


def _worker_failing_after_first(spec, lane_lo, lane_hi, result_path):
    """Persists shard 0, then dies — leaves an orphan unless cleaned up."""
    if lane_lo > 0:
        raise RuntimeError("worker crashed mid-sweep")
    FleetResult(
        label="shard-0",
        lane_labels=tuple(f"svc-{i}" for i in range(lane_lo, lane_hi)),
        times=np.array([0.0]),
        matrices={"m": np.zeros((1, lane_hi - lane_lo))},
    ).to_npz(result_path)
    return {}


def _exchange_worker_crashing(spec, lane_lo, lane_hi, result_path, exchange):
    """Shard 0 publishes and waits at the barrier; every other shard
    dies first — the parent must abort the barrier (so shard 0 is not
    stuck until the timeout) and release the shared block."""
    if lane_lo > 0:
        raise RuntimeError("exchange worker crashed before the barrier")
    try:
        exchange.exchange(np.zeros(lane_hi - lane_lo))
    finally:
        exchange.close()
    return {}


def _exchange_worker_dying(spec, lane_lo, lane_hi, result_path, exchange):
    """Shard 0 persists its result and waits at the barrier; every
    other shard dies outright *holding the barrier's lock* — no
    exception, no cleanup, so the parent must neither abort the barrier
    (it would block on that lock forever) nor wait out the timeout."""
    if lane_lo > 0:
        exchange.block  # resolve the inherited barrier
        exchange._barrier._cond.acquire()
        os._exit(1)
    _worker_failing_after_first(spec, lane_lo, lane_hi, result_path)
    exchange.exchange(np.zeros(lane_hi - lane_lo))
    return {}


def _exchange_worker_stepping(spec, lane_lo, lane_hi, result_path, exchange):
    """Steps a contended global host map through the exchange for
    ``spec`` steps and persists the slice's per-step thefts."""
    from repro.sim.exchange import ShardHostView

    host_map = build_host_map("round_robin", [0.0] * exchange.n_lanes, 2, 3.0)
    view = ShardHostView(host_map, lane_lo, lane_hi, exchange)
    try:
        thefts = [
            view.apply_step(
                step * 300.0,
                [
                    1.0 + (lane * 7 + step) % 3
                    for lane in range(lane_lo, lane_hi)
                ],
            ).copy()
            for step in range(spec)
        ]
    finally:
        exchange.close()
    FleetResult(
        label="thefts",
        lane_labels=tuple(f"lane-{i}" for i in range(lane_lo, lane_hi)),
        times=np.arange(spec) * 300.0,
        matrices={"theft": np.array(thefts)},
    ).to_npz(result_path)
    return {"pid": os.getpid()}


def _fault_window_worker_crashing(spec, lane_lo, lane_hi, result_path, exchange):
    """Every worker commits a host failure at the step-1 barrier, then
    shard 1 dies *inside the fault window* — the parent must still
    abort the barrier and remove shard files (fault state must not
    perturb the crash-cleanup path)."""
    from repro.sim.exchange import ShardHostView
    from repro.sim.faults import FaultSchedule, HostFaultEvent

    host_map = build_host_map("round_robin", [0.0] * 4, 2, 10.0)
    host_map.attach_faults(
        FaultSchedule(host_faults=(HostFaultEvent(0, 1, 50),))
    )
    view = ShardHostView(host_map, lane_lo, lane_hi, exchange)
    offered = [1.0] * (lane_hi - lane_lo)
    try:
        view.apply_step(0.0, offered)
        view.apply_step(300.0, offered)  # the host dies at this barrier
        assert host_map.host_failures == 1
        if lane_lo > 0:
            raise RuntimeError("worker crashed inside the fault window")
        view.apply_step(600.0, offered)  # blocks until the abort
    finally:
        exchange.close()
    return {}

HOURS = 6.0

#: Statistics of the profiling environment, which a sharded sweep
#: multiplies: every shard owns its own queue and ``profiling_slots``
#: clone VMs, so the environment's cost (``amortized_profiling_fraction``)
#: scales with the shard count, each shard's slots sit idler
#: (``profiler_utilization``), and requests queue behind fewer lanes
#: (depth and waits).  Every other statistic is fleet-wide.
SHARD_ENVIRONMENT_METRICS = frozenset(
    {
        "profiler_utilization",
        "amortized_profiling_fraction",
        "max_queue_depth",
        "max_queue_wait_seconds",
        "mean_queue_wait_seconds",
    }
)


def assert_same_fleet(a, b):
    """``a`` (single process) and ``b`` (sharded) ran the same fleet:
    the same series, event logs and every non-timing statistic.  The
    hit rate and escalation count are equality pins too: the merge
    deduplicates each shard replica's copy of a family repository."""
    a_metrics, b_metrics = fleet_metrics(a), fleet_metrics(b)
    for name in a_metrics.keys() - TIMING_METRICS - SHARD_ENVIRONMENT_METRICS:
        assert b_metrics[name] == a_metrics[name], name
    assert a.result.lane_labels == b.result.lane_labels
    assert a.result.schemas == b.result.schemas
    assert a.result.lane_schemas == b.result.lane_schemas
    assert a.result.series_names() == b.result.series_names()
    assert a.result.n_steps > 0
    for name in a.result.series_names():
        np.testing.assert_array_equal(
            a.result.matrix(name), b.result.matrix(name),
            strict=True, err_msg=name,
        )
        assert a.result.lanes_recording(name) == b.result.lanes_recording(name)
    assert a.lane_events == b.lane_events
    assert any(a.lane_events)


class TestPartition:
    def test_even_split(self):
        assert partition_lanes(8, 2) == [range(0, 4), range(4, 8)]

    def test_remainder_goes_to_early_shards(self):
        assert partition_lanes(7, 3) == [
            range(0, 3), range(3, 5), range(5, 7),
        ]

    def test_one_shard_is_everything(self):
        assert partition_lanes(5, 1) == [range(0, 5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_lanes(0, 1)
        with pytest.raises(ValueError):
            partition_lanes(4, 0)
        with pytest.raises(ValueError, match="cannot cut"):
            partition_lanes(2, 3)


class TestNpzRoundTrip:
    def build_result(self):
        return FleetResult(
            label="rt",
            lane_labels=("a", "b", "c"),
            times=np.array([0.0, 300.0]),
            matrices={
                "latency_ms": np.array([[1.0, 2.0], [3.0, 4.0]]),
                "cost": np.array([[5.0], [6.0]]),
            },
            schemas=(("latency_ms", "cost"), ("latency_ms",)),
            lane_schemas=(0, 1, 1),
            series_lanes={"latency_ms": (0, 1, 2), "cost": (0,)},
        )

    def assert_round_trips(self, result, tmp_path):
        path = tmp_path / "result.npz"
        result.to_npz(path)
        loaded = FleetResult.from_npz(path)
        assert loaded.label == result.label
        assert loaded.lane_labels == result.lane_labels
        assert loaded.schemas == result.schemas
        assert loaded.lane_schemas == result.lane_schemas
        assert loaded.series_lanes == result.series_lanes
        np.testing.assert_array_equal(loaded.times, result.times, strict=True)
        assert loaded.series_names() == result.series_names()
        for name in result.series_names():
            np.testing.assert_array_equal(
                loaded.matrix(name), result.matrix(name), strict=True
            )
        return loaded

    def test_heterogeneous_round_trip(self, tmp_path):
        # The mismatched columns of latency_ms vs cost survive intact.
        self.assert_round_trips(self.build_result(), tmp_path)

    def test_single_row_round_trip(self, tmp_path):
        result = FleetResult(
            label="one",
            lane_labels=("a", "b"),
            times=np.array([0.0]),
            matrices={"m": np.array([[1.5, 2.5]])},
        )
        loaded = self.assert_round_trips(result, tmp_path)
        series = loaded.lane_series("m", 1)
        assert len(series) == 1
        assert series.values.tolist() == [2.5]
        assert series.integrate() == 0.0  # step-hold of a single sample

    def test_empty_round_trip(self, tmp_path):
        result = FleetResult(
            label="empty",
            lane_labels=("a",),
            times=np.empty(0),
            matrices={"m": np.empty((0, 1))},
            schemas=(("m",),),
            lane_schemas=(0,),
            series_lanes={"m": (0,)},
        )
        loaded = self.assert_round_trips(result, tmp_path)
        series = loaded.lane_series("m", 0)
        assert len(series) == 0
        assert list(series) == []
        assert series.integrate() == 0.0
        with pytest.raises(ValueError, match="empty"):
            series.mean()

    def test_real_mixed_fleet_round_trip(self, tmp_path):
        study = run_fleet_multiplexing_study(n_lanes=4, hours=2.0, mix="mixed")
        path = tmp_path / "fleet.npz"
        study.result.to_npz(path)
        loaded = FleetResult.from_npz(path)
        assert loaded.schemas == study.result.schemas
        for lane in range(4):
            schema, rows = loaded.lane_block(lane)
            _schema, expected = study.result.lane_block(lane)
            assert schema == _schema
            np.testing.assert_array_equal(rows, expected, strict=True)

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        np.savez(
            path,
            meta_json=np.array(json.dumps({"version": 99})),
            times=np.empty(0),
        )
        with pytest.raises(ValueError, match="version"):
            FleetResult.from_npz(path)


class TestMerge:
    def test_merge_homogeneous_parts(self):
        parts = [
            FleetResult(
                label=f"shard-{k}",
                lane_labels=(f"svc-{2 * k}", f"svc-{2 * k + 1}"),
                times=np.array([0.0, 60.0]),
                matrices={"m": np.array([[k, k + 10.0], [k + 1, k + 11.0]])},
            )
            for k in range(2)
        ]
        merged = merge_fleet_results(parts, label="fleet")
        assert merged.lane_labels == ("svc-0", "svc-1", "svc-2", "svc-3")
        assert merged.lanes_recording("m") == (0, 1, 2, 3)
        np.testing.assert_array_equal(
            merged.matrix("m"),
            np.array([[0.0, 10.0, 1.0, 11.0], [1.0, 11.0, 2.0, 12.0]]),
        )

    def test_merge_deduplicates_schemas(self):
        def part(k, schema):
            return FleetResult(
                label=f"shard-{k}",
                lane_labels=(f"svc-{k}",),
                times=np.array([0.0]),
                matrices={name: np.array([[float(k)]]) for name in schema},
                schemas=(schema,),
                lane_schemas=(0,),
                series_lanes={name: (0,) for name in schema},
            )

        merged = merge_fleet_results(
            [part(0, ("a",)), part(1, ("b",)), part(2, ("a",))]
        )
        assert merged.schemas == (("a",), ("b",))
        assert merged.lane_schemas == (0, 1, 0)
        assert merged.lanes_recording("a") == (0, 2)
        assert merged.lanes_recording("b") == (1,)

    def test_merge_rejects_disagreeing_times(self):
        a = FleetResult(
            label="a", lane_labels=("x",), times=np.array([0.0]),
            matrices={"m": np.array([[1.0]])},
        )
        b = FleetResult(
            label="b", lane_labels=("y",), times=np.array([60.0]),
            matrices={"m": np.array([[1.0]])},
        )
        with pytest.raises(ValueError, match="step times"):
            merge_fleet_results([a, b])

    def test_times_mismatch_diagnostic_names_both_parts(self):
        # Mismatched step counts (a shard from a different sweep) must
        # say which parts disagree and by how much — not just "differ".
        a = FleetResult(
            label="shard-a", lane_labels=("svc-0",),
            times=np.array([0.0, 60.0]),
            matrices={"m": np.array([[1.0], [2.0]])},
        )
        b = FleetResult(
            label="shard-b", lane_labels=("svc-1",),
            times=np.array([0.0, 60.0, 120.0]),
            matrices={"m": np.array([[1.0], [2.0], [3.0]])},
        )
        with pytest.raises(ValueError) as excinfo:
            merge_fleet_results([a, b])
        message = str(excinfo.value)
        assert "shard-a" in message and "shard-b" in message
        assert "3" in message and "2" in message

    def test_merge_rejects_out_of_order_shards(self):
        # Column merging trusts part order; a swapped pair would
        # silently misalign every per-lane series, so the numeric lane
        # labels are checked for ascending global order.
        parts = [
            FleetResult(
                label=f"shard-{k}",
                lane_labels=(f"svc-{2 * k}", f"svc-{2 * k + 1}"),
                times=np.array([0.0]),
                matrices={"m": np.array([[float(k), float(k)]])},
            )
            for k in range(2)
        ]
        with pytest.raises(ValueError, match="out of global lane order"):
            merge_fleet_results([parts[1], parts[0]])

    def test_merge_rejects_duplicate_lane_labels(self):
        part = FleetResult(
            label="shard-0", lane_labels=("svc-0",), times=np.array([0.0]),
            matrices={"m": np.array([[1.0]])},
        )
        with pytest.raises(ValueError, match="duplicate lane labels"):
            merge_fleet_results([part, part])

    def test_free_form_labels_skip_the_order_check(self):
        # Hand-built results with non-numeric labels (like the ones in
        # this file) merge in whatever order they are given.
        a = FleetResult(
            label="a", lane_labels=("x",), times=np.array([0.0]),
            matrices={"m": np.array([[1.0]])},
        )
        b = FleetResult(
            label="b", lane_labels=("y",), times=np.array([0.0]),
            matrices={"m": np.array([[2.0]])},
        )
        merged = merge_fleet_results([b, a])
        assert merged.lane_labels == ("y", "x")

    def test_merge_requires_parts(self):
        with pytest.raises(ValueError):
            merge_fleet_results([])


class TestShardedStudy:
    KWARGS = dict(n_lanes=8, hours=HOURS, profiling_slots=8)

    def test_inline_shards_match_single_process(self):
        single = run_fleet_multiplexing_study(**self.KWARGS)
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, **self.KWARGS
        )
        assert sharded.shards == 2 and sharded.workers == 0
        assert_same_fleet(single, sharded)

    def test_worker_processes_match_single_process(self):
        # The real spawn path: 2 worker processes, each persisting its
        # shard via to_npz before the parent merges.
        single = run_fleet_multiplexing_study(n_lanes=4, hours=3.0,
                                              profiling_slots=4)
        sharded = run_fleet_multiplexing_study(
            n_lanes=4, hours=3.0, profiling_slots=4, shards=2, workers=2
        )
        assert_same_fleet(single, sharded)

    def test_small_pool_serves_uncoupled_shards(self):
        # Only host-coupled shards meet at a barrier; without hosts a
        # pool smaller than the shard count runs the shards in turn.
        kwargs = dict(n_lanes=4, hours=3.0, profiling_slots=4)
        single = run_fleet_multiplexing_study(**kwargs)
        sharded = run_fleet_multiplexing_study(shards=2, workers=1, **kwargs)
        assert sharded.shards == 2 and sharded.workers == 1
        assert multiprocessing.active_children() == []
        assert_same_fleet(single, sharded)

    def test_mixed_fleet_shards_match_single_process(self):
        # Shard 1 of 3 holds lanes (2, 3) — neither family leader —
        # so its lanes all adopt leaders trained in the parent.
        kwargs = dict(n_lanes=6, hours=4.0, profiling_slots=6, mix="mixed")
        single = run_fleet_multiplexing_study(**kwargs)
        sharded = run_fleet_multiplexing_study(shards=3, workers=0, **kwargs)
        assert single.learning_runs == 2
        assert_same_fleet(single, sharded)

    def test_shard_dir_keeps_npz_files(self, tmp_path):
        run_fleet_multiplexing_study(
            n_lanes=4,
            hours=2.0,
            shards=2,
            workers=0,
            shard_dir=str(tmp_path),
        )
        files = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert files == ["shard_000.npz", "shard_001.npz"]
        part = FleetResult.from_npz(tmp_path / "shard_000.npz")
        assert part.n_lanes == 2

    def test_events_preserve_per_lane_ordering(self):
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, **self.KWARGS
        )
        assert len(sharded.lane_events) == self.KWARGS["n_lanes"]
        for log in sharded.lane_events:
            assert len(log) >= 1
            times = [event[0] for event in log]
            assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError, match="shard"):
            run_fleet_multiplexing_study(n_lanes=4, shards=0)
        with pytest.raises(ValueError, match="cannot cut"):
            run_fleet_multiplexing_study(n_lanes=2, hours=1.0, shards=4)


@pytest.mark.parametrize("workers", [0, 2], ids=["threads", "spawn"])
@pytest.mark.parametrize(
    "coupled, worker, message",
    [
        (False, _worker_failing_after_first, "crashed mid-sweep"),
        (True, _exchange_worker_crashing, "before the barrier"),
    ],
    ids=["uncoupled", "coupled"],
)
def test_worker_crash_cleans_up(tmp_path, workers, coupled, worker, message):
    """One shard dies while another has persisted its result or waits
    at the exchange barrier.  In every executor mode the sweep must
    re-raise the worker's own error (not the induced barrier break),
    remove every shard file it wrote and leave no pool process or
    /dev/shm entry behind."""
    before = _shm_segments()
    with pytest.raises(RuntimeError, match=message):
        run_sharded(
            worker,
            spec=None,
            n_lanes=4,
            shards=2,
            workers=workers,
            shard_dir=str(tmp_path),
            coupled=coupled,
        )
    assert list(tmp_path.glob("*.npz")) == []
    assert _shm_segments() <= before
    assert multiprocessing.active_children() == []


def test_hard_worker_death_fails_fast(tmp_path):
    """A shard process that dies outright while its peer waits at the
    exchange barrier breaks the pool.  The sweep must raise that at
    once — not after the barrier timeout, and not block aborting a
    barrier whose lock the dead worker holds — and leave no shard
    file, worker process or /dev/shm entry behind."""
    before = _shm_segments()
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        run_sharded(
            _exchange_worker_dying,
            spec=None,
            n_lanes=4,
            shards=2,
            workers=2,
            shard_dir=str(tmp_path),
            coupled=True,
        )
    assert time.perf_counter() - start < DEFAULT_BARRIER_TIMEOUT_SECONDS / 4
    assert list(tmp_path.glob("*.npz")) == []
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


class _PeerBarrier:
    """Stands for the exchange barrier a still-running peer waits at.

    An abort releases the peer (its future fails with the induced
    ``BrokenBarrierError``).  ``poisoned`` stands for a barrier whose
    lock a dead worker holds: aborting it would block the parent."""

    def __init__(self, peer: Future, poisoned: bool) -> None:
        self.peer = peer
        self.poisoned = poisoned
        self.aborts = 0

    def abort(self) -> None:
        if self.poisoned:
            raise AssertionError("aborted a barrier a dead worker may hold")
        self.aborts += 1
        self.peer.set_exception(threading.BrokenBarrierError())


@pytest.mark.parametrize("broken_pool", [False, True], ids=["raised", "died"])
def test_only_a_raised_worker_aborts_the_barrier(broken_pool):
    # A deterministic pin of the drain's choice while a peer still
    # waits: a shard that raised aborts the barrier and its own error
    # is re-raised; a broken pool (a worker process died, perhaps
    # holding the barrier's lock) never touches the barrier — the pool
    # fails the peer itself.
    failed, peer = Future(), Future()
    peer.set_running_or_notify_cancel()
    barrier = _PeerBarrier(peer, poisoned=broken_pool)
    error = BrokenProcessPool() if broken_pool else RuntimeError("raised")
    failed.set_exception(error)
    if broken_pool:
        threading.Timer(0.1, peer.set_exception, [BrokenProcessPool()]).start()
    with pytest.raises(type(error)):
        _drain_exchange_futures([failed, peer], barrier)
    assert barrier.aborts == (0 if broken_pool else 1)


def test_coupled_spawn_sweep_starts_no_server(monkeypatch):
    """Spawned coupled shards inherit the barrier and the demand block
    from the pool initializer: no ``Manager`` server process is started,
    and the sweep still matches the thread-mode run exactly."""

    def no_manager(*args, **kwargs):
        raise AssertionError("a coupled sweep started a Manager server")

    monkeypatch.setattr(get_context("spawn"), "Manager", no_manager)
    kwargs = dict(spec=12, n_lanes=5, shards=2, coupled=True)
    threads, _, _ = run_sharded(_exchange_worker_stepping, workers=0, **kwargs)
    spawned, payloads, _ = run_sharded(
        _exchange_worker_stepping, workers=2, **kwargs
    )
    assert multiprocessing.active_children() == []
    assert os.getpid() not in {payload["pid"] for payload in payloads}
    assert threads.matrix("theft").max() > 0.0  # the hosts are contended
    np.testing.assert_array_equal(
        spawned.matrix("theft"), threads.matrix("theft"), strict=True
    )


class TestLearnOncePerFamily:
    """The parent learns each family's leader once, however the fleet
    is cut; shard slices only build, adopt and simulate."""

    KWARGS = dict(n_lanes=6, hours=3.0, profiling_slots=6)

    @pytest.mark.parametrize(
        "fields, families",
        [
            (dict(), 1),
            (dict(shards=2, workers=0), 1),
            (
                dict(
                    shards=3,
                    workers=0,
                    mix="mixed",
                    # Two sizes of each kind: four families, and shard
                    # 2 (lanes 4, 5) holds no leader.
                    demand_factors=(1.0, 1.0, 0.8, 0.8),
                ),
                4,
            ),
        ],
    )
    def test_learn_runs_once_per_family(self, monkeypatch, fields, families):
        single_fields = {
            k: v for k, v in fields.items() if k not in ("shards", "workers")
        }
        single = run_fleet_multiplexing_study(**self.KWARGS, **single_fields)
        calls = []
        learn = DejaVuManager.learn

        def counting(manager, *args, **kwargs):
            calls.append(manager)
            return learn(manager, *args, **kwargs)

        monkeypatch.setattr(DejaVuManager, "learn", counting)
        study = run_fleet_multiplexing_study(**self.KWARGS, **fields)
        assert len(calls) == families
        assert study.learning_runs == single.learning_runs == families
        assert study.tuning_invocations == single.tuning_invocations


class TestHostCoupledShards:
    """Shared hosts couple lanes *across* shards: every shard worker
    publishes its lanes' per-step demand contributions into one shared
    block, synchronizes at a step barrier, and computes the global
    theft pass locally — so theft, overload and migrations are decided
    against the whole fleet and the merge stays bit-identical.
    """

    # Two hosts at 6 capacity units under the mixed 8-lane fleet are
    # genuinely contended from hour ~7 on (mean theft ~0.19, overload
    # fraction 0.5) — without contention the equality gates below would
    # be vacuous.
    KWARGS = dict(
        n_lanes=8,
        hours=12.0,
        profiling_slots=8,
        mix="mixed",
        n_hosts=2,
        host_capacity_units=6.0,
        placement="first_fit_decreasing",
        seed=3,
    )

    def test_thread_shards_match_single_process_under_contention(self):
        single = run_fleet_multiplexing_study(**self.KWARGS)
        assert single.mean_host_theft > 0.0
        assert single.host_overload_fraction > 0.0
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, **self.KWARGS
        )
        assert sharded.shards == 2 and sharded.workers == 0
        assert_same_fleet(single, sharded)

    def test_uneven_shards_also_match(self):
        # 8 lanes over 3 shards: ranges (0-2, 3-5, 6-7) exercise the
        # slice geometry of the exchange block for unequal slices.
        single = run_fleet_multiplexing_study(**self.KWARGS)
        sharded = run_fleet_multiplexing_study(
            shards=3, workers=0, **self.KWARGS
        )
        assert_same_fleet(single, sharded)

    def test_worker_processes_match_single_process(self):
        # The real spawn path: each worker inherits the demand block
        # and the step barrier from the pool initializer.  A finished
        # sweep leaves no worker process alive and no /dev/shm entry
        # behind.
        single = run_fleet_multiplexing_study(**self.KWARGS)
        before = _shm_segments()
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=2, **self.KWARGS
        )
        assert multiprocessing.active_children() == []
        assert _shm_segments() <= before
        assert_same_fleet(single, sharded)

    def test_migrations_commit_identically_across_shards(self):
        # Round-robin spreads the heavy lanes badly enough that the
        # rebalancer actually moves one; the move must land on the same
        # host at the same step whether sharded or not.
        kwargs = dict(
            n_lanes=8,
            hours=8.0,
            profiling_slots=8,
            mix="mixed",
            n_hosts=3,
            host_capacity_units=6.0,
            placement="round_robin",
            migration=MigrationPolicy(rebalance_every=4, max_moves=2),
            seed=3,
        )
        single = run_fleet_multiplexing_study(**kwargs)
        assert single.migrations > 0
        sharded = run_fleet_multiplexing_study(shards=2, workers=0, **kwargs)
        assert_same_fleet(single, sharded)

    def test_undersized_pool_rejected(self):
        # 0 < workers < shards would deadlock at the first barrier wait.
        with pytest.raises(ValueError, match="deadlock"):
            run_fleet_multiplexing_study(shards=2, workers=1, **self.KWARGS)
        with pytest.raises(ValueError, match="deadlock"):
            run_sharded(
                _worker_failing_after_first,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=1,
                coupled=True,
            )


class TestFaultedShards(TestHostCoupledShards):
    """Fault injection across shard boundaries: the same schedule must
    produce bit-identical runs sharded or not, and a worker crash
    inside a fault window must not change the cleanup guarantees.
    """

    #: The host-coupled fleet with two scripted host deaths: host 0
    #: early (its tenants evacuate under contention), host 1 later.
    FAULTED = dict(
        TestHostCoupledShards.KWARGS,
        faults="host:0@25+18,host:1@90+12,blackout=300",
    )

    def test_faulted_shards_match_single_process(self):
        single = run_fleet_multiplexing_study(**self.FAULTED)
        # The honesty guards: hosts really died, tenants really moved
        # (or degraded), or the equality below proves nothing.
        assert single.host_failures == 2
        assert single.host_recoveries == 2
        assert single.evacuations + single.unplaced_evacuations > 0
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, **self.FAULTED
        )
        assert_same_fleet(single, sharded)

    def test_faulted_worker_processes_match_single_process(self):
        single = run_fleet_multiplexing_study(**self.FAULTED)
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=2, **self.FAULTED
        )
        assert single.host_failures == 2
        assert_same_fleet(single, sharded)

    def test_profiler_outage_also_shard_invariant(self):
        # Shard invariance only holds for an uncontended queue (each
        # shard owns its profiling environment — a background
        # re-signature stream would fill all eight slots in the single
        # run but only four per shard queue, shard-dependent
        # contention).  Hourly adapt grants are lane-local, and the 5 s
        # step puts the window start (step 1441 = t 7205) mid-flight of
        # the 10 s signature grant issued at t 7200, so every lane's
        # grant really is revoked — identically on both paths.
        kwargs = dict(
            n_lanes=8,
            hours=3.0,
            step_seconds=5.0,
            profiling_slots=8,
            mix="mixed",
            faults="profiler@1441+360,retries=2,backoff=900",
        )
        single = run_fleet_multiplexing_study(**kwargs)
        assert single.revoked_profiles > 0  # the outage actually bit
        sharded = run_fleet_multiplexing_study(shards=2, workers=0, **kwargs)
        assert_same_fleet(single, sharded)

    def test_fault_events_commit_at_their_scripted_steps(self):
        # Every step is an exchange barrier, so a host death or recovery
        # commits on its scripted step in every shard's global map, and
        # placement, migrations and thefts track a single map exactly
        # (pinned on directly driven two-shard views; the
        # SYN-host-outage gate scenario exercises the full sweep).
        from concurrent.futures import ThreadPoolExecutor

        from repro.sim.exchange import ShardHostView, make_thread_exchange
        from repro.sim.faults import FaultSchedule, HostFaultEvent

        def faulted_map():
            host_map = build_host_map(
                "round_robin", [0.0] * 4, 2, 3.0,
                migration=MigrationPolicy(rebalance_every=5, max_moves=2),
            )
            host_map.attach_faults(
                FaultSchedule(
                    host_faults=(
                        HostFaultEvent(0, 25, 7),
                        HostFaultEvent(1, 50, 4),
                    )
                )
            )
            return host_map

        offered = [2.0, 1.0, 2.0, 1.0]
        reference = faulted_map()
        expected = [
            reference.apply_step(step * 300.0, offered).copy()
            for step in range(90)
        ]
        assert reference.fault_commit_steps == [25, 32, 50, 54]
        assert reference.host_failures == reference.host_recoveries == 2

        ranges = partition_lanes(4, 2)
        handles = make_thread_exchange(4, ranges)
        views = [
            ShardHostView(faulted_map(), lanes.start, lanes.stop, handle)
            for lanes, handle in zip(ranges, handles)
        ]

        def drive(view, lanes):
            return [
                view.apply_step(
                    step * 300.0, offered[lanes.start : lanes.stop]
                ).copy()
                for step in range(90)
            ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(drive, view, lanes)
                for view, lanes in zip(views, ranges)
            ]
            thefts = [future.result() for future in futures]
        for step, row in enumerate(expected):
            assert np.array_equal(
                np.concatenate([shard[step] for shard in thefts]), row
            ), step
        for view in views:
            assert view.map.fault_commit_steps == [25, 32, 50, 54]
            assert view.map.placement == reference.placement
            assert view.map.migrations == reference.migrations
            assert np.array_equal(
                view.map.lane_migrations, reference.lane_migrations
            )

    def test_crash_inside_a_fault_window_still_cleans_up(self, tmp_path):
        # The overlap case: a worker process dies while a host is down.
        # The parent's abort-and-cleanup path must be indifferent to the
        # fault state — no orphan npz, no leaked /dev/shm entry.
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="inside the fault window"):
            run_sharded(
                _fault_window_worker_crashing,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=2,
                shard_dir=str(tmp_path),
                coupled=True,
            )
        assert list(tmp_path.glob("*.npz")) == []
        assert _shm_segments() <= before

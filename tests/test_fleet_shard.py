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

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.sim.exchange import ExchangeSpec
from repro.sim.faults import FaultSchedule, HostFaultEvent
from repro.sim.fleet import FleetResult
from repro.sim.placement import MigrationPolicy
from repro.sim.shard import (
    SHM_PREFIX,
    merge_fleet_results,
    partition_lanes,
    run_sharded,
)


class _StubMix:
    demand_per_client = 1.0


class _StubWorkload:
    """The minimal shape the offered-demand footprint reads."""

    def __init__(self, volume: float) -> None:
        self.volume = volume
        self.mix = _StubMix()


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


def _fault_window_worker_crashing(spec, lane_lo, lane_hi, result_path, exchange):
    """Every worker commits a host failure at the step-1 barrier, then
    shard 1 dies *inside the fault window* — the parent must still
    abort the barrier, unlink the shm segment and remove shard files
    (fault state must not perturb the crash-cleanup path)."""
    from repro.sim.exchange import ShardHostView
    from repro.sim.faults import FaultSchedule, HostFaultEvent
    from repro.sim.hosts import HostMap

    host_map = HostMap.spread(4, 2, 10.0)
    host_map.attach_faults(
        FaultSchedule(host_faults=(HostFaultEvent(0, 1, 50),))
    )
    view = ShardHostView(host_map, lane_lo, lane_hi, exchange)
    workloads = [_StubWorkload(1.0)] * (lane_hi - lane_lo)
    try:
        view.apply_step(0.0, workloads)
        view.apply_step(300.0, workloads)  # the host dies at this barrier
        assert host_map.host_failures == 1
        if lane_lo > 0:
            raise RuntimeError("worker crashed inside the fault window")
        view.apply_step(600.0, workloads)  # blocks until the abort
    finally:
        exchange.close()
    return {}

HOURS = 6.0


def assert_same_fleet(a, b):
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
        # A later extend keeps appending where the lane left off.
        series.extend(np.array([300.0]), np.array([3.5]))
        assert list(series) == [(0.0, 2.5), (300.0, 3.5)]

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
        series.extend(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]

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
        assert sharded.learning_runs == single.learning_runs
        assert sharded.tuning_invocations == single.tuning_invocations
        assert sharded.hit_rate == single.hit_rate
        assert sharded.violation_fraction == single.violation_fraction
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

    def test_mixed_fleet_shards_match_single_process(self):
        # Shard 1 of 3 holds lanes (2, 3) — neither family leader —
        # so phantom-leader re-derivation is exercised.
        kwargs = dict(n_lanes=6, hours=4.0, profiling_slots=6, mix="mixed")
        single = run_fleet_multiplexing_study(**kwargs)
        sharded = run_fleet_multiplexing_study(shards=3, workers=0, **kwargs)
        assert sharded.learning_runs == single.learning_runs == 2
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

    def test_failing_worker_leaves_no_orphan_npz(self, tmp_path):
        # A mid-sweep worker failure used to strand the completed
        # shards' .npz files in a caller-provided shard_dir; the sweep
        # must clean up everything it wrote before re-raising.
        with pytest.raises(RuntimeError, match="crashed mid-sweep"):
            run_sharded(
                _worker_failing_after_first,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=0,
                shard_dir=str(tmp_path),
            )
        assert list(tmp_path.glob("*.npz")) == []

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

    def assert_same_hosts(self, single, sharded):
        assert_same_fleet(single, sharded)
        assert sharded.mean_host_theft == single.mean_host_theft
        assert sharded.peak_host_theft == single.peak_host_theft
        assert (
            sharded.host_overload_fraction == single.host_overload_fraction
        )
        assert sharded.migrations == single.migrations
        assert sharded.violation_fraction == single.violation_fraction
        # Escalated entries are deduplicated across the per-shard
        # family-repository copies, so the fleet-wide count matches.
        assert (
            sharded.interference_escalations
            == single.interference_escalations
        )
        # hit_rate is an equality pin, not approximate: the merge
        # deduplicates per-replica misses on keys a tuning run stored
        # fleet-wide, so the per-shard-denominator artifact is gone.
        assert sharded.hit_rate == single.hit_rate

    def test_thread_shards_match_single_process_under_contention(self):
        single = run_fleet_multiplexing_study(**self.KWARGS)
        assert single.mean_host_theft > 0.0
        assert single.host_overload_fraction > 0.0
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, **self.KWARGS
        )
        assert sharded.shards == 2 and sharded.workers == 0
        self.assert_same_hosts(single, sharded)

    def test_uneven_shards_also_match(self):
        # 8 lanes over 3 shards: ranges (0-2, 3-5, 6-7) exercise the
        # slice geometry of the exchange block for unequal slices.
        single = run_fleet_multiplexing_study(**self.KWARGS)
        sharded = run_fleet_multiplexing_study(
            shards=3, workers=0, **self.KWARGS
        )
        self.assert_same_hosts(single, sharded)

    def test_worker_processes_match_single_process(self):
        # The real spawn path: each worker attaches the shared-memory
        # block by name and synchronizes on the manager barrier proxy.
        single = run_fleet_multiplexing_study(**self.KWARGS)
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=2, **self.KWARGS
        )
        self.assert_same_hosts(single, sharded)

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
        self.assert_same_hosts(single, sharded)

    def test_coarser_exchange_cadence_runs_and_merges(self):
        # exchange_every > 1 trades fidelity for fewer barriers; the
        # sweep must still merge cleanly and aggregate host stats.
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=0, exchange_every=3, **self.KWARGS
        )
        assert sharded.result.n_steps > 0
        assert sharded.mean_host_theft >= 0.0
        assert sharded.host_overload_fraction >= 0.0

    def test_exchange_every_requires_shards_and_hosts(self):
        with pytest.raises(ValueError, match="exchange_every"):
            run_fleet_multiplexing_study(
                n_lanes=4, hours=1.0, exchange_every=2
            )
        with pytest.raises(ValueError, match="exchange_every"):
            run_fleet_multiplexing_study(
                n_lanes=4, hours=1.0, shards=2, exchange_every=2
            )

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
                exchange=ExchangeSpec(),
            )

    def test_crashed_thread_worker_aborts_barrier_and_cleans_up(
        self, tmp_path
    ):
        # Shard 0 is blocked at the barrier when shard 1 dies; the
        # parent must abort the barrier (fast failure, not a timeout)
        # and remove every shard file.
        with pytest.raises(RuntimeError, match="before the barrier"):
            run_sharded(
                _exchange_worker_crashing,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=0,
                shard_dir=str(tmp_path),
                exchange=ExchangeSpec(),
            )
        assert list(tmp_path.glob("*.npz")) == []

    def test_crashed_worker_process_unlinks_shared_memory(self, tmp_path):
        # Same crash through the spawn pool: the parent owns the
        # /dev/shm segment and must unlink it even though the sweep
        # died mid-exchange.
        shm_dir = Path("/dev/shm")
        before = (
            {p.name for p in shm_dir.glob(f"{SHM_PREFIX}-*")}
            if shm_dir.is_dir()
            else set()
        )
        with pytest.raises(RuntimeError, match="before the barrier"):
            run_sharded(
                _exchange_worker_crashing,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=2,
                shard_dir=str(tmp_path),
                exchange=ExchangeSpec(barrier_timeout_seconds=60.0),
            )
        assert list(tmp_path.glob("*.npz")) == []
        if shm_dir.is_dir():
            after = {p.name for p in shm_dir.glob(f"{SHM_PREFIX}-*")}
            assert after <= before


class TestFaultedShards(TestHostCoupledShards):
    """Fault injection across shard boundaries: the same schedule must
    produce bit-identical runs sharded or not, commits must land only
    at exchange barriers, and a worker crash inside a fault window must
    not change the cleanup guarantees.
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
        self.assert_same_hosts(single, sharded)
        assert sharded.host_failures == single.host_failures
        assert sharded.host_recoveries == single.host_recoveries
        assert sharded.evacuations == single.evacuations
        assert (
            sharded.unplaced_evacuations == single.unplaced_evacuations
        )

    def test_faulted_worker_processes_match_single_process(self):
        single = run_fleet_multiplexing_study(**self.FAULTED)
        sharded = run_fleet_multiplexing_study(
            shards=2, workers=2, **self.FAULTED
        )
        self.assert_same_hosts(single, sharded)
        assert sharded.host_failures == single.host_failures == 2
        assert sharded.evacuations == single.evacuations

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
        assert sharded.revoked_profiles == single.revoked_profiles
        assert sharded.profiling_retries == single.profiling_retries
        assert sharded.hit_rate == single.hit_rate
        assert sharded.violation_fraction == single.violation_fraction

    def test_commits_land_only_at_exchange_barriers(self):
        # The property behind the coarser-cadence regime: with
        # exchange_every=3 the global demand vector is only coherent at
        # steps 0, 3, 6, ... — so fault events *and* migrations, both of
        # which change placement, must defer to those barriers (pinned
        # here on a directly driven single-shard view; the
        # SYN-host-outage gate scenario exercises the full sweep).
        from repro.sim.exchange import ShardHostView, make_thread_exchange
        from repro.sim.hosts import HostMap

        host_map = HostMap.spread(
            4, 2, 3.0,
            migration=MigrationPolicy(rebalance_every=5, max_moves=2),
        )
        host_map.attach_faults(
            FaultSchedule(
                host_faults=(
                    HostFaultEvent(0, 25, 7),   # off the barrier grid
                    HostFaultEvent(1, 50, 4),
                )
            )
        )
        handle = make_thread_exchange(
            4, [range(0, 4)], ExchangeSpec(exchange_every=3)
        )[0]
        view = ShardHostView(host_map, 0, 4, handle)
        workloads = [_StubWorkload(v) for v in (2.0, 1.0, 2.0, 1.0)]
        for step in range(90):
            view.apply_step(step * 300.0, workloads)
        # Every event committed, one barrier after its scripted step.
        assert host_map.fault_commit_steps == [27, 33, 51, 54]
        assert host_map.host_failures == 2
        assert all(s % 3 == 0 for s in host_map.migration_commit_steps)

    def test_crash_inside_a_fault_window_still_cleans_up(self, tmp_path):
        # The overlap case: a worker process dies while a host is down.
        # The parent's abort-and-unlink path must be indifferent to the
        # fault state — no orphan npz, no leaked /dev/shm segment.
        shm_dir = Path("/dev/shm")
        before = (
            {p.name for p in shm_dir.glob(f"{SHM_PREFIX}-*")}
            if shm_dir.is_dir()
            else set()
        )
        with pytest.raises(RuntimeError, match="inside the fault window"):
            run_sharded(
                _fault_window_worker_crashing,
                spec=None,
                n_lanes=4,
                shards=2,
                workers=2,
                shard_dir=str(tmp_path),
                exchange=ExchangeSpec(barrier_timeout_seconds=60.0),
            )
        assert list(tmp_path.glob("*.npz")) == []
        if shm_dir.is_dir():
            after = {p.name for p in shm_dir.glob(f"{SHM_PREFIX}-*")}
            assert after <= before

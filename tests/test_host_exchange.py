"""Property tests for the cross-shard demand exchange.

The invariant under test: for *any* placement, shard cut and lane
count, stepping every shard's :class:`ShardHostView` concurrently
(thread-mode exchange — the same ``DemandExchange.exchange`` code the
spawn workers run) produces exactly the per-host demand totals, theft
vectors and host statistics of a single-process :class:`HostMap` fed
the same workloads.  Exact equality, not allclose: every worker runs
the identical vectorized arithmetic over the identical global vector.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.sim.exchange import (
    DEFAULT_BARRIER_TIMEOUT_SECONDS,
    DemandExchange,
    ShardHostView,
    make_thread_exchange,
)
from repro.sim.hosts import HostMap, SimHost
from repro.sim.shard import partition_lanes
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload

STEP_SECONDS = 300.0


def make_workloads(rng, n_lanes):
    return [
        Workload(
            volume=float(rng.uniform(0.0, 900.0)),
            mix=CASSANDRA_UPDATE_HEAVY,
        )
        for _ in range(n_lanes)
    ]


def random_coupling(rng):
    """A random fleet/host geometry with real contention on most draws."""
    n_lanes = int(rng.integers(3, 17))
    shards = int(rng.integers(2, min(n_lanes, 5) + 1))
    n_hosts = int(rng.integers(1, 4))
    hosts = [
        SimHost(capacity_units=float(rng.uniform(1.0, 6.0)))
        for _ in range(n_hosts)
    ]
    placement = [
        None if rng.random() < 0.15 else int(rng.integers(0, n_hosts))
        for _ in range(n_lanes)
    ]
    return n_lanes, shards, hosts, placement


def run_sharded_steps(
    n_lanes, shards, hosts, placement, steps_workloads, capacities=None,
):
    """Step every shard's view concurrently; thefts in shard order."""
    ranges = partition_lanes(n_lanes, shards)
    handles = make_thread_exchange(n_lanes, ranges)
    views = [
        ShardHostView(
            HostMap(hosts, placement),
            lanes.start,
            lanes.stop,
            handle,
        )
        for lanes, handle in zip(ranges, handles)
    ]

    def drive(view, lanes):
        thefts = []
        for step, workloads in enumerate(steps_workloads):
            caps = (
                None
                if capacities is None
                else capacities[lanes.start : lanes.stop]
            )
            # apply_step returns a slice view of the map's in-place
            # theft vector; copy before the next step overwrites it.
            thefts.append(
                view.apply_step(
                    STEP_SECONDS * step,
                    workloads[lanes.start : lanes.stop],
                    caps,
                ).copy()
            )
        return thefts

    with ThreadPoolExecutor(max_workers=shards) as pool:
        futures = [
            pool.submit(drive, view, lanes)
            for view, lanes in zip(views, ranges)
        ]
        results = [future.result() for future in futures]
    return results, views


class TestExchangeMatchesSingleProcess:
    @pytest.mark.parametrize("seed", range(8))
    def test_thefts_totals_and_stats_match(self, seed):
        rng = np.random.default_rng(seed)
        n_lanes, shards, hosts, placement = random_coupling(rng)
        steps_workloads = [make_workloads(rng, n_lanes) for _ in range(4)]

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(STEP_SECONDS * step, workloads).copy()
            for step, workloads in enumerate(steps_workloads)
        ]

        results, views = run_sharded_steps(
            n_lanes, shards, hosts, placement, steps_workloads
        )

        # Theft vectors, re-assembled from the shard slices, are
        # bit-identical to the single-process pass at every step.
        for step in range(len(steps_workloads)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )

        # Every worker's global map accumulated the same statistics.
        for view in views:
            assert view.map.mean_theft == reference.mean_theft
            assert view.map.peak_theft == reference.peak_theft
            assert view.map.overload_fraction == reference.overload_fraction

        # Per-host totals from the shared block equal np.bincount over
        # the single-process demand vector (the block still holds the
        # final step's exchanged demands).
        block = views[0].exchange_handle.block
        ref_demands = reference._demands(steps_workloads[-1], None)
        np.testing.assert_array_equal(block, ref_demands, strict=True)
        host_index = reference._host_index
        placed = host_index >= 0
        np.testing.assert_array_equal(
            np.bincount(
                host_index[placed],
                weights=block[placed],
                minlength=len(hosts),
            ),
            np.bincount(
                host_index[placed],
                weights=ref_demands[placed],
                minlength=len(hosts),
            ),
            strict=True,
        )

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_allocation_footprint_also_matches(self, seed):
        rng = np.random.default_rng(seed)
        n_lanes, shards, hosts, placement = random_coupling(rng)
        steps_workloads = [make_workloads(rng, n_lanes) for _ in range(3)]
        capacities = [float(rng.uniform(0.5, 8.0)) for _ in range(n_lanes)]

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(
                STEP_SECONDS * step, workloads, capacities
            ).copy()
            for step, workloads in enumerate(steps_workloads)
        ]

        results, _views = run_sharded_steps(
            n_lanes,
            shards,
            hosts,
            placement,
            steps_workloads,
            capacities=capacities,
        )
        for step in range(len(steps_workloads)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )


    def test_every_step_exchanges_that_steps_demands(self):
        # Demand flips between idle and heavy on every step, so a
        # global vector even one step old would get every theft wrong;
        # the shards must still match the single map at each step.
        n_lanes, shards = 6, 3
        hosts = [SimHost(capacity_units=2.0), SimHost(capacity_units=3.0)]
        placement = [0, 1, 0, 1, 0, 1]
        idle = [
            Workload(volume=0.0, mix=CASSANDRA_UPDATE_HEAVY)
            for _ in range(n_lanes)
        ]
        heavy = [
            Workload(volume=900.0, mix=CASSANDRA_UPDATE_HEAVY)
            for _ in range(n_lanes)
        ]
        steps_workloads = [idle, heavy] * 3

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(STEP_SECONDS * step, workloads).copy()
            for step, workloads in enumerate(steps_workloads)
        ]
        # The honesty guard: idle steps steal nothing, heavy steps do.
        assert all(float(row.max()) == 0.0 for row in expected[::2])
        assert all(float(row.min()) > 0.0 for row in expected[1::2])

        results, _views = run_sharded_steps(
            n_lanes, shards, hosts, placement, steps_workloads
        )
        for step in range(len(steps_workloads)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )


class TestValidation:
    def test_handle_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            DemandExchange(
                4, 0, 2, barrier=threading.Barrier(2), timeout_seconds=0.0,
                block=np.zeros(4),
            )

    def test_thread_handles_wait_the_default_timeout(self):
        # The one barrier timeout every coupled sweep waits; a handle
        # built directly keeps the timeout it is given.
        handles = make_thread_exchange(4, partition_lanes(4, 2))
        assert [h.timeout_seconds for h in handles] == [
            DEFAULT_BARRIER_TIMEOUT_SECONDS
        ] * 2
        handle = DemandExchange(
            4, 0, 2, barrier=threading.Barrier(2), timeout_seconds=5,
            block=np.zeros(4),
        )
        assert handle.timeout_seconds == 5.0

    def test_handle_rejects_bad_slice(self):
        barrier, block = threading.Barrier(2), np.zeros(4)
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 2, 2, barrier=barrier, block=block)
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 0, 5, barrier=barrier, block=block)

    def test_handle_needs_exactly_one_backing(self):
        # A handle carries its own barrier *and* block (thread mode) or
        # neither (process mode: the worker's inherited pair); a
        # half-built handle is rejected.
        barrier = threading.Barrier(2)
        own = DemandExchange(4, 0, 2, barrier=barrier, block=np.zeros(4))
        assert not own.inherited
        assert DemandExchange(4, 0, 2).inherited
        with pytest.raises(ValueError, match="both barrier and block"):
            DemandExchange(4, 0, 2, barrier=barrier)
        with pytest.raises(ValueError, match="both barrier and block"):
            DemandExchange(4, 0, 2, block=np.zeros(4))

    def test_handle_rejects_mis_sized_block(self):
        with pytest.raises(ValueError, match="block"):
            DemandExchange(
                4, 0, 2, barrier=threading.Barrier(2), block=np.zeros(3)
            )

    def test_inherited_handle_resolves_the_installed_pair(self, monkeypatch):
        # A process-mode handle crosses the pickle boundary bare and
        # picks up what the pool initializer installed in its process.
        import pickle
        from multiprocessing import RawArray

        from repro.sim import exchange as exchange_module

        monkeypatch.setattr(exchange_module, "_INHERITED", None)
        handle = pickle.loads(pickle.dumps(DemandExchange(3, 0, 3)))
        with pytest.raises(RuntimeError, match="install_exchange"):
            handle.block
        exchange_module.install_exchange(
            threading.Barrier(1), RawArray("d", 3)
        )
        np.testing.assert_array_equal(
            handle.exchange(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
        )
        handle.close()
        assert handle._block is None and handle._barrier is None

    def test_exchange_rejects_wrong_slice_length(self):
        handles = make_thread_exchange(4, partition_lanes(4, 2))
        with pytest.raises(ValueError, match="local demands"):
            handles[0].exchange(np.zeros(3))

    def test_thread_handle_refuses_to_pickle(self):
        import pickle

        handles = make_thread_exchange(4, partition_lanes(4, 2))
        with pytest.raises(TypeError, match="process boundary"):
            pickle.dumps(handles[0])

    def test_view_rejects_mismatched_exchange_geometry(self):
        handles = make_thread_exchange(4, partition_lanes(4, 2))
        host_map = HostMap([SimHost(4.0)], [0, 0, 0, 0])
        with pytest.raises(ValueError, match="exchange covers"):
            ShardHostView(host_map, 0, 3, handles[0])

    def test_view_feed_is_the_global_lanes_feed(self):
        handles = make_thread_exchange(4, partition_lanes(4, 2))
        host_map = HostMap([SimHost(4.0)], [0, 0, 0, 0])
        view = ShardHostView(host_map, 2, 4, handles[1])
        assert view.n_lanes == 2
        assert view.feed(0) is host_map.feed(2)
        assert view.feed(1) is host_map.feed(3)
        with pytest.raises(IndexError):
            view.feed(2)

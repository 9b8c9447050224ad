"""Property tests for the cross-shard demand exchange.

The invariant under test: for *any* placement, shard cut and lane
count, stepping every shard's :class:`ShardHostView` concurrently
(thread-mode exchange — the same ``DemandExchange.exchange`` code the
spawn workers run) produces exactly the per-host demand totals, theft
vectors and host statistics of a single-process :class:`HostMap` fed
the same offered demand.  Exact equality, not allclose: every worker runs
the identical vectorized arithmetic over the identical global vector.
"""

import sys
import threading
import time
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
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY

STEP_SECONDS = 300.0


def offered_demand(volume: float) -> float:
    """The demand units ``volume`` clients of the Cassandra mix offer."""
    return volume * CASSANDRA_UPDATE_HEAVY.demand_per_client


def make_offered(rng, n_lanes):
    return [
        offered_demand(float(rng.uniform(0.0, 900.0)))
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
    n_lanes, shards, hosts, placement, steps_offered, capacities=None,
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
        for step, offered in enumerate(steps_offered):
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
                    offered[lanes.start : lanes.stop],
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
        steps_offered = [make_offered(rng, n_lanes) for _ in range(4)]

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(STEP_SECONDS * step, offered).copy()
            for step, offered in enumerate(steps_offered)
        ]

        results, views = run_sharded_steps(
            n_lanes, shards, hosts, placement, steps_offered
        )

        # Theft vectors, re-assembled from the shard slices, are
        # bit-identical to the single-process pass at every step.
        for step in range(len(steps_offered)):
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

        # The block's two halves still hold the last two steps'
        # exchanged demands, by step parity; per-host totals from the
        # final step's half equal np.bincount over the single-process
        # demand vector.
        halves = views[0].exchange_handle.block
        assert halves.shape == (2, n_lanes)
        last = len(steps_offered) - 1
        np.testing.assert_array_equal(
            halves[(last - 1) % 2],
            reference._demands(steps_offered[last - 1], None),
            strict=True,
        )
        block = halves[last % 2]
        ref_demands = reference._demands(steps_offered[last], None)
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
        steps_offered = [make_offered(rng, n_lanes) for _ in range(3)]
        capacities = [float(rng.uniform(0.5, 8.0)) for _ in range(n_lanes)]

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(
                STEP_SECONDS * step, offered, capacities
            ).copy()
            for step, offered in enumerate(steps_offered)
        ]

        results, _views = run_sharded_steps(
            n_lanes,
            shards,
            hosts,
            placement,
            steps_offered,
            capacities=capacities,
        )
        for step in range(len(steps_offered)):
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
        idle = [offered_demand(0.0)] * n_lanes
        heavy = [offered_demand(900.0)] * n_lanes
        steps_offered = [idle, heavy] * 3

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(STEP_SECONDS * step, offered).copy()
            for step, offered in enumerate(steps_offered)
        ]
        # The honesty guard: idle steps steal nothing, heavy steps do.
        assert all(float(row.max()) == 0.0 for row in expected[::2])
        assert all(float(row.min()) > 0.0 for row in expected[1::2])

        results, _views = run_sharded_steps(
            n_lanes, shards, hosts, placement, steps_offered
        )
        for step in range(len(steps_offered)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )


class SlowAfterWait:
    """One barrier party that dawdles between its wait and its copy."""

    def __init__(self, barrier, delay_seconds):
        self._barrier = barrier
        self._delay = delay_seconds
        self.waits = 0

    def wait(self, timeout=None):
        index = self._barrier.wait(timeout)
        self.waits += 1
        time.sleep(self._delay)
        return index


class TestDoubleBuffer:
    def test_slow_reader_copies_its_own_step(self):
        # The last shard sleeps after every barrier, so the others have
        # written the next step before it copies.  Every step's demands
        # are distinct, so a vector mixing two steps is caught.
        n_lanes, steps = 7, 60
        ranges = partition_lanes(n_lanes, 3)
        handles = make_thread_exchange(n_lanes, ranges)
        slow = SlowAfterWait(handles[-1]._barrier, 0.002)
        handles[-1]._barrier = slow
        demands = np.arange(steps * n_lanes, dtype=np.float64).reshape(
            steps, n_lanes
        )

        def drive(handle):
            return [
                handle.exchange(demands[step, handle.lane_lo : handle.lane_hi])
                for step in range(steps)
            ]

        # Switch threads often so the shards interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(handles)) as pool:
                results = list(pool.map(drive, handles, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for vectors in results:
            assert len(vectors) == steps
            for step, vector in enumerate(vectors):
                np.testing.assert_array_equal(
                    vector, demands[step], strict=True
                )
        # One barrier wait per exchanged step.
        assert slow.waits == steps

    def test_steps_alternate_halves(self):
        handle = make_thread_exchange(3, partition_lanes(3, 1))[0]
        for step, demands in enumerate(([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])):
            np.testing.assert_array_equal(
                handle.exchange(np.array(demands)), demands
            )
            np.testing.assert_array_equal(handle.block[step], demands)
        handle.exchange(np.array([7.0, 8.0, 9.0]))
        np.testing.assert_array_equal(
            handle.block, [[7.0, 8.0, 9.0], [4.0, 5.0, 6.0]]
        )


class TestValidation:
    def test_handle_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            DemandExchange(
                4, 0, 2, barrier=threading.Barrier(2), timeout_seconds=0.0,
                block=np.zeros((2, 4)),
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
            block=np.zeros((2, 4)),
        )
        assert handle.timeout_seconds == 5.0

    def test_handle_rejects_bad_slice(self):
        barrier, block = threading.Barrier(2), np.zeros((2, 4))
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 2, 2, barrier=barrier, block=block)
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 0, 5, barrier=barrier, block=block)

    def test_handle_needs_exactly_one_backing(self):
        # A handle carries its own barrier *and* block (thread mode) or
        # neither (process mode: the worker's inherited pair); a
        # half-built handle is rejected.
        barrier = threading.Barrier(2)
        own = DemandExchange(
            4, 0, 2, barrier=barrier, block=np.zeros((2, 4))
        )
        assert not own.inherited
        assert DemandExchange(4, 0, 2).inherited
        with pytest.raises(ValueError, match="both barrier and block"):
            DemandExchange(4, 0, 2, barrier=barrier)
        with pytest.raises(ValueError, match="both barrier and block"):
            DemandExchange(4, 0, 2, block=np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(3,), (4,), (2, 3), (8,), (4, 2)])
    def test_handle_rejects_mis_sized_block(self, shape):
        # Two halves of n_lanes values each; a one-half block is wrong.
        with pytest.raises(ValueError, match="block"):
            DemandExchange(
                4, 0, 2, barrier=threading.Barrier(2), block=np.zeros(shape)
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
        shared = RawArray("d", 6)
        exchange_module.install_exchange(threading.Barrier(1), shared)
        np.testing.assert_array_equal(
            handle.exchange(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
        )
        np.testing.assert_array_equal(
            handle.exchange(np.array([4.0, 5.0, 6.0])), [4.0, 5.0, 6.0]
        )
        # The inherited buffer is the block: step parity picks the half.
        assert handle.block.shape == (2, 3)
        np.testing.assert_array_equal(
            np.frombuffer(shared), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
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

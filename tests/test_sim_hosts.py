"""Unit and property tests for the shared-host coupling layer."""

import numpy as np
import pytest

from repro.sim.hosts import MAX_THEFT, HostInterferenceFeed, HostMap, SimHost
from repro.sim.placement import build_host_map
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


def demand(units: float) -> Workload:
    """A workload offering ``units`` capacity units of demand."""
    mix = CASSANDRA_UPDATE_HEAVY
    return Workload(volume=units / mix.demand_per_client, mix=mix)


def round_robin(n_lanes: int, n_hosts: int, capacity_units: float) -> HostMap:
    """``n_lanes`` lanes placed round-robin on ``n_hosts`` equal hosts."""
    return build_host_map(
        "round_robin", [0.0] * n_lanes, n_hosts, capacity_units
    )


class TestValidation:
    @pytest.mark.parametrize(
        "capacity", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_positive_finite_capacity_required(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            SimHost(capacity_units=capacity)

    def test_at_least_one_host(self):
        with pytest.raises(ValueError, match="host"):
            HostMap([], [])

    def test_placement_bounds_checked(self):
        with pytest.raises(ValueError, match="unknown host"):
            HostMap([SimHost(10.0)], [0, 1])

    def test_workload_count_checked(self):
        host_map = round_robin(2, 1, 10.0)
        with pytest.raises(ValueError, match="offered demands"):
            host_map.apply_step(0.0, [1.0])


class TestPlacements:
    def test_spread_round_robin(self):
        host_map = round_robin(5, 2, 10.0)
        assert host_map.n_hosts == 2
        assert host_map.placement == (0, 1, 0, 1, 0)
        assert host_map.lanes_on(0) == (0, 2, 4)
        assert host_map.neighbours_of(2) == (0, 4)

    def test_pack_block_wise(self):
        host_map = build_host_map("block", [0.0] * 5, 3, 10.0)
        assert host_map.n_hosts == 3
        assert host_map.placement == (0, 0, 1, 1, 2)
        assert host_map.lanes_on(2) == (4,)

    def test_unplaced_lane_has_no_neighbours(self):
        host_map = HostMap([SimHost(10.0)], [0, None])
        assert host_map.host_of(1) is None
        assert host_map.neighbours_of(1) == ()


class TestCoupling:
    def test_underloaded_host_steals_nothing(self):
        host_map = round_robin(2, 1, 10.0)
        thefts = host_map.apply_step(0.0, [4.0, 5.0])
        assert thefts.tolist() == [0.0, 0.0]
        assert host_map.overload_fraction == 0.0
        assert host_map.feed(0).interference_at(0.0) == 0.0

    def test_overloaded_host_squeezes_both_tenants(self):
        # Two equal lanes, total 14 on a 10-unit host: overload 2/7,
        # each lane's theft is overload times its neighbour's share.
        host_map = round_robin(2, 1, 10.0)
        thefts = host_map.apply_step(0.0, [7.0, 7.0])
        expected = (4.0 / 14.0) * (7.0 / 14.0)
        assert thefts[0] == pytest.approx(expected)
        assert thefts[1] == pytest.approx(expected)
        assert host_map.feed(1).interference_at(123.0) == pytest.approx(expected)
        assert host_map.overload_fraction == 1.0
        assert host_map.peak_theft == pytest.approx(expected)

    def test_lone_lane_overload_is_not_interference(self):
        # Self-saturation on a dedicated host must read as zero theft:
        # DejaVu's interference index blames co-located tenants only.
        host_map = round_robin(1, 1, 5.0)
        thefts = host_map.apply_step(0.0, [50.0])
        assert thefts.tolist() == [0.0]
        assert host_map.overload_fraction == 1.0  # overloaded, but alone

    def test_big_neighbour_steals_more_than_small_one(self):
        host_map = round_robin(2, 1, 10.0)
        thefts = host_map.apply_step(0.0, [2.0, 12.0])
        # The small lane suffers from the big neighbour, not vice versa.
        assert thefts[0] > thefts[1] > 0.0

    def test_hosts_are_independent(self):
        host_map = round_robin(4, 2, 10.0)
        # Host 0 holds lanes (0, 2) and is overloaded; host 1 (1, 3) idles.
        thefts = host_map.apply_step(
            0.0, [8.0, 1.0, 8.0, 1.0]
        )
        assert thefts[0] > 0.0 and thefts[2] > 0.0
        assert thefts[1] == 0.0 and thefts[3] == 0.0
        assert host_map.overload_fraction == 0.5

    def test_theft_clipped_at_max(self):
        # Nine heavy co-tenants swamp a one-unit host: the small lane's
        # unclipped theft, overload times its neighbours' share, is
        # ~0.999 — past the clip that keeps effective capacity positive.
        n_lanes = 10
        host_map = round_robin(n_lanes, 1, 1.0)
        offered = [1.0] + [100.0] * (n_lanes - 1)
        total = sum(offered)
        unclipped = (total - 1.0) / total * (total - offered[0]) / total
        assert unclipped > MAX_THEFT
        thefts = host_map.apply_step(0.0, offered)
        assert thefts[0] == MAX_THEFT
        assert host_map.peak_theft == MAX_THEFT
        assert np.all(thefts <= MAX_THEFT)

    def test_theft_resets_when_pressure_passes(self):
        host_map = round_robin(2, 1, 10.0)
        host_map.apply_step(0.0, [7.0, 7.0])
        assert host_map.feed(0).theft > 0.0
        host_map.apply_step(60.0, [1.0, 1.0])
        assert host_map.feed(0).theft == 0.0
        assert host_map.overload_fraction == pytest.approx(0.5)

    def test_mean_theft_accumulates_over_steps(self):
        host_map = round_robin(2, 1, 10.0)
        host_map.apply_step(0.0, [7.0, 7.0])
        host_map.apply_step(60.0, [1.0, 1.0])
        per_step = (4.0 / 14.0) * (7.0 / 14.0)
        assert host_map.mean_theft == pytest.approx(per_step / 2.0)



class TestFootprint:
    """A lane presses ``min(offered demand, deployed capacity)``."""

    OFFERED = (7.3, 2.1, 9.9, 0.0)

    @pytest.mark.parametrize(
        "capacities", [None, [4.0, np.inf, 9.9, 3.0], [0.5, 1.0, 20.0, 0.0]]
    )
    def test_footprint_is_offered_demand_clipped_by_capacity(self, capacities):
        offered = np.array(self.OFFERED)
        expected = (
            offered if capacities is None else np.minimum(offered, capacities)
        )
        footprint = HostMap._demands(offered, capacities)
        np.testing.assert_array_equal(footprint, expected, strict=True)
        # The theft pass sees exactly that footprint.
        host_map = round_robin(4, 1, 5.0)
        reference = round_robin(4, 1, 5.0)
        np.testing.assert_array_equal(
            host_map.apply_step(0.0, offered, capacities=capacities),
            reference._apply_demands(0.0, expected),
            strict=True,
        )

    def test_capacity_count_checked(self):
        host_map = round_robin(2, 1, 10.0)
        with pytest.raises(ValueError, match="capacities"):
            host_map.apply_step(0.0, [1.0] * 2, capacities=[1.0])


class TestFeed:
    def test_feed_is_injector_compatible(self):
        from repro.cloud.provider import CloudProvider
        from repro.core.profiler import ProductionEnvironment
        from repro.services.cassandra import CassandraService

        thefts = np.zeros(3)
        feed = HostInterferenceFeed(thefts, 1)
        production = ProductionEnvironment(
            CassandraService(), CloudProvider(max_instances=2), feed
        )
        assert production.interference_at(0.0) == 0.0
        thefts[1] = 0.2
        assert production.interference_at(0.0) == 0.2
        assert feed.source == (thefts, 1)


class TestEngineIntegration:
    def test_engine_updates_host_map_each_step(self):
        from repro.sim.fleet import FleetEngine, FleetLane

        host_map = round_robin(2, 1, 10.0)
        seen: list[float] = []

        def observe(ctx):
            # The feed must already reflect this step's demand when the
            # lane observes (controllers see it too).
            seen.append(host_map.feed(0).theft)
            return {"theft": host_map.feed(0).theft}

        class Idle:
            def on_step(self, ctx):
                pass

        lanes = [
            FleetLane(lambda t: demand(7.0), Idle(), observe, label="a"),
            FleetLane(
                lambda t: demand(7.0), Idle(), lambda ctx: {"x": 0.0}, label="b"
            ),
        ]
        result = FleetEngine(lanes, step_seconds=10.0, host_map=host_map).run(
            30.0
        )
        assert host_map.steps == 3
        expected = (4.0 / 14.0) * (7.0 / 14.0)
        assert np.allclose(result.matrix("theft")[:, 0], expected)
        assert all(value == pytest.approx(expected) for value in seen)

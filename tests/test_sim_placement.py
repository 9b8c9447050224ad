"""Property-style invariants for the placement subsystem.

Every registered policy must place each lane on exactly one valid host
under arbitrary (seeded) demand sets; the bin-packing policies must
never overcommit when the demand set provably fits; the classic quality
ordering FFD >= best-fit >= round-robin must hold on the constructed
adversarial set; and migration must conserve the lane population while
never increasing total overcommit.
"""

import numpy as np
import pytest

from repro.sim.hosts import HostMap, SimHost
from repro.sim.placement import (
    PLACEMENT_POLICIES,
    BestFitPlacement,
    BlockPlacement,
    FirstFitDecreasingPlacement,
    MigrationPolicy,
    RoundRobinPlacement,
    build_host_map,
    host_loads,
    make_policy,
    total_overcommit,
)
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


def workload(units: float) -> Workload:
    mix = CASSANDRA_UPDATE_HEAVY
    return Workload(volume=units / mix.demand_per_client, mix=mix)


def hosts_of(capacities):
    return [SimHost(capacity_units=c, label=f"h{i}") for i, c in enumerate(capacities)]


ALL_POLICIES = sorted(PLACEMENT_POLICIES)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(PLACEMENT_POLICIES) == {
            "round_robin",
            "block",
            "first_fit_decreasing",
            "best_fit",
        }

    def test_make_policy_by_name_and_object(self):
        assert isinstance(make_policy("best_fit"), BestFitPlacement)
        policy = FirstFitDecreasingPlacement()
        assert make_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_policy("tetris")

    def test_non_policy_rejected(self):
        with pytest.raises(TypeError, match="not a placement policy"):
            make_policy(42)


class TestEveryPolicyPlacesEveryLane:
    """Each lane on exactly one host, whatever the demands look like."""

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_demands_all_placed(self, name, seed):
        rng = np.random.default_rng(seed)
        demands = rng.uniform(0.0, 9.0, size=23).tolist()
        hosts = hosts_of([10.0] * 4)
        placement = make_policy(name).place(demands, hosts)
        assert len(placement) == len(demands)
        assert all(0 <= host < len(hosts) for host in placement)

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_overfull_instance_still_places_everyone(self, name):
        # Nothing fits: every lane bigger than every host.  Placement
        # must degrade into overcommit, never drop a lane.
        demands = [50.0] * 7
        placement = make_policy(name).place(demands, hosts_of([10.0, 10.0]))
        assert len(placement) == 7
        assert all(host in (0, 1) for host in placement)

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_empty_hosts_rejected(self, name):
        with pytest.raises(ValueError, match="host"):
            make_policy(name).place([1.0], [])

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_negative_demand_rejected(self, name):
        with pytest.raises(ValueError, match="negative"):
            make_policy(name).place([1.0, -1.0], hosts_of([10.0]))


class TestLegacyPlacementsReexpressed:
    def test_round_robin_ignores_demands(self):
        demands = [3.0, 9.0, 1.0, 4.0, 2.0]
        placement = RoundRobinPlacement().place(demands, hosts_of([10.0] * 2))
        assert placement == [0, 1, 0, 1, 0]

    def test_block_fills_fixed_size_blocks(self):
        demands = [3.0, 9.0, 1.0, 4.0, 2.0]
        placement = BlockPlacement(lanes_per_host=2).place(
            demands, hosts_of([10.0] * 3)
        )
        assert placement == [0, 0, 1, 1, 2]

    def test_block_derives_block_size_from_host_count(self):
        placement = BlockPlacement().place([1.0] * 5, hosts_of([10.0] * 3))
        assert placement == [0, 0, 1, 1, 2]

    def test_block_needs_enough_hosts(self):
        with pytest.raises(ValueError, match="hosts"):
            BlockPlacement(lanes_per_host=2).place([1.0] * 5, hosts_of([10.0] * 2))


class TestBinPackingNeverOvercommitsWhenItFits:
    # A demand set with a known perfect packing that both greedy
    # packers find: pairs summing exactly to the capacity.
    DEMANDS = [2.0, 8.0, 6.0, 4.0, 7.0, 3.0, 5.0, 5.0]

    @pytest.mark.parametrize("name", ["first_fit_decreasing", "best_fit"])
    def test_no_host_over_capacity(self, name):
        hosts = hosts_of([10.0] * 4)
        placement = make_policy(name).place(self.DEMANDS, hosts)
        loads = host_loads(placement, self.DEMANDS, len(hosts))
        assert loads.max() <= 10.0 + 1e-9
        assert total_overcommit(placement, self.DEMANDS, hosts) == 0.0

    def test_ffd_handles_exact_fits(self):
        hosts = hosts_of([10.0, 10.0])
        placement = FirstFitDecreasingPlacement().place(
            [10.0, 10.0], hosts
        )
        assert sorted(placement) == [0, 1]
        assert total_overcommit(placement, [10.0, 10.0], hosts) == 0.0


class TestQualityOrdering:
    """FFD >= best-fit >= round-robin on the adversarial set.

    Small items arrive first (poisoning best fit's gaps) and big items
    stride at the host count (so round-robin stacks them): FFD packs
    perfectly, best fit overcommits a little, round-robin a lot.
    """

    DEMANDS = [2.0, 2.0, 8.0, 8.0, 2.0, 2.0, 8.0, 8.0]
    CAPS = [10.0] * 4

    def overcommit(self, name):
        hosts = hosts_of(self.CAPS)
        placement = make_policy(name).place(self.DEMANDS, hosts)
        return total_overcommit(placement, self.DEMANDS, hosts)

    def test_strict_ordering(self):
        ffd = self.overcommit("first_fit_decreasing")
        best_fit = self.overcommit("best_fit")
        round_robin = self.overcommit("round_robin")
        assert ffd == 0.0
        assert ffd < best_fit < round_robin


class TestPolicyPermutation:
    """Shuffling lane order never loses a lane (seeded property)."""

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_permuted_lanes_all_placed(self, name, seed):
        rng = np.random.default_rng(seed)
        demands = rng.uniform(0.5, 9.5, size=17)
        perm = rng.permutation(len(demands))
        hosts = hosts_of([12.0] * 3)
        placement = np.asarray(
            make_policy(name).place(demands[perm].tolist(), hosts)
        )
        assert placement.shape == (17,)
        assert set(np.unique(placement)) <= set(range(3))
        # Every permuted lane index appears exactly once in the
        # placement's domain — nothing was dropped or duplicated.
        assert sorted(perm.tolist()) == list(range(17))
        # Order-insensitive policies place the same multiset of demands
        # onto hosts with the same total load.
        if name == "first_fit_decreasing":
            base = make_policy(name).place(demands.tolist(), hosts)
            permuted_loads = host_loads(placement.tolist(), demands[perm], 3)
            base_loads = host_loads(base, demands, 3)
            np.testing.assert_allclose(
                np.sort(permuted_loads), np.sort(base_loads)
            )


class TestMigration:
    DEMANDS = np.array([8.0, 8.0, 1.0, 1.0])

    def make_map(self, policy=None):
        # Both heavy lanes on host 0 (blockwise), light lanes on host 1.
        return HostMap(
            hosts_of([10.0, 10.0]),
            [0, 0, 1, 1],
            migration=policy
            if policy is not None
            else MigrationPolicy(rebalance_every=2, blackout_seconds=100.0),
        )

    def offered(self):
        return list(self.DEMANDS)

    def test_migration_conserves_lane_count(self):
        host_map = self.make_map()
        for step in range(4):
            host_map.apply_step(step * 60.0, self.offered())
        assert host_map.migrations >= 1
        placement = host_map.placement
        assert len(placement) == 4
        assert all(host in (0, 1) for host in placement)
        assert sum(len(host_map.lanes_on(h)) for h in range(2)) == 4

    def test_migration_reduces_overcommit(self):
        host_map = self.make_map()
        before = total_overcommit(
            host_map.placement, self.DEMANDS, host_map.hosts
        )
        for step in range(4):
            host_map.apply_step(step * 60.0, self.offered())
        after = total_overcommit(
            host_map.placement, self.DEMANDS, host_map.hosts
        )
        assert before > 0.0
        assert after < before

    def test_blackout_charges_migrated_lane(self):
        host_map = self.make_map(
            MigrationPolicy(
                rebalance_every=1, blackout_seconds=1000.0, blackout_theft=0.4
            )
        )
        host_map.apply_step(0.0, self.offered())
        host_map.apply_step(60.0, self.offered())  # rebalance fires here
        assert host_map.migrations == 1
        moved = int(np.flatnonzero(host_map.lane_migrations)[0])
        # During the blackout the moved lane reads at least the
        # blackout theft through its ordinary interference feed.
        assert host_map.feed(moved).interference_at(60.0) >= 0.4
        # After the window closes the theft falls back to the packing's.
        host_map.apply_step(2000.0, self.offered())
        assert host_map.feed(moved).interference_at(2000.0) < 0.4

    def test_lone_tenant_overload_never_migrates(self):
        host_map = HostMap(
            hosts_of([5.0, 50.0]),
            [0, 1, 1],
            migration=MigrationPolicy(rebalance_every=1),
        )
        # Host 0's single tenant overloads it; moving would not fix
        # self-saturation, so the planner must leave it alone.
        for step in range(3):
            host_map.apply_step(
                step * 60.0, [8.0, 1.0, 1.0]
            )
        assert host_map.migrations == 0

    def test_migration_policy_validation(self):
        with pytest.raises(ValueError, match="rebalance"):
            MigrationPolicy(rebalance_every=0)
        with pytest.raises(ValueError, match="blackout"):
            MigrationPolicy(blackout_seconds=-1.0)
        with pytest.raises(ValueError, match="theft"):
            MigrationPolicy(blackout_theft=1.5)
        with pytest.raises(ValueError, match="move"):
            MigrationPolicy(max_moves=0)
        with pytest.raises(ValueError, match="mode"):
            MigrationPolicy(mode="defrag")
        with pytest.raises(ValueError, match="headroom"):
            MigrationPolicy(drain_headroom=0.0)

    def test_plan_validates_capacities_shape(self):
        with pytest.raises(ValueError, match="capacity"):
            MigrationPolicy().plan(
                [0], [1.0], hosts_of([10.0]), capacities=[10.0, 10.0]
            )

    def test_manual_migrate_validates(self):
        host_map = self.make_map()
        with pytest.raises(ValueError, match="unknown host"):
            host_map.migrate(0, 9, t=0.0)
        with pytest.raises(IndexError):
            host_map.migrate(9, 0, t=0.0)
        dedicated = HostMap(hosts_of([10.0]), [0, None])
        with pytest.raises(ValueError, match="dedicated"):
            dedicated.migrate(1, 0, t=0.0)


class TestLoneTenantSkip:
    """Bugfix regression: a lone self-saturating tenant on the *worst*
    host used to abort the whole rebalance; the planner must skip it
    and still relieve the next-worst host in the same cycle."""

    def test_next_worst_host_still_relieved(self):
        # Host 0's lone tenant gives it the largest excess (10 over a
        # 5-unit host), so it sorts first; host 1 (8 + 8 on 10 units)
        # is relievable — one of its tenants fits on empty host 2.
        hosts = hosts_of([5.0, 10.0, 50.0])
        moves = MigrationPolicy().plan([0, 1, 1], [15.0, 8.0, 8.0], hosts)
        assert moves
        lane, target = moves[0]
        assert lane in (1, 2)
        assert target == 2

    def test_two_overloaded_hosts_end_to_end(self):
        host_map = HostMap(
            hosts_of([5.0, 10.0, 50.0]),
            [0, 1, 1],
            migration=MigrationPolicy(rebalance_every=1),
        )
        loads = [15.0, 8.0, 8.0]
        for step in range(3):
            host_map.apply_step(step * 60.0, loads)
        # The lone tenant never moves, but host 1 still got relief.
        assert host_map.migrations >= 1
        assert host_map.placement[0] == 0
        assert 2 in host_map.placement[1:]


class TestFaultAwarePlanning:
    """Bugfix regression: the planner packs against effective
    (fault-adjusted) capacities, never a dead host's nominal size."""

    def test_plan_never_targets_dead_host(self):
        # With nominal capacities, empty dead host 0 would look like
        # the roomiest fit for host 1's pressure; the effective
        # capacities say it holds nothing.
        hosts = hosts_of([10.0, 10.0, 10.0])
        moves = MigrationPolicy().plan(
            [1, 1, 2],
            [8.0, 8.0, 2.0],
            hosts,
            capacities=[0.0, 10.0, 10.0],
        )
        assert moves
        assert all(target != 0 for _lane, target in moves)

    def test_drain_never_targets_dead_host(self):
        moves = MigrationPolicy(mode="consolidate").plan(
            [1, 1, 2],
            [3.0, 3.0, 1.0],
            hosts_of([10.0, 10.0, 10.0]),
            capacities=[0.0, 10.0, 10.0],
        )
        assert moves
        assert all(target != 0 for _lane, target in moves)

    def test_rebalance_never_lands_on_downed_host(self):
        # End-to-end with a fault schedule: host 0 dies at step 1, the
        # step-3 rebalance must relieve host 1 onto live host 2 (the
        # capacity-blind planner targeted dead host 0 and the move was
        # vetoed, leaving the pressure unrelieved).
        from repro.sim.faults import parse_faults

        host_map = HostMap(
            hosts_of([10.0, 10.0, 10.0]),
            [0, 1, 1, 2],
            migration=MigrationPolicy(rebalance_every=3),
        )
        host_map.attach_faults(parse_faults("host:0@1+10"))
        loads = [2.0, 8.0, 8.0, 2.0]
        for step in range(6):
            host_map.apply_step(step * 60.0, loads)
            if host_map._host_down[0]:
                assert 0 not in host_map.placement
        assert host_map.host_failures == 1
        assert host_map.migrations >= 1


class TestConsolidation:
    """The consolidate mode's drain: atomic, headroom-bounded, and
    only on cycles where pressure relief has nothing to do."""

    def test_drains_coldest_feasible_host(self):
        hosts = hosts_of([10.0, 10.0, 10.0])
        # No pressure anywhere; host 2 is coldest and its lone tenant
        # fits on host 0 within the drain headroom.
        moves = MigrationPolicy(mode="consolidate").plan(
            [0, 0, 1, 2], [3.0, 3.0, 5.0, 1.0], hosts
        )
        assert moves == [(3, 0)]

    def test_drain_is_atomic(self):
        # Both tenants of the cold host move in the same rebalance,
        # max_moves=1 notwithstanding.
        hosts = hosts_of([10.0, 10.0, 10.0])
        moves = MigrationPolicy(mode="consolidate", max_moves=1).plan(
            [0, 0, 1, 2, 2], [4.0, 4.0, 6.0, 1.0, 1.0], hosts
        )
        assert sorted(lane for lane, _target in moves) == [3, 4]
        assert all(target in (0, 1) for _lane, target in moves)

    def test_pressure_relief_comes_first(self):
        # Under relievable pressure the cycle is pure pressure relief —
        # no drain rides along.
        hosts = hosts_of([10.0, 10.0])
        moves = MigrationPolicy(mode="consolidate").plan(
            [0, 0, 1], [8.0, 8.0, 1.0], hosts
        )
        assert len(moves) == 1
        assert moves[0][1] == 1  # relief move, toward the cold host

    def test_drain_respects_headroom(self):
        hosts = hosts_of([10.0, 10.0])
        placement = [0, 0, 1]
        demands = [4.0, 4.0, 1.0]
        # At 0.85 headroom host 0 offers 8.5 - 8 = 0.5 < 1: infeasible
        # in both directions, so nothing drains.
        tight = MigrationPolicy(mode="consolidate", drain_headroom=0.85)
        assert tight.plan(placement, demands, hosts) == []
        # At full headroom the cold host's tenant fits and drains.
        full = MigrationPolicy(mode="consolidate", drain_headroom=1.0)
        assert full.plan(placement, demands, hosts) == [(2, 0)]

    def test_lone_powered_host_never_drained(self):
        hosts = hosts_of([10.0, 10.0])
        moves = MigrationPolicy(mode="consolidate").plan(
            [0, 0], [1.0, 1.0], hosts
        )
        assert moves == []

    def test_pressure_mode_never_drains(self):
        hosts = hosts_of([10.0, 10.0, 10.0])
        moves = MigrationPolicy(mode="pressure").plan(
            [0, 0, 1, 2], [3.0, 3.0, 5.0, 1.0], hosts
        )
        assert moves == []

    def test_drained_host_powers_off(self):
        # End-to-end: after the drain the emptied host stops accruing
        # host-on samples (the energy axis the studies report).
        host_map = HostMap(
            hosts_of([10.0, 10.0]),
            [0, 1],
            migration=MigrationPolicy(
                mode="consolidate", rebalance_every=1
            ),
        )
        loads = [2.0, 2.0]
        for step in range(4):
            host_map.apply_step(step * 60.0, loads)
        assert host_map.migrations == 1
        assert tuple(host_map.placement) == (1, 1)
        # Step 0: both hosts on (no rebalance yet); steps 1-3: one.
        assert host_map.host_on_steps == 2 + 3
        assert host_map.mean_hosts_on == pytest.approx(5 / 4)


class TestAllocationAwareDemand:
    def test_footprint_tracks_deployed_capacity(self):
        host_map = build_host_map(
            "round_robin",
            [6.0, 6.0],
            n_hosts=1,
            capacity_units=10.0,
        )
        # Offered 6+6 would overload the 10-unit host, but each lane
        # only has 3 units deployed: footprints are capped, no theft.
        thefts = host_map.apply_step(
            0.0, [6.0, 6.0], capacities=[3.0, 3.0]
        )
        assert thefts.tolist() == [0.0, 0.0]
        # Scale-up: deployed capacity grows, the footprints press the
        # full offered demand and the host overcommits.
        thefts = host_map.apply_step(
            60.0, [6.0, 6.0], capacities=[8.0, 8.0]
        )
        assert thefts[0] > 0.0 and thefts[1] > 0.0

    def test_engine_capacity_cache_tracks_warmup_across_steps(self):
        # Regression: with a step interval shorter than the VM warm-up,
        # the engine's memoized deployed-capacity read must take one
        # final refresh at the first step past the settle time — a
        # scale-up's warmed capacity must not stay cached at the
        # pre-warm value until the next allocation change.
        from repro.cloud.instance_types import LARGE
        from repro.cloud.provider import Allocation, CloudProvider
        from repro.sim.fleet import FleetEngine, FleetLane

        provider = CloudProvider(max_instances=10)

        class ScaleUpOnce:
            def __init__(self):
                self.production = type("P", (), {"provider": provider})()

            def on_step(self, ctx):
                if ctx.t == 0.0:
                    provider.apply(Allocation(count=4, itype=LARGE), 0.0)

        class Idle:
            def on_step(self, ctx):
                pass

        host_map = HostMap(hosts_of([10.0]), [0, 0])
        observe = lambda ctx: {"x": 0.0}  # noqa: E731
        lanes = [
            FleetLane(lambda t: workload(6.0), ScaleUpOnce(), observe, "a"),
            FleetLane(lambda t: workload(6.0), Idle(), observe, "b"),
        ]
        engine = FleetEngine(
            lanes, step_seconds=5.0, host_map=host_map, batched=False
        )
        seen = []
        inner = engine._lane_capacities

        def spy(t):
            caps = inner(t)
            seen.append((float(caps[0]), provider.capacity_at(t)))
            return caps

        engine._lane_capacities = spy
        engine.run(30.0)  # warm-up is 8 s: spans a step boundary
        assert any(true > 0.0 for _cached, true in seen)
        for cached, true in seen:
            assert cached == true


class TestBuildHostMap:
    def test_builds_policy_placement(self):
        host_map = build_host_map(
            "first_fit_decreasing", [8.0, 8.0, 2.0, 2.0], 2, 10.0
        )
        loads = host_loads(host_map.placement, [8.0, 8.0, 2.0, 2.0], 2)
        assert loads.tolist() == [10.0, 10.0]

    def test_validates_host_count(self):
        with pytest.raises(ValueError, match="host"):
            build_host_map("round_robin", [1.0], 0, 10.0)

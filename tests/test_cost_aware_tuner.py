"""Tests for the Kingfisher-style cost-aware tuner."""

import pickle

import pytest

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation
from repro.core.cost_aware_tuner import (
    ExplorationRound,
    KingfisherTuner,
    TransitionCost,
    explore_then_exploit,
)
from repro.core.tuner import LinearSearchTuner, scale_out_candidates
from repro.experiments.multiplexing_study import FleetConfig
from repro.services.cassandra import CassandraService
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


def cassandra_workload(demand: float) -> Workload:
    return Workload(
        volume=demand / CASSANDRA_UPDATE_HEAVY.demand_per_client,
        mix=CASSANDRA_UPDATE_HEAVY,
    )


class TestTransitionCost:
    def test_no_current_is_free(self):
        cost = TransitionCost()
        assert cost.between(None, Allocation(count=5, itype=LARGE)) == 0.0

    def test_scale_up_charges_started_vms(self):
        cost = TransitionCost(per_started_vm_dollars=0.02)
        charged = cost.between(
            Allocation(count=3, itype=LARGE), Allocation(count=5, itype=LARGE)
        )
        assert charged == pytest.approx(0.04)

    def test_scale_down_charges_stopped_vms(self):
        cost = TransitionCost(per_stopped_vm_dollars=0.01)
        charged = cost.between(
            Allocation(count=5, itype=LARGE), Allocation(count=3, itype=LARGE)
        )
        assert charged == pytest.approx(0.02)

    def test_equal_instance_type_copy_is_no_switch(self):
        # An unpickled allocation's instance type is an equal copy of
        # the constant; resizing within it is not a type switch.
        cost = TransitionCost(per_started_vm_dollars=0.02)
        copy = pickle.loads(pickle.dumps(LARGE))
        charged = cost.between(
            Allocation(count=3, itype=copy), Allocation(count=5, itype=LARGE)
        )
        assert charged == pytest.approx(0.04)

    def test_type_switch_replaces_fleet(self):
        cost = TransitionCost(
            per_started_vm_dollars=0.02, per_stopped_vm_dollars=0.01
        )
        charged = cost.between(
            Allocation(count=5, itype=LARGE),
            Allocation(count=5, itype=EXTRA_LARGE),
        )
        assert charged == pytest.approx(5 * 0.02 + 5 * 0.01)

    def test_noop_is_free(self):
        cost = TransitionCost()
        allocation = Allocation(count=4, itype=LARGE)
        assert cost.between(allocation, allocation) == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            TransitionCost(per_started_vm_dollars=-1.0)


class TestKingfisherTuner:
    def test_matches_linear_search_without_transitions(self):
        # On this price catalogue large instances dominate per capacity
        # unit, so the cost-optimal configuration equals the linear
        # search's count of large instances.
        service = CassandraService()
        kingfisher = KingfisherTuner(service, latency_margin=0.85)
        linear = LinearSearchTuner(
            service, scale_out_candidates(10), latency_margin=0.85
        )
        for demand in (0.8, 2.4, 3.6, 5.0):
            workload = cassandra_workload(demand)
            assert (
                kingfisher.tune(workload).allocation.hourly_cost
                <= linear.tune(workload).allocation.hourly_cost
            )

    def test_result_meets_slo(self):
        service = CassandraService()
        tuner = KingfisherTuner(service)
        outcome = tuner.tune(cassandra_workload(3.0))
        assert outcome.met_slo
        sample = service.performance(
            cassandra_workload(3.0), outcome.allocation.capacity_units
        )
        assert service.slo.is_met(sample.latency_ms)

    def test_infeasible_returns_biggest(self):
        service = CassandraService()
        tuner = KingfisherTuner(service, max_count_per_type=2)
        outcome = tuner.tune(cassandra_workload(50.0))
        assert not outcome.met_slo
        assert outcome.allocation.capacity_units == pytest.approx(2 * 1.9)

    def test_transition_hysteresis(self):
        # Currently at 8 large; the workload needs only 7.  With a
        # sufficiently expensive transition relative to the horizon,
        # staying at 8 wins; with free transitions, 7 wins.
        service = CassandraService()
        workload = cassandra_workload(4.25)  # needs 7 at margin 0.85
        current = Allocation(count=8, itype=LARGE)

        free = KingfisherTuner(service, latency_margin=0.85)
        free.current_allocation = current
        assert free.tune(workload).allocation.count == 7

        sticky = KingfisherTuner(
            service,
            latency_margin=0.85,
            transition=TransitionCost(per_stopped_vm_dollars=1.0),
            horizon_hours=1.0,
        )
        sticky.current_allocation = current
        assert sticky.tune(workload).allocation.count == 8

    def test_longer_horizon_overcomes_transition_cost(self):
        # Over a long enough horizon the running-cost saving of 7 vs 8
        # instances pays for the transition.
        service = CassandraService()
        workload = cassandra_workload(4.25)
        tuner = KingfisherTuner(
            service,
            latency_margin=0.85,
            transition=TransitionCost(per_stopped_vm_dollars=1.0),
            horizon_hours=10.0,
        )
        tuner.current_allocation = Allocation(count=8, itype=LARGE)
        assert tuner.tune(workload).allocation.count == 7

    def test_interference_inflates_choice(self):
        service = CassandraService()
        tuner = KingfisherTuner(service)
        base = tuner.tune(cassandra_workload(3.0)).allocation
        hogged = tuner.tune(
            cassandra_workload(3.0), assumed_interference=0.25
        ).allocation
        assert hogged.capacity_units > base.capacity_units

    def test_configuration_space_sorted_by_cost(self):
        tuner = KingfisherTuner(CassandraService(), max_count_per_type=3)
        costs = [a.hourly_cost for a in tuner.configurations()]
        assert costs == sorted(costs)

    def test_works_as_manager_tuner(self):
        # Call-compatibility with the manager's tuner slot.
        from repro.core.manager import DejaVuManager
        from repro.core.profiler import ProductionEnvironment, ProfilingEnvironment
        from repro.cloud.provider import CloudProvider
        from repro.telemetry.monitor import Monitor
        from repro.experiments.setup import build_scaleout_setup

        setup = build_scaleout_setup("messenger")
        manager = DejaVuManager(
            profiler=setup.profiler,
            production=setup.production,
            tuner=KingfisherTuner(setup.service, latency_margin=0.85),
        )
        report = manager.learn(setup.trace.hourly_workloads(day=0))
        assert report.n_classes == 4

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            KingfisherTuner(CassandraService(), max_count_per_type=0)
        with pytest.raises(ValueError):
            KingfisherTuner(CassandraService(), horizon_hours=0.0)
        with pytest.raises(ValueError):
            KingfisherTuner(CassandraService(), instance_types=())


class TestExploreThenExploit:
    def evaluate(self, candidate):
        return {"score": float(candidate)}

    def objective(self, metrics):
        return metrics["score"]

    def test_explores_every_candidate_in_order(self):
        candidates = [5, 2, 9, 2]
        _, rounds = explore_then_exploit(
            candidates, self.evaluate, self.objective
        )
        assert [r.candidate for r in rounds] == candidates
        assert [r.cost for r in rounds] == [5.0, 2.0, 9.0, 2.0]
        assert all(r.metrics == {"score": float(r.candidate)} for r in rounds)

    def test_exploits_the_argmin(self):
        best, rounds = explore_then_exploit(
            [7, 3, 8], self.evaluate, self.objective
        )
        assert best == 3
        assert min(r.cost for r in rounds) == 3.0

    def test_ties_go_to_the_earliest_candidate(self):
        best, _ = explore_then_exploit(
            ["a", "b", "c"], lambda c: {"score": 1.0}, self.objective
        )
        assert best == "a"

    def test_rounds_are_an_immutable_audit_trail(self):
        _, rounds = explore_then_exploit([1], self.evaluate, self.objective)
        assert isinstance(rounds, tuple)
        assert isinstance(rounds[0], ExplorationRound)
        with pytest.raises(AttributeError):
            rounds[0].cost = 0.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            explore_then_exploit([], self.evaluate, self.objective)


class TestTuneMigrationPolicy:
    FLEET = FleetConfig(
        n_lanes=4,
        mix="mixed",
        n_hosts=2,
        host_capacity_units=6.0,
        seed=0,
    )

    def test_winner_comes_from_the_knob_grid(self):
        from repro.experiments.placement_study import tune_migration_policy

        grid = ((4, 300.0), (12, 600.0))
        tuning = tune_migration_policy(
            self.FLEET, knob_grid=grid, explore_hours=2.0
        )
        assert (
            tuning.policy.rebalance_every,
            tuning.policy.blackout_seconds,
        ) in grid
        assert tuning.policy.mode == "consolidate"
        assert len(tuning.rounds) == len(grid)
        assert tuning.best_cost == min(r.cost for r in tuning.rounds)

    def test_exploration_replaces_config_hours_and_migration(
        self, monkeypatch
    ):
        from dataclasses import replace

        from repro.experiments import placement_study
        from repro.sim.placement import MigrationPolicy

        explored = []
        real = placement_study.run_fleet_multiplexing_study

        def spy(config, **fields):
            study = real(config, **fields)
            explored.append(study.config)
            return study

        monkeypatch.setattr(
            placement_study, "run_fleet_multiplexing_study", spy
        )
        config = replace(
            self.FLEET,
            hours=24.0,
            migration=MigrationPolicy(rebalance_every=99),
        )
        placement_study.tune_migration_policy(
            config, knob_grid=((4, 300.0),), explore_hours=1.0
        )
        (ran,) = explored
        assert ran.hours == 1.0
        assert ran.migration.rebalance_every == 4
        assert ran.migration.blackout_seconds == 300.0
        assert replace(ran, hours=24.0, migration=config.migration) == config

    def test_bad_tuning_params_rejected(self):
        from repro.experiments.placement_study import tune_migration_policy

        with pytest.raises(ValueError, match="exploration"):
            tune_migration_policy(self.FLEET, explore_hours=0.0)
        with pytest.raises(ValueError, match="negative"):
            tune_migration_policy(self.FLEET, violation_weight=-1.0)

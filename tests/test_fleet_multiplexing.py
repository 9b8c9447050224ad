"""Properties of the fleet-scale multiplexing study (Sec. 5)."""

import pytest

from repro.experiments.multiplexing_study import (
    lane_kinds,
    run_fleet_multiplexing_study,
)

#: One signature collection on the shared profiler (Monitor default).
SIGNATURE_SECONDS = 10.0


def run_small(n_lanes: int, **kwargs):
    defaults = dict(hours=6.0, lane_seed_stride=0, seed=0)
    defaults.update(kwargs)
    return run_fleet_multiplexing_study(n_lanes=n_lanes, **defaults)


class TestValidation:
    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError, match="lane"):
            run_fleet_multiplexing_study(n_lanes=0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            run_fleet_multiplexing_study(n_lanes=1, hours=0.0)
        # The step sizes the fault timeline, so it is checked up front.
        with pytest.raises(ValueError, match="step_seconds"):
            run_fleet_multiplexing_study(
                n_lanes=1, step_seconds=0.0, faults="profiler@1+1"
            )

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            run_fleet_multiplexing_study(n_lanes=2, mix="sideways")

    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError, match="host"):
            run_fleet_multiplexing_study(n_lanes=2, n_hosts=0)

    def test_lane_kinds_compositions(self):
        assert lane_kinds(3, "scaleout") == ("scaleout",) * 3
        assert lane_kinds(2, "scaleup") == ("scaleup",) * 2
        assert lane_kinds(4, "mixed") == (
            "scaleout", "scaleup", "scaleout", "scaleup",
        )

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            run_fleet_multiplexing_study(n_lanes=2, n_hosts=1, placement="pile")

    def test_placement_without_hosts_rejected(self):
        with pytest.raises(ValueError, match="pass n_hosts"):
            run_fleet_multiplexing_study(
                n_lanes=2, placement="first_fit_decreasing"
            )

    def test_migration_without_hosts_rejected(self):
        from repro.sim.placement import MigrationPolicy

        with pytest.raises(ValueError, match="pass n_hosts"):
            run_fleet_multiplexing_study(
                n_lanes=2, migration=MigrationPolicy()
            )

    def test_wave_workers_need_the_batched_plane(self):
        # The scalar loop has no waves to overlap: rejected, not ignored.
        with pytest.raises(ValueError, match="wave_workers.*batched"):
            run_fleet_multiplexing_study(
                n_lanes=2, batched=False, wave_workers=2
            )

    def test_nonpositive_demand_factor_rejected(self):
        with pytest.raises(ValueError, match="demand factors"):
            run_fleet_multiplexing_study(n_lanes=2, demand_factors=(1.0, 0.0))

    def test_lane_families_split_by_demand_factor(self):
        from repro.experiments.multiplexing_study import lane_families

        assert lane_families(4, "mixed", None) == (
            "scaleout", "scaleup", "scaleout", "scaleup",
        )
        families = lane_families(4, "mixed", (0.5, 1.0))
        assert families == (
            "scaleout@x0.5", "scaleup@x1", "scaleout@x0.5", "scaleup@x1",
        )


class TestSharedRepository:
    def test_hit_rate_monotone_as_lanes_grow(self):
        # With identical lanes the shared repository serves every lane
        # from the one learned model: multiplexing more services onto
        # the repository must never degrade its hit rate.
        rates = [run_small(n).hit_rate for n in (1, 2, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.9

    def test_learning_amortized_fleet_wide(self):
        # One learning phase and one set of tuner runs, regardless of
        # fleet size — the multiplexing cost claim.
        studies = [run_small(n) for n in (1, 4)]
        assert [s.learning_runs for s in studies] == [1, 1]
        assert studies[0].tuning_invocations == studies[1].tuning_invocations

    def test_profiling_overhead_shrinks_with_fleet_size(self):
        small, large = run_small(1), run_small(4)
        assert large.amortized_profiling_fraction < (
            small.amortized_profiling_fraction
        )

    def test_relearn_detaches_from_shared_repository(self):
        # Re-clustering renumbers workload classes, so a manager that
        # re-learns must fork onto a private cache instead of clearing
        # (or re-keying) the fleet's shared one under the other lanes.
        from repro.core.repository import AllocationRepository
        from repro.experiments.setup import build_scaleout_setup

        shared = AllocationRepository()
        leader = build_scaleout_setup(repository=shared, seed=0)
        follower = build_scaleout_setup(repository=shared, seed=0)
        leader.manager.learn(leader.trace.hourly_workloads(day=0))
        follower.manager.adopt_trained_state(leader.manager)
        # Mutable model state is copied, not aliased.
        assert follower.manager.standardizer is not leader.manager.standardizer
        entries_before = len(shared)
        assert entries_before > 0

        follower.manager.relearn(
            now=0.0, workloads=follower.trace.hourly_workloads(day=1)
        )
        assert follower.manager.repository is not shared
        assert len(shared) == entries_before

        leader.manager.relearn(
            now=0.0, workloads=leader.trace.hourly_workloads(day=1)
        )
        assert leader.manager.repository is not shared
        assert len(shared) == entries_before

    def test_direct_learn_on_populated_shared_repository_detaches(self):
        # Passing one repository to several constructors is the other
        # sharing shape: a manager that learns on an already-populated
        # shared cache must fork rather than clear it under the lane
        # that populated it.
        from repro.core.repository import AllocationRepository
        from repro.experiments.setup import build_scaleout_setup

        shared = AllocationRepository()
        first = build_scaleout_setup(repository=shared, seed=0)
        second = build_scaleout_setup(repository=shared, seed=1)
        first.manager.learn(first.trace.hourly_workloads(day=0))
        entries_before = len(shared)
        assert entries_before > 0

        second.manager.learn(second.trace.hourly_workloads(day=0))
        assert second.manager.repository is not shared
        assert len(shared) == entries_before
        assert len(second.manager.repository) > 0


class TestProfilingContention:
    def test_queue_wait_bounded_by_fleet_size(self):
        # All lanes adapt in the same hourly step; with one slot the
        # FIFO bound is (n_lanes - 1) service times, and the queue must
        # drain before the next hourly adaptation wave.
        study = run_small(4)
        assert study.max_queue_wait_seconds <= 3 * SIGNATURE_SECONDS
        assert study.max_queue_depth <= 4
        assert study.rejected_profiles == 0

    def test_more_slots_reduce_waiting(self):
        one = run_small(4, profiling_slots=1)
        four = run_small(4, profiling_slots=4)
        assert four.mean_queue_wait_seconds <= one.mean_queue_wait_seconds
        assert four.mean_queue_wait_seconds == 0.0

    def test_bounded_queue_rejects_when_overloaded(self):
        study = run_small(6, max_pending=1)
        assert study.rejected_profiles > 0


class TestFleetSeries:
    def test_result_shape_and_aggregates(self):
        study = run_small(3, hours=2.0)
        result = study.result
        assert result.n_lanes == 3
        assert result.n_steps == study.n_steps == int(2.0 * 3600 / 300.0)
        total = result.total("hourly_cost")
        lanes = [result.lane_series("hourly_cost", i) for i in range(3)]
        for step in range(result.n_steps):
            assert total.values[step] == pytest.approx(
                sum(lane.values[step] for lane in lanes)
            )

    def test_identical_lanes_observe_identical_series(self):
        # One profiling slot per lane: nobody waits, so two identical
        # lanes stay in lockstep.
        study = run_small(2, hours=2.0, profiling_slots=2)
        matrix = study.result.matrix("latency_ms")
        assert matrix[:, 0].tolist() == matrix[:, 1].tolist()

    def test_profiling_contention_desynchronizes_identical_lanes(self):
        # With a single shared slot the second lane's signature waits
        # ~10 s each wave, so its adaptations deploy late (queue
        # feedback, Sec. 5) and its warm-up transients shift: the lanes
        # are no longer bit-identical even though their workloads are.
        study = run_small(2, hours=2.0, profiling_slots=1)
        matrix = study.result.matrix("latency_ms")
        assert matrix[:, 0].tolist() != matrix[:, 1].tolist()
        assert study.max_queue_wait_seconds > 0.0


class TestHeterogeneousFleet:
    """Mixed scale-out + scale-up lanes in one engine run (Sec. 4 + 5)."""

    def run_mixed(self, **kwargs):
        return run_small(4, mix="mixed", **kwargs)

    def test_two_observation_schemas(self):
        result = self.run_mixed(hours=2.0).result
        assert result.n_schemas == 2
        out_schema = result.schema_of(0)
        up_schema = result.schema_of(1)
        assert "instances" in out_schema and "instance_is_xl" not in out_schema
        assert "instance_is_xl" in up_schema and "instances" not in up_schema
        assert result.lane_schemas == (0, 1, 0, 1)

    def test_lane_blocks_round_trip(self):
        result = self.run_mixed(hours=2.0).result
        for lane in range(result.n_lanes):
            schema, rows = result.lane_block(lane)
            assert rows.shape == (result.n_steps, len(schema))
            for j, name in enumerate(schema):
                assert (
                    rows[:, j].tolist()
                    == result.lane_series(name, lane).values.tolist()
                )

    def test_shared_series_span_all_lanes(self):
        result = self.run_mixed(hours=2.0).result
        for name in ("latency_ms", "hourly_cost", "load", "qos_percent"):
            assert result.lanes_recording(name) == (0, 1, 2, 3)
        assert result.lanes_recording("instances") == (0, 2)
        assert result.lanes_recording("instance_is_xl") == (1, 3)

    def test_one_learning_phase_per_family(self):
        study = self.run_mixed(hours=2.0)
        assert study.config.mix == "mixed"
        assert study.learning_runs == 2
        homogeneous = run_small(4, hours=2.0)
        assert homogeneous.learning_runs == 1

    def test_fleet_cost_sums_both_families(self):
        study = self.run_mixed(hours=2.0)
        result = study.result
        per_lane = [
            result.lane_series("hourly_cost", lane).values.mean()
            for lane in range(4)
        ]
        assert study.fleet_hourly_cost == pytest.approx(sum(per_lane))

    def test_violations_judged_against_each_lanes_own_slo(self):
        study = self.run_mixed(hours=2.0)
        assert 0.0 <= study.violation_fraction <= 1.0


class TestHeterogeneousDemand:
    """``demand_factors`` makes lanes differently sized (and family-split)."""

    def test_one_learning_run_per_kind_and_factor(self):
        study = run_small(
            4, hours=2.0, mix="scaleout", demand_factors=(0.5, 1.0)
        )
        assert study.config.demand_factors == (0.5, 1.0)
        assert study.learning_runs == 2  # scaleout@x0.5 and scaleout@x1

    def test_factor_one_reproduces_uniform_fleet(self):
        uniform = run_small(2, hours=2.0)
        factored = run_small(2, hours=2.0, demand_factors=(1.0,))
        assert (
            factored.result.matrix("latency_ms").tolist()
            == uniform.result.matrix("latency_ms").tolist()
        )
        assert factored.hit_rate == uniform.hit_rate

    def test_bigger_factor_bigger_spend(self):
        small = run_small(1, hours=12.0, demand_factors=(0.5,))
        big = run_small(1, hours=12.0, demand_factors=(1.2,))
        assert big.fleet_hourly_cost > small.fleet_hourly_cost


class TestPlacementSensitivityStudy:
    """The tentpole study: same fleet, different packings."""

    #: 20 heterogeneous lanes on 5 hosts: five lane sizes against a
    #: host count they stride, so round-robin stacks same-sized lanes.
    KWARGS = dict(
        n_lanes=20,
        hours=24.0,
        n_hosts=5,
        host_capacity_units=24.0,
        demand_factors=(0.7, 0.85, 1.0, 1.1, 1.2),
    )

    def test_ffd_strictly_reduces_mean_theft_vs_round_robin(self):
        from repro.experiments.placement_study import (
            run_placement_sensitivity_study,
        )

        study = run_placement_sensitivity_study(
            policies=("round_robin", "first_fit_decreasing"), **self.KWARGS
        )
        round_robin = study.point("round_robin")
        ffd = study.point("first_fit_decreasing")
        # The same fleet, the same traces, the same controllers — only
        # the packing differs, and it alone moves the theft frontier.
        assert round_robin.fleet_hourly_cost == pytest.approx(
            ffd.fleet_hourly_cost, rel=0.05
        )
        assert round_robin.mean_host_theft > 0.0
        assert ffd.mean_host_theft < round_robin.mean_host_theft
        assert ffd.peak_host_theft < round_robin.peak_host_theft
        assert study.best.policy in ("first_fit_decreasing", "round_robin")

    def test_migrate_suffix_attaches_migration(self):
        from repro.experiments.placement_study import (
            run_placement_sensitivity_study,
        )

        study = run_placement_sensitivity_study(
            policies=("round_robin", "round_robin+migrate"),
            rebalance_every=12,
            **self.KWARGS,
        )
        static = study.point("round_robin")
        migrating = study.point("round_robin+migrate")
        assert static.migrations == 0
        assert migrating.migrations >= 1
        assert migrating.mean_host_theft < static.mean_host_theft

    def test_point_lookup_and_validation(self):
        from repro.experiments.placement_study import (
            parse_policy_spec,
            run_placement_sensitivity_study,
        )

        with pytest.raises(ValueError, match="at least one"):
            run_placement_sensitivity_study(policies=())
        with pytest.raises(ValueError, match="unknown placement policy"):
            parse_policy_spec("tetris")
        with pytest.raises(ValueError, match="suffix"):
            parse_policy_spec("best_fit+teleport")
        name, migration = parse_policy_spec("best_fit+migrate")
        assert name == "best_fit" and migration is not None
        name, migration = parse_policy_spec("best_fit")
        assert name == "best_fit" and migration is None


class TestHostCoupling:
    """Co-located lanes steal capacity; escalation crosses services."""

    # Two lanes on one 5-unit host: each family's trace demands
    # ~3.5-4 units at the day's plateau, so the co-located pair
    # overcommits the host while either lane alone would not.
    SQUEEZE = dict(n_lanes=2, mix="mixed", hours=12.0, host_capacity_units=5.0)

    def test_neighbour_pressure_escalates_interference_band(self):
        study = run_small(n_hosts=1, **self.SQUEEZE)
        assert study.n_hosts == 1
        assert study.host_overload_fraction > 0.0
        assert study.peak_host_theft > 0.0
        # At least one manager blamed its co-located neighbour and
        # tuned a band > 0 allocation (Sec. 3.6 across services).
        assert study.interference_escalations > 0

    def test_no_neighbour_no_escalation(self):
        # Same lanes, same demands, same host capacity — but one lane
        # per host.  Self-saturation must not read as interference, so
        # no band escalation fires: the escalations above are caused by
        # the neighbour, not by load alone.
        study = run_small(n_hosts=2, **self.SQUEEZE)
        assert study.peak_host_theft == 0.0
        assert study.mean_host_theft == 0.0
        assert study.interference_escalations == 0

    def test_dedicated_hardware_default_is_uncoupled(self):
        study = run_small(2, hours=2.0)
        assert study.n_hosts == 0
        assert study.host_overload_fraction == 0.0
        assert study.interference_escalations == 0

    def test_generous_hosts_behave_like_dedicated_hardware(self):
        coupled = run_small(
            2, hours=2.0, n_hosts=1, host_capacity_units=1000.0
        )
        dedicated = run_small(2, hours=2.0)
        assert coupled.peak_host_theft == 0.0
        assert (
            coupled.result.matrix("latency_ms").tolist()
            == dedicated.result.matrix("latency_ms").tolist()
        )

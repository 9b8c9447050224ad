"""Unit, edge-case, and property tests for the fleet simulation layer."""

import numpy as np
import pytest

from repro.sim.engine import SimulationEngine, StepContext
from repro.sim.fleet import FleetEngine, FleetLane, FleetResult
from repro.sim.profiling_queue import ProfilingQueue
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


def constant_workload(_t: float) -> Workload:
    return Workload(volume=100.0, mix=CASSANDRA_UPDATE_HEAVY)


class RecordingController:
    def __init__(self):
        self.contexts: list[StepContext] = []

    def on_step(self, ctx: StepContext) -> None:
        self.contexts.append(ctx)


def make_lane(value: float, label: str = "lane") -> FleetLane:
    return FleetLane(
        workload_fn=constant_workload,
        controller=RecordingController(),
        observe_fn=lambda ctx: {"metric": value, "load": ctx.workload.volume},
        label=label,
    )


class TestFleetEngineValidation:
    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            FleetEngine([])

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            FleetEngine([make_lane(1.0)], step_seconds=0.0)

    def test_zero_duration_rejected(self):
        engine = FleetEngine([make_lane(1.0)])
        with pytest.raises(ValueError, match="duration"):
            engine.run(0.0)

    def test_negative_duration_rejected(self):
        engine = FleetEngine([make_lane(1.0)])
        with pytest.raises(ValueError, match="duration"):
            engine.run(-10.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_step_rejected(self, step):
        with pytest.raises(ValueError, match="step_seconds"):
            FleetEngine([make_lane(1.0)], step_seconds=step)
        with pytest.raises(ValueError, match="step_seconds"):
            SimulationEngine(
                constant_workload,
                RecordingController(),
                lambda ctx: {"metric": 1.0},
                step_seconds=step,
            )

    def test_nan_duration_and_start_rejected(self):
        engine = FleetEngine([make_lane(1.0)])
        with pytest.raises(ValueError, match="duration_seconds"):
            engine.run(float("nan"))
        for start in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="start"):
                engine.run(3600.0, start=start)

    def test_infinite_duration_rejected_before_any_step(self):
        """A workload source other than a trace never runs out, so an
        infinite run would never end; this one raises after a few
        steps instead of hanging."""
        calls = []

        def few_steps(t: float) -> Workload:
            calls.append(t)
            if len(calls) > 3:
                raise RuntimeError("the run did not stop")
            return constant_workload(t)

        lane = make_lane(1.0)
        lane.workload_fn = few_steps
        with pytest.raises(ValueError, match="duration_seconds"):
            FleetEngine([lane]).run(float("inf"))
        assert calls == []

    def test_schema_drift_within_a_lane_rejected(self):
        # Differing schemas *between* lanes are legal (heterogeneous
        # fleets); what a lane may not do is change its own schema
        # after the first observation fixed it.
        def drifting(ctx):
            if ctx.t == 0.0:
                return {"metric": 1.0}
            return {"something_else": 1.0}

        odd = FleetLane(
            workload_fn=constant_workload,
            controller=RecordingController(),
            observe_fn=drifting,
            label="odd",
        )
        engine = FleetEngine([make_lane(1.0), odd], step_seconds=10.0)
        with pytest.raises(ValueError, match="odd"):
            engine.run(30.0)

    def test_extra_series_within_a_lane_rejected(self):
        def widening(ctx):
            base = {"metric": 1.0}
            if ctx.t > 0.0:
                base["surprise"] = 2.0
            return base

        odd = FleetLane(
            workload_fn=constant_workload,
            controller=RecordingController(),
            observe_fn=widening,
            label="widening",
        )
        with pytest.raises(ValueError, match="surprise"):
            FleetEngine([odd], step_seconds=10.0).run(30.0)

    def test_host_map_lane_count_mismatch_rejected(self):
        from repro.sim.placement import build_host_map

        host_map = build_host_map("round_robin", [0.0] * 3, 1, 5.0)
        with pytest.raises(ValueError, match="host map"):
            FleetEngine([make_lane(1.0)], host_map=host_map)


class TestFleetEngineStepping:
    def test_single_lane_fleet(self):
        lane = make_lane(7.0, label="solo")
        result = FleetEngine([lane], step_seconds=10.0).run(100.0)
        assert result.n_lanes == 1
        assert result.n_steps == 10
        assert len(lane.controller.contexts) == 10
        assert result.lane_labels == ("solo",)
        np.testing.assert_array_equal(
            result.matrix("metric"), np.full((10, 1), 7.0)
        )

    def test_500_lane_fleet(self):
        lanes = [make_lane(float(i), label=f"svc-{i}") for i in range(500)]
        result = FleetEngine(lanes, step_seconds=30.0).run(90.0)
        assert result.n_lanes == 500
        assert result.n_steps == 3
        assert result.matrix("metric").shape == (3, 500)
        np.testing.assert_array_equal(
            result.matrix("metric")[0], np.arange(500, dtype=float)
        )
        # Every lane's controller stepped on the shared clock.
        for lane in lanes:
            assert [c.t for c in lane.controller.contexts] == [0.0, 30.0, 60.0]

    def test_shared_clock_contexts(self):
        lanes = [make_lane(1.0, label="a"), make_lane(2.0, label="b")]
        FleetEngine(lanes, step_seconds=3600.0).run(
            3 * 3600.0, start=24 * 3600.0
        )
        for lane in lanes:
            assert [c.hour for c in lane.controller.contexts] == [24, 25, 26]
            assert [c.day for c in lane.controller.contexts] == [1, 1, 1]

    def test_buffer_growth_beyond_initial_capacity(self):
        # _RowBuffer starts at 256 rows; 300 steps forces a regrowth.
        result = FleetEngine([make_lane(3.0)], step_seconds=1.0).run(300.0)
        assert result.n_steps == 300
        assert float(result.matrix("metric").sum()) == 900.0


class TestFleetResult:
    def run_fleet(self) -> FleetResult:
        lanes = [make_lane(float(i + 1), label=f"svc-{i}") for i in range(4)]
        return FleetEngine(lanes, step_seconds=10.0).run(50.0)

    def test_total_and_mean(self):
        result = self.run_fleet()
        total = result.total("metric")
        mean = result.mean("metric")
        assert total.name == "metric.total"
        assert mean.name == "metric.mean"
        assert total.values.tolist() == [10.0] * 5
        assert mean.values.tolist() == [2.5] * 5

    def test_lane_result_roundtrip(self):
        result = self.run_fleet()
        lane = result.lane_result(2)
        assert lane.label == "svc-2"
        assert set(lane.series) == {"metric", "load"}
        assert lane.series["metric"].values.tolist() == [3.0] * 5
        assert lane.series["metric"].times.tolist() == result.times.tolist()

    def test_lane_index_lookup(self):
        result = self.run_fleet()
        assert result.lane_index("svc-3") == 3
        with pytest.raises(KeyError):
            result.lane_index("missing")

    def test_unknown_series_rejected(self):
        result = self.run_fleet()
        with pytest.raises(KeyError):
            result.matrix("nope")

    def test_lane_out_of_range_rejected(self):
        result = self.run_fleet()
        with pytest.raises(IndexError):
            result.lane_result(4)
        with pytest.raises(IndexError):
            result.lane_series("metric", -1)


def make_schema_lane(
    observation: dict[str, float], label: str = "lane"
) -> FleetLane:
    return FleetLane(
        workload_fn=constant_workload,
        controller=RecordingController(),
        observe_fn=lambda ctx: dict(observation),
        label=label,
    )


class TestHeterogeneousFleet:
    """Mixed observation schemas batch into separate blocks."""

    def run_mixed(self) -> FleetResult:
        # Two schemas sharing one series name ("shared"), interleaved
        # so group membership is not contiguous in lane order.
        lanes = [
            make_schema_lane({"shared": 1.0, "out_only": 10.0}, label="out-0"),
            make_schema_lane({"shared": 2.0, "up_only": 20.0}, label="up-0"),
            make_schema_lane({"shared": 3.0, "out_only": 30.0}, label="out-1"),
            make_schema_lane({"shared": 4.0, "up_only": 40.0}, label="up-1"),
        ]
        return FleetEngine(lanes, step_seconds=10.0).run(30.0)

    def test_two_schema_groups(self):
        result = self.run_mixed()
        assert result.n_schemas == 2
        assert result.schemas == (
            ("shared", "out_only"),
            ("shared", "up_only"),
        )
        assert result.lane_schemas == (0, 1, 0, 1)
        assert result.schema_of(0) == ("shared", "out_only")
        assert result.schema_of(3) == ("shared", "up_only")

    def test_partial_series_matrix_covers_recording_lanes_only(self):
        result = self.run_mixed()
        assert result.matrix("out_only").shape == (3, 2)
        assert result.lanes_recording("out_only") == (0, 2)
        assert result.matrix("out_only")[0].tolist() == [10.0, 30.0]
        assert result.lanes_recording("up_only") == (1, 3)
        assert result.matrix("up_only")[0].tolist() == [20.0, 40.0]

    def test_shared_series_merged_in_global_lane_order(self):
        result = self.run_mixed()
        assert result.lanes_recording("shared") == (0, 1, 2, 3)
        assert result.matrix("shared").shape == (3, 4)
        assert result.matrix("shared")[0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_lane_block_accessor(self):
        result = self.run_mixed()
        schema, rows = result.lane_block(3)
        assert schema == ("shared", "up_only")
        assert rows.shape == (3, 2)
        np.testing.assert_array_equal(
            rows, np.tile([4.0, 40.0], (3, 1))
        )

    def test_lane_result_roundtrip_per_schema(self):
        result = self.run_mixed()
        out = result.lane_result(2)
        up = result.lane_result(1)
        assert set(out.series) == {"shared", "out_only"}
        assert set(up.series) == {"shared", "up_only"}
        assert out.series["out_only"].values.tolist() == [30.0] * 3
        assert up.series["up_only"].values.tolist() == [20.0] * 3

    def test_lane_series_of_foreign_schema_rejected(self):
        result = self.run_mixed()
        with pytest.raises(KeyError, match="does not record"):
            result.lane_series("up_only", 0)
        with pytest.raises(KeyError, match="does not record"):
            result.lane_series("out_only", 1)

    def test_totals_aggregate_over_recording_lanes(self):
        result = self.run_mixed()
        assert result.total("shared").values.tolist() == [10.0] * 3
        assert result.total("out_only").values.tolist() == [40.0] * 3
        assert result.mean("up_only").values.tolist() == [30.0] * 3

    def test_key_order_within_a_group_still_free(self):
        forward = make_schema_lane({"a": 1.0, "b": 2.0}, label="forward")
        backward = FleetLane(
            workload_fn=constant_workload,
            controller=RecordingController(),
            observe_fn=lambda ctx: {"b": 20.0, "a": 10.0},
            label="backward",
        )
        result = FleetEngine([forward, backward], step_seconds=10.0).run(10.0)
        assert result.n_schemas == 1
        assert result.matrix("a")[0].tolist() == [1.0, 10.0]

    def test_homogeneous_result_keeps_legacy_layout(self):
        lanes = [make_lane(float(i), label=f"svc-{i}") for i in range(3)]
        result = FleetEngine(lanes, step_seconds=10.0).run(20.0)
        assert result.n_schemas == 1
        assert result.lane_schemas == (0, 0, 0)
        assert result.matrix("metric").shape == (2, 3)
        assert result.lanes_recording("metric") == (0, 1, 2)

    def test_observation_key_order_does_not_matter(self):
        forward = FleetLane(
            workload_fn=constant_workload,
            controller=RecordingController(),
            observe_fn=lambda ctx: {"a": 1.0, "b": 2.0},
            label="forward",
        )
        backward = FleetLane(
            workload_fn=constant_workload,
            controller=RecordingController(),
            observe_fn=lambda ctx: {"b": 20.0, "a": 10.0},
            label="backward",
        )
        result = FleetEngine([forward, backward], step_seconds=10.0).run(10.0)
        assert result.matrix("a")[0].tolist() == [1.0, 10.0]
        assert result.matrix("b")[0].tolist() == [2.0, 20.0]


class TestProfilingQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProfilingQueue(slots=0)
        with pytest.raises(ValueError):
            ProfilingQueue(service_seconds=0.0)
        with pytest.raises(ValueError):
            ProfilingQueue(max_pending=-1)

    def test_uncontended_request_starts_immediately(self):
        queue = ProfilingQueue(slots=2, service_seconds=10.0)
        grant = queue.request(5.0)
        assert grant.accepted
        assert grant.wait_seconds == 0.0
        assert grant.finish_at == 15.0

    def test_contention_wait_bound(self):
        # K simultaneous requests on S slots: FIFO stacking bounds the
        # worst wait at (ceil(K/S) - 1) * service_seconds.
        queue = ProfilingQueue(slots=2, service_seconds=10.0)
        grants = [queue.request(0.0) for _ in range(7)]
        waits = [g.wait_seconds for g in grants]
        assert max(waits) == (int(np.ceil(7 / 2)) - 1) * 10.0
        assert min(waits) == 0.0
        # Work is conserved: every request occupies exactly one service.
        assert queue.busy_seconds == 7 * 10.0
        assert queue.max_depth == 7

    def test_depth_decays_as_queue_drains(self):
        queue = ProfilingQueue(slots=2, service_seconds=10.0)
        for _ in range(7):
            queue.request(0.0)
        assert queue.depth_at(0.0) == 7
        assert queue.depth_at(15.0) == 5
        assert queue.pending_at(15.0) == 3
        assert queue.depth_at(100.0) == 0

    def test_bounded_queue_rejects_overflow(self):
        # max_pending bounds the *waiters*: one request in service plus
        # at most two queued; everything beyond that is rejected.
        queue = ProfilingQueue(slots=1, service_seconds=10.0, max_pending=2)
        grants = [queue.request(0.0) for _ in range(6)]
        accepted = [g for g in grants if g.accepted]
        assert len(accepted) == 3
        assert queue.rejected == 3
        rejected = [g for g in grants if not g.accepted]
        assert all(g.wait_seconds == 0.0 for g in rejected)

    def test_zero_pending_bound_allows_only_immediate_starts(self):
        queue = ProfilingQueue(slots=1, service_seconds=10.0, max_pending=0)
        first = queue.request(0.0)
        second = queue.request(0.0)
        third = queue.request(10.0)  # slot free again
        assert first.accepted and third.accepted
        assert not second.accepted
        assert third.wait_seconds == 0.0

    def test_no_pending_overcount_at_large_time_boundaries(self):
        # At t ~ 1e9 s the rounding error of (free - t) is a few ulp
        # of t — far above any absolute epsilon.  With the old fixed
        # 1e-12 tolerance an exact service-multiple boundary rounded
        # *up*, pending_at overcounted, and a bounded queue rejected
        # requests it had room for.  The tolerance must scale with the
        # clock magnitude.
        t0 = 1.0e9 + 0.25
        queue = ProfilingQueue(slots=1, service_seconds=0.1, max_pending=2)
        first, second, third = (queue.request(t0) for _ in range(3))
        # The old code overcounted the two stacked services ahead of
        # the third request as three waiters and spuriously rejected
        # it despite max_pending having room.
        assert first.accepted and second.accepted and third.accepted
        # First done, second in service: exactly one waiter.
        assert queue.pending_at(first.finish_at) == 1
        fourth = queue.request(first.finish_at)
        assert fourth.accepted
        assert queue.rejected == 0
        # Fully drained at the last boundary.
        assert queue.pending_at(fourth.finish_at) == 0

    def test_small_time_boundaries_stay_exact(self):
        # The relative tolerance must not loosen the small-t behavior
        # the other tests pin: just *before* a boundary the request is
        # still outstanding, at the boundary it is gone.
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        grant = queue.request(0.0)
        assert queue.depth_at(grant.finish_at - 1e-9) == 1
        assert queue.depth_at(grant.finish_at) == 0

    def test_time_cannot_rewind(self):
        queue = ProfilingQueue()
        queue.request(10.0)
        with pytest.raises(ValueError, match="rewind"):
            queue.request(5.0)

    def test_utilization(self):
        queue = ProfilingQueue(slots=2, service_seconds=10.0)
        for _ in range(4):
            queue.request(0.0)
        assert queue.utilization(100.0) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            queue.utilization(0.0)

    def test_utilization_clipped_to_window(self):
        # A backlog scheduled past the end of the run cannot push the
        # reported utilization beyond 100%.
        queue = ProfilingQueue(slots=1, service_seconds=600.0)
        for _ in range(3):
            queue.request(0.0)  # scheduled 0-600, 600-1200, 1200-1800
        assert queue.utilization(1000.0) == pytest.approx(1.0)
        assert queue.utilization(2000.0) == pytest.approx(0.9)


class QueueAware(RecordingController):
    """A controller that charges the shared profiler itself."""

    queue = None

    def attach_profiling_queue(self, queue):
        self.queue = queue


class TestEngineProfilingQueue:
    def test_queue_with_queue_unaware_controller_raises(self):
        # A controller that cannot charge the shared profiler itself
        # has no place on a queued fleet: construction refuses it.
        with pytest.raises(ValueError, match="attach_profiling_queue"):
            FleetEngine(
                [make_lane(1.0)],
                step_seconds=10.0,
                profiling_queue=ProfilingQueue(),
            )

    def test_queue_attached_to_every_controller_without_wrapping(self):
        queue = ProfilingQueue()
        lanes = [make_lane(1.0, "a"), make_lane(2.0, "b")]
        for lane in lanes:
            lane.controller = QueueAware()
        engine = FleetEngine(lanes, step_seconds=10.0, profiling_queue=queue)
        assert engine.controllers == [lane.controller for lane in lanes]
        assert all(lane.controller.queue is queue for lane in lanes)

    def test_queue_refused_before_any_controller_is_attached(self):
        aware = make_lane(1.0, "aware")
        aware.controller = QueueAware()
        with pytest.raises(ValueError, match="'plain'"):
            FleetEngine(
                [aware, make_lane(2.0, "plain")],
                step_seconds=10.0,
                profiling_queue=ProfilingQueue(),
            )
        assert aware.controller.queue is None


class TestBatchProtocolProbe:
    def test_partial_batched_protocol_falls_back_to_scalar(self):
        # A controller offering only the PR 3-era prepare method is not
        # a batch candidate: it must keep stepping through on_step
        # instead of crashing mid-wave on the newer protocol surface.
        class OldProtocol:
            def __init__(self):
                self.stepped = 0

            def prepare_batched_adapt(self, ctx):  # pragma: no cover
                raise AssertionError("engine must not call this")

            def on_step(self, ctx):
                self.stepped += 1

        controller = OldProtocol()
        lane = FleetLane(
            workload_fn=constant_workload,
            controller=controller,
            observe_fn=lambda ctx: {"v": 1.0},
        )
        result = FleetEngine([lane], step_seconds=60.0).run(180.0)
        assert controller.stepped == 3
        assert result.n_steps == 3

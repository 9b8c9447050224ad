"""Counter-mode telemetry streams: determinism, vectorization, modes.

The load-bearing property is *collection invariance*: a lane's
telemetry noise in counter mode is a pure function of (fleet key, lane
key, salt, pass counter), so the same numbers come out scalar, batched
as a matrix row, or inside another process.  Legacy mode must stay
bit-identical to the pre-stream samplers.
"""

import numpy as np
import pytest

from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.telemetry.counters import HPCSampler
from repro.telemetry.monitor import Monitor
from repro.telemetry.streams import (
    CounterStream,
    TelemetryStreams,
    counter_normals,
    normals_block,
)
from repro.telemetry.xentop import XentopSampler
from repro.workloads.request_mix import (
    CASSANDRA_UPDATE_HEAVY,
    SPECWEB_SUPPORT,
    Workload,
)

WORKLOADS = [
    Workload(volume=150.0 + 25.0 * i, mix=mix)
    for i, mix in enumerate(
        [CASSANDRA_UPDATE_HEAVY, SPECWEB_SUPPORT, CASSANDRA_UPDATE_HEAVY]
    )
]


def counter_monitor(streams: TelemetryStreams, lane: int) -> Monitor:
    return Monitor(
        hpc=HPCSampler(stream=streams.stream(lane, salt=0)),
        xentop=XentopSampler(
            capacity_units=10.0, stream=streams.stream(lane, salt=1)
        ),
    )


class TestCounterStream:
    def test_same_identity_same_sequence(self):
        streams = TelemetryStreams(42)
        a = streams.stream(3)
        b = streams.stream(3)
        np.testing.assert_array_equal(a.normals(8), b.normals(8), strict=True)
        np.testing.assert_array_equal(a.normals(8), b.normals(8), strict=True)

    def test_lanes_salts_and_passes_are_independent(self):
        streams = TelemetryStreams(42)
        base = streams.stream(0).normals(8)
        assert not np.array_equal(streams.stream(1).normals(8), base)
        assert not np.array_equal(streams.stream(0, salt=1).normals(8), base)
        advanced = streams.stream(0)
        advanced.normals(8)
        assert not np.array_equal(advanced.normals(8), base)

    def test_different_seeds_different_keys(self):
        assert TelemetryStreams(0).key != TelemetryStreams(1).key

    def test_block_matches_scalar_draws(self):
        streams = TelemetryStreams(7)
        scalar = [streams.stream(lane).normals(6) for lane in range(5)]
        block = normals_block([streams.stream(lane) for lane in range(5)], 6)
        np.testing.assert_array_equal(block, np.stack(scalar), strict=True)

    def test_block_bumps_every_counter(self):
        streams = [TelemetryStreams(1).stream(lane) for lane in range(3)]
        normals_block(streams, 4)
        assert [stream.draws for stream in streams] == [1, 1, 1]

    def test_roughly_standard_normal(self):
        block = normals_block([TelemetryStreams(5).stream(0)], 200_000)[0]
        assert abs(block.mean()) < 0.01
        assert abs(block.std() - 1.0) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterStream(1, lane=-1)
        with pytest.raises(ValueError):
            CounterStream(1, lane=0, salt=-1)
        with pytest.raises(ValueError):
            normals_block([], 4)
        with pytest.raises(ValueError):
            counter_normals(
                np.zeros(1, dtype=np.uint64),
                np.zeros(1, dtype=np.uint64),
                np.zeros(1, dtype=np.uint64),
                np.zeros(1, dtype=np.uint64),
                0,
            )


class TestSamplerModes:
    def test_legacy_default_unchanged(self):
        # No stream given: the sampler behaves exactly as before.
        a = HPCSampler(seed=9).sample(WORKLOADS[0], 10.0)
        b = HPCSampler(seed=9).sample(WORKLOADS[0], 10.0)
        assert a["l2_st"].count == b["l2_st"].count
        assert HPCSampler(seed=9).rng_mode == "legacy"
        assert XentopSampler(seed=9).rng_mode == "legacy"

    def test_counter_mode_flag(self):
        streams = TelemetryStreams(0)
        assert HPCSampler(stream=streams.stream(0)).rng_mode == "counter"
        assert XentopSampler(stream=streams.stream(0)).rng_mode == "counter"

    def test_counter_dict_and_vector_paths_agree(self):
        streams = TelemetryStreams(3)
        m1 = counter_monitor(streams, 4)
        m2 = counter_monitor(streams, 4)
        metrics = m1.collect(WORKLOADS[0])
        vector = m2.collect_vector(WORKLOADS[0])
        np.testing.assert_array_equal(
            np.array([metrics[name] for name in m1.metric_names()]),
            vector,
            strict=True,
        )


class TestCollectMatrix:
    def test_counter_matrix_matches_scalar_rows(self):
        streams = TelemetryStreams(11)
        scalar_monitors = [counter_monitor(streams, lane) for lane in range(3)]
        matrix_monitors = [counter_monitor(streams, lane) for lane in range(3)]
        for _pass in range(3):  # alignment survives repeated passes
            scalar = np.stack(
                [
                    monitor.collect_vector(workload)
                    for monitor, workload in zip(scalar_monitors, WORKLOADS)
                ]
            )
            matrix = matrix_monitors[0].collect_matrix(
                WORKLOADS, monitors=matrix_monitors
            )
            np.testing.assert_array_equal(matrix, scalar, strict=True)

    def test_counter_matrix_with_interference(self):
        streams = TelemetryStreams(11)
        scalar_monitors = [counter_monitor(streams, lane) for lane in range(3)]
        matrix_monitors = [counter_monitor(streams, lane) for lane in range(3)]
        interferences = [0.0, 0.2, 0.4]
        scalar = np.stack(
            [
                monitor.collect_vector(workload, interference=interference)
                for monitor, workload, interference in zip(
                    scalar_monitors, WORKLOADS, interferences
                )
            ]
        )
        matrix = matrix_monitors[0].collect_matrix(
            WORKLOADS, interferences, monitors=matrix_monitors
        )
        np.testing.assert_array_equal(matrix, scalar, strict=True)

    def test_legacy_matrix_loops_per_sampler(self):
        scalar_monitors = [
            Monitor(
                hpc=HPCSampler(seed=lane),
                xentop=XentopSampler(capacity_units=10.0, seed=100 + lane),
            )
            for lane in range(3)
        ]
        matrix_monitors = [
            Monitor(
                hpc=HPCSampler(seed=lane),
                xentop=XentopSampler(capacity_units=10.0, seed=100 + lane),
            )
            for lane in range(3)
        ]
        scalar = np.stack(
            [
                monitor.collect_vector(workload)
                for monitor, workload in zip(scalar_monitors, WORKLOADS)
            ]
        )
        matrix = matrix_monitors[0].collect_matrix(
            WORKLOADS, monitors=matrix_monitors
        )
        np.testing.assert_array_equal(matrix, scalar, strict=True)

    def test_incompatible_monitors_rejected(self):
        streams = TelemetryStreams(0)
        counter = counter_monitor(streams, 0)
        legacy = Monitor(
            hpc=HPCSampler(seed=0),
            xentop=XentopSampler(capacity_units=10.0, seed=1),
        )
        with pytest.raises(ValueError, match="compatible"):
            counter.collect_matrix(WORKLOADS[:2], monitors=[counter, legacy])

    def test_shape_validation(self):
        streams = TelemetryStreams(0)
        monitor = counter_monitor(streams, 0)
        with pytest.raises(ValueError, match="workload"):
            monitor.collect_matrix([])
        with pytest.raises(ValueError, match="monitors"):
            monitor.collect_matrix(WORKLOADS, monitors=[monitor])
        with pytest.raises(ValueError, match="interference"):
            monitor.collect_matrix(WORKLOADS[:2], [0.1])


class TestCollectBlock:
    """One learning day's profiling sweep as one block."""

    @staticmethod
    def successive(monitor, passes):
        return np.stack(
            [
                monitor.collect_vector(workload)
                for workload in WORKLOADS
                for _ in range(passes)
            ]
        )

    @pytest.mark.parametrize("mode", ["counter", "legacy"])
    def test_block_matches_successive_passes(self, mode):
        def build():
            if mode == "counter":
                return counter_monitor(TelemetryStreams(5), 2)
            return Monitor(
                hpc=HPCSampler(seed=3),
                xentop=XentopSampler(capacity_units=10.0, seed=4),
            )

        scalar, block = build(), build()
        for _round in range(2):  # streams end aligned, too
            np.testing.assert_array_equal(
                block.collect_block(WORKLOADS, 4),
                self.successive(scalar, 4),
                strict=True,
            )

    def test_counter_streams_advance_one_pass_per_row(self):
        monitor = counter_monitor(TelemetryStreams(5), 2)
        monitor.hpc.stream.draws = 7
        block = monitor.collect_block(WORKLOADS, 5)
        assert block.shape == (15, len(monitor.metric_names()))
        assert monitor.hpc.stream.draws == 7 + 15
        assert monitor.xentop.stream.draws == 15
        # Every pass draws its own noise, so no two rows coincide.
        assert np.unique(block, axis=0).shape[0] == 15

    def test_normals_passes_match_successive_normals(self):
        block_stream = CounterStream(key=9, lane=1, salt=1)
        scalar_stream = CounterStream(key=9, lane=1, salt=1)
        block = block_stream.normals_passes(6, 4)
        scalar = np.stack([scalar_stream.normals(4) for _ in range(6)])
        np.testing.assert_array_equal(block, scalar, strict=True)
        assert block_stream.draws == scalar_stream.draws == 6

    def test_shared_stream_rejected(self):
        stream = CounterStream(key=1, lane=0)
        monitor = Monitor(
            hpc=HPCSampler(stream=stream),
            xentop=XentopSampler(capacity_units=10.0, stream=stream),
        )
        with pytest.raises(ValueError, match="separate"):
            monitor.collect_block(WORKLOADS, 2)


class TestFleetRngEquivalence:
    """The tentpole pins: legacy batched == scalar stays bit-identical,
    and counter scalar == batched == sharded (test_fleet_shard.py pins
    the sharded leg)."""

    def assert_same_fleet(self, a, b):
        assert a.result.series_names() == b.result.series_names()
        assert a.result.n_steps > 0
        for name in a.result.series_names():
            np.testing.assert_array_equal(
                a.result.matrix(name),
                b.result.matrix(name),
                strict=True,
                err_msg=name,
            )
        assert a.lane_events == b.lane_events
        assert any(a.lane_events)

    def test_batched_equals_scalar(self):
        batched = run_fleet_multiplexing_study(
            n_lanes=4, hours=6.0, batched=True
        )
        scalar = run_fleet_multiplexing_study(
            n_lanes=4, hours=6.0, batched=False
        )
        self.assert_same_fleet(batched, scalar)

    def test_counter_is_the_fleet_default(self):
        # Counter-mode streams are the fleet's only telemetry
        # discipline: no setting switches back to the sequential
        # per-sampler generators.
        with pytest.raises(TypeError, match="rng_mode"):
            run_fleet_multiplexing_study(
                n_lanes=2, hours=2.0, rng_mode="counter"
            )

    def test_stride_zero_lanes_stay_identical_in_counter_mode(self):
        # lane_key = lane * stride, so stride 0 keys every lane's
        # streams identically — the determinism property fleets use.
        study = run_fleet_multiplexing_study(
            n_lanes=2,
            hours=2.0,
            lane_seed_stride=0,
            profiling_slots=2,
        )
        matrix = study.result.matrix("latency_ms")
        assert matrix[:, 0].tolist() == matrix[:, 1].tolist()


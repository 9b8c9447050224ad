"""Telemetry noise streams: determinism, vectorization, both kinds.

The load-bearing property is *collection invariance*: a lane's
telemetry noise on a counter stream is a pure function of (fleet key,
lane key, salt, pass counter), so the same numbers come out scalar,
batched as a matrix row, or inside another process.  A sequential
stream must stay bit-identical to the per-sampler
``numpy.random.Generator.normal`` draws the paper experiments were
pinned on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.sim.fleet import FleetEngine
from repro.telemetry import streams as streams_module
from repro.telemetry.counters import (
    HARDWARE_REGISTERS,
    MULTIPLEX_NOISE_SD,
    HPCSampler,
)
from repro.telemetry.events import TABLE1_EVENTS, event_by_name
from repro.telemetry.monitor import Monitor
from repro.telemetry.streams import (
    CounterStream,
    SequentialStream,
    TelemetryStreams,
    counter_normals,
    normals_block,
)
from repro.telemetry.xentop import XENTOP_METRICS, XentopSampler
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


_workload = st.builds(
    Workload,
    volume=st.floats(20.0, 600.0),
    mix=st.sampled_from([CASSANDRA_UPDATE_HEAVY, SPECWEB_SUPPORT]),
)


def counter_monitor(streams: TelemetryStreams, lane: int) -> Monitor:
    return Monitor(
        hpc=HPCSampler(stream=streams.stream(lane, salt=0)),
        xentop=XentopSampler(
            capacity_units=10.0, stream=streams.stream(lane, salt=1)
        ),
    )


def collected(monitor: Monitor, workload: Workload, interference: float = 0.0):
    """One scalar monitoring pass (the dict path) in metric_names order."""
    metrics = monitor.collect(workload, interference=interference)
    return np.array([metrics[name] for name in monitor.metric_names()])


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


class TestSamplerStreams:
    def test_seed_is_shorthand_for_a_sequential_stream(self):
        # No stream given: the sampler draws from SequentialStream(seed).
        assert isinstance(HPCSampler(seed=9).stream, SequentialStream)
        assert isinstance(XentopSampler(seed=9).stream, SequentialStream)
        a = HPCSampler(seed=9).sample(WORKLOADS[0], 10.0)
        b = HPCSampler(stream=SequentialStream(9)).sample(WORKLOADS[0], 10.0)
        assert a == b
        x = XentopSampler(seed=9).sample(WORKLOADS[0])
        y = XentopSampler(stream=SequentialStream(9)).sample(WORKLOADS[0])
        assert x == y
        assert a != HPCSampler(seed=10).sample(WORKLOADS[0], 10.0)

    def test_given_stream_is_kept_and_seed_ignored(self):
        streams = TelemetryStreams(0)
        hpc_stream, xentop_stream = streams.stream(0), streams.stream(0, salt=1)
        hpc = HPCSampler(seed=5, stream=hpc_stream)
        xentop = XentopSampler(seed=5, stream=xentop_stream)
        assert hpc.stream is hpc_stream and xentop.stream is xentop_stream
        reference = CounterStream(streams.key, 0)
        assert hpc.sample(WORKLOADS[0], 10.0) == HPCSampler(
            stream=reference
        ).sample(WORKLOADS[0], 10.0)
        assert hpc_stream.draws == reference.draws == 1

    def test_sequential_passes_match_generator_normal(self):
        # The identity the sequential stream rests on: one pass scaled
        # by a deviation vector is Generator.normal(0.0, sds), bit for
        # bit, per pass and per block.
        sds = np.linspace(0.01, 0.3, 60)
        for seed in range(20):
            stream, rng = SequentialStream(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                1.0 + stream.normals(60) * sds,
                1.0 + rng.normal(0.0, sds),
                strict=True,
            )
            np.testing.assert_array_equal(
                1.0 + stream.normals_passes(4, 60) * sds,
                1.0 + rng.normal(0.0, sds, size=(4, 60)),
                strict=True,
            )

    def test_normals_block_draws_sequential_streams_in_row_order(self):
        block = normals_block([SequentialStream(1), SequentialStream(2)], 5)
        expected = [np.random.default_rng(s).standard_normal(5) for s in (1, 2)]
        np.testing.assert_array_equal(block, np.stack(expected), strict=True)

    def test_counter_dict_and_vector_paths_agree(self):
        streams = TelemetryStreams(3)
        m1 = counter_monitor(streams, 4)
        m2 = counter_monitor(streams, 4)
        metrics = m1.collect(WORKLOADS[0])
        vector = m2.collect_matrix([WORKLOADS[0]], monitors=[m2])[0]
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
                    collected(monitor, workload)
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
                collected(monitor, workload, interference)
                for monitor, workload, interference in zip(
                    scalar_monitors, WORKLOADS, interferences
                )
            ]
        )
        matrix = matrix_monitors[0].collect_matrix(
            WORKLOADS, interferences, monitors=matrix_monitors
        )
        np.testing.assert_array_equal(matrix, scalar, strict=True)

    def test_sequential_matrix_matches_scalar_rows(self):
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
                collected(monitor, workload)
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
        pair = [monitor, counter_monitor(streams, 1)]
        with pytest.raises(ValueError, match="workload"):
            monitor.collect_matrix([], monitors=[])
        with pytest.raises(ValueError, match="monitors"):
            monitor.collect_matrix(WORKLOADS, monitors=[monitor])
        with pytest.raises(ValueError, match="interference"):
            monitor.collect_matrix(WORKLOADS[:2], [0.1], monitors=pair)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.0, float("inf")])
    def test_interference_outside_unit_interval_rejected(self, bad):
        # The matrix path rejects what the scalar path rejects, NaN
        # included, with the same message and before any stream moves.
        streams = TelemetryStreams(1)
        pair = [counter_monitor(streams, 0), counter_monitor(streams, 1)]
        with pytest.raises(ValueError) as scalar:
            pair[0].collect(WORKLOADS[0], interference=bad)
        assert str(scalar.value) == f"interference out of [0,1): {bad}"
        for columns in (None, [0], [60]):
            with pytest.raises(ValueError) as matrix:
                pair[0].collect_matrix(
                    WORKLOADS[:2], [0.1, bad], monitors=pair, columns=columns
                )
            assert str(matrix.value) == str(scalar.value)
        for monitor in pair:
            assert monitor.hpc.stream.draws == monitor.xentop.stream.draws == 0

    def test_repeated_monitor_rejected(self):
        # One block draw reads every row's stream before advancing any,
        # so a monitor listed twice would get the same noise on both
        # rows instead of two successive passes.
        monitor = counter_monitor(TelemetryStreams(1), 0)
        with pytest.raises(TypeError, match="monitors"):
            monitor.collect_matrix(WORKLOADS)
        with pytest.raises(ValueError, match="distinct"):
            monitor.collect_matrix(WORKLOADS, monitors=[monitor] * 3)
        assert monitor.hpc.stream.draws == monitor.xentop.stream.draws == 0


def twin_monitors(kind: str, n: int, multiplexed: bool) -> list[Monitor]:
    """``n`` distinct monitors; two calls build identical twins."""
    events = None if multiplexed else list(TABLE1_EVENTS[:HARDWARE_REGISTERS])
    if kind == "counter":
        streams = TelemetryStreams(17)
        return [
            Monitor(
                hpc=HPCSampler(
                    events=events, stream=streams.stream(lane, salt=0)
                ),
                xentop=XentopSampler(
                    capacity_units=10.0, stream=streams.stream(lane, salt=1)
                ),
            )
            for lane in range(n)
        ]
    return [
        Monitor(
            hpc=HPCSampler(events=events, seed=lane),
            xentop=XentopSampler(capacity_units=10.0, seed=1000 + lane),
        )
        for lane in range(n)
    ]


class TestCollectColumns:
    """``collect_matrix(columns=c)`` is ``collect_matrix()[:, c]``, bit
    for bit, evaluating only ``c``, and leaves every stream where the
    full collection leaves it."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["counter", "sequential"]),
        multiplexed=st.booleans(),
        rows=st.lists(
            st.tuples(_workload, st.sampled_from([0.0, 0.15, 0.6])),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_columns_equal_full_collection_sliced(
        self, kind, multiplexed, rows, data
    ):
        full_monitors = twin_monitors(kind, len(rows), multiplexed)
        column_monitors = twin_monitors(kind, len(rows), multiplexed)
        n_hpc = len(full_monitors[0].hpc.monitored)
        n_metrics = n_hpc + len(XENTOP_METRICS)
        columns = data.draw(
            st.one_of(
                st.lists(st.integers(0, n_metrics - 1), min_size=1, max_size=20),
                st.lists(st.integers(0, n_hpc - 1), min_size=1, max_size=8),
                st.lists(
                    st.integers(n_hpc, n_metrics - 1), min_size=1, max_size=5
                ),
                st.integers(0, n_metrics - 1).map(lambda c: [c]),
            ),
            label="columns",
        )
        workloads = [w for w, _ in rows]
        interferences = [i for _, i in rows]
        for _pass in range(2):  # streams stay aligned pass after pass
            full = full_monitors[0].collect_matrix(
                workloads, interferences, monitors=full_monitors
            )
            picked = column_monitors[0].collect_matrix(
                workloads,
                interferences,
                monitors=column_monitors,
                columns=columns,
            )
            np.testing.assert_array_equal(picked, full[:, columns], strict=True)
        # Every sampler's stream advanced one pass per collection, also
        # a sampler none of whose metrics was asked for: the same
        # counter, or the same next draw.
        for a, b in zip(full_monitors, column_monitors):
            for sampler in ("hpc", "xentop"):
                sa = getattr(a, sampler).stream
                sb = getattr(b, sampler).stream
                if kind == "counter":
                    assert sa.draws == sb.draws == 2
                else:
                    np.testing.assert_array_equal(
                        sa.normals(3), sb.normals(3), strict=True
                    )

    @pytest.mark.parametrize(
        "columns",
        [[65], [-1], [0, 70], [1.0], [0.5, 2], ["3"], [True], [], [[0, 1]]],
    )
    def test_bad_columns_rejected(self, columns):
        monitor = counter_monitor(TelemetryStreams(2), 0)
        with pytest.raises(ValueError, match="columns"):
            monitor.collect_matrix(
                WORKLOADS[:1], monitors=[monitor], columns=columns
            )
        assert monitor.hpc.stream.draws == monitor.xentop.stream.draws == 0


class TestCollectBlock:
    """One learning day's profiling sweep as one block."""

    @staticmethod
    def successive(monitor, passes):
        return np.stack(
            [
                collected(monitor, workload)
                for workload in WORKLOADS
                for _ in range(passes)
            ]
        )

    @pytest.mark.parametrize("kind", ["counter", "sequential"])
    def test_block_matches_successive_passes(self, kind):
        def build():
            if kind == "counter":
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


class SequentialReference:
    """One monitor's readings restated inline: the noise-free formulas
    plus ``numpy.random.default_rng(seed).normal(0.0, sds)`` per pass,
    one generator per sampler — the samplers before they held streams.
    """

    XENTOP_SDS = np.array([0.02, 0.02, 0.03, 0.03, 0.03])

    def __init__(self, events, hpc_seed, xentop_seed, capacity):
        chosen = [event_by_name(name) for name in events]
        self.weights = np.array([e.weights for e in chosen], dtype=float)
        self.baselines = np.array([e.baseline for e in chosen])
        extra = MULTIPLEX_NOISE_SD if len(chosen) > HARDWARE_REGISTERS else 0.0
        self.hpc_sds = np.array([e.noise_sd for e in chosen]) + extra
        self.hpc_rng = np.random.default_rng(hpc_seed)
        self.xentop_rng = np.random.default_rng(xentop_seed)
        self.capacity = capacity

    def counts(self, workload, window, interference):
        activity = np.asarray(workload.mix.activity_vector())
        rates = (
            self.baselines
            + (self.weights * activity).sum(axis=1) * workload.demand_units
        )
        if interference > 0:
            coupling = np.abs(self.weights[:, 1]) / 10.0
            rates = rates * (1.0 + interference * (0.5 + coupling))
        noise = self.hpc_rng.normal(0.0, self.hpc_sds)
        return np.maximum(0.0, rates * (1.0 + noise)) * window

    def xentop(self, workload, interference):
        mix, demand = workload.mix, workload.demand_units
        rho = demand / (self.capacity * (1.0 - interference))
        rx = 80.0 * demand
        clean = np.array(
            [
                min(100.0, 100.0 * rho * (0.6 + 0.4 * mix.cpu_intensity)),
                min(100.0, 25.0 + 60.0 * rho * mix.memory_intensity),
                rx,
                rx * (6.0 + 6.0 * mix.read_fraction),
                900.0 * demand * (0.3 + 0.7 * mix.io_intensity),
            ]
        )
        noise = self.xentop_rng.normal(0.0, self.XENTOP_SDS)
        return np.maximum(0.0, clean * (1.0 + noise))

    def vector(self, workload, window, interference):
        rates = self.counts(workload, window, interference) / window
        return np.concatenate([rates, self.xentop(workload, interference)])


ENTRY_POINTS = (
    "sample",
    "sample_rates_matrix",
    "sample_vector",
    "xentop_sample",
    "sample_rates_block",
    "sample_block",
    "collect_block",
    "collect_matrix",
)

_interference = st.sampled_from([0.0, 0.0, 0.15, 0.6])
_call = st.tuples(
    st.sampled_from(ENTRY_POINTS),
    st.integers(0, 2),  # the monitor (collect_matrix: the first row's)
    st.lists(st.tuples(_workload, _interference), min_size=1, max_size=3),
    st.integers(1, 3),  # passes per workload (block entry points)
)


class TestSequentialStreamReference:
    """Every entry point on sequential streams, in any call order, stays
    bit-identical to the inline per-sampler generator reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multiplexed=st.booleans(),
        window=st.sampled_from([1.0, 10.0, 7.5]),
        calls=st.lists(_call, min_size=1, max_size=6),
    )
    def test_matches_inline_generator_reference(
        self, seed, multiplexed, window, calls
    ):
        events = None if multiplexed else list(TABLE1_EVENTS[:HARDWARE_REGISTERS])
        monitors, refs = [], []
        for m in range(3):
            hpc_seed, xentop_seed = seed + 2 * m, seed + 2 * m + 1
            monitors.append(
                Monitor(
                    hpc=HPCSampler(events=events, seed=hpc_seed),
                    xentop=XentopSampler(capacity_units=10.0, seed=xentop_seed),
                    window_seconds=window,
                )
            )
            refs.append(
                SequentialReference(
                    monitors[m].hpc.monitored, hpc_seed, xentop_seed, 10.0
                )
            )

        def same(got, expected):
            np.testing.assert_array_equal(got, expected, strict=True)

        for entry, m, rows, passes in calls:
            monitor, ref = monitors[m], refs[m]
            hpc, xentop = monitor.hpc, monitor.xentop
            workload, interference = rows[0]
            workloads = [w for w, _ in rows]
            if entry == "sample":
                got = hpc.sample(workload, window, interference=interference)
                expected = ref.counts(workload, window, interference)
                same(np.array([got[name].count for name in hpc.monitored]), expected)
            elif entry == "sample_rates_matrix":
                same(
                    HPCSampler.sample_rates_matrix(
                        [hpc], [workload], window, np.array([interference])
                    )[0],
                    ref.counts(workload, window, interference) / window,
                )
            elif entry == "sample_vector":
                same(
                    xentop.sample_vector(workload, interference=interference),
                    ref.xentop(workload, interference),
                )
            elif entry == "xentop_sample":
                got = xentop.sample(workload, interference=interference)
                same(
                    np.array([got[name] for name in XENTOP_METRICS]),
                    ref.xentop(workload, interference),
                )
            elif entry == "sample_rates_block":
                same(
                    hpc.sample_rates_block(workloads, passes, window),
                    np.stack(
                        [
                            ref.counts(w, window, 0.0) / window
                            for w in workloads
                            for _ in range(passes)
                        ]
                    ),
                )
            elif entry == "sample_block":
                same(
                    xentop.sample_block(workloads, passes),
                    np.stack(
                        [ref.xentop(w, 0.0) for w in workloads for _ in range(passes)]
                    ),
                )
            elif entry == "collect_block":
                same(
                    monitor.collect_block(workloads, passes),
                    np.stack(
                        [
                            ref.vector(w, window, 0.0)
                            for w in workloads
                            for _ in range(passes)
                        ]
                    ),
                )
            else:
                order = [(m + r) % 3 for r in range(len(rows))]
                same(
                    monitor.collect_matrix(
                        workloads,
                        [i for _, i in rows],
                        monitors=[monitors[k] for k in order],
                    ),
                    np.stack(
                        [
                            refs[k].vector(w, window, i)
                            for k, (w, i) in zip(order, rows)
                        ]
                    ),
                )


class TestFleetRngEquivalence:
    """Counter-stream fleets: scalar == batched == sharded, bit for bit
    (test_fleet_shard.py pins the sharded leg)."""

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



class TestSignatureOnlyWave:
    def test_wave_evaluates_each_groups_signature_width(self, monkeypatch):
        # The noise kernel is the wave's per-element cost: each
        # shared-model group's collection must evaluate exactly its
        # rows times its signature width, never the monitor's 65.
        kernel_calls: list[tuple[int, int]] = []
        kernel = streams_module.pass_normals

        def spy(mixes, draws, columns):
            kernel_calls.append((mixes.size, columns.size))
            return kernel(mixes, draws, columns)

        monkeypatch.setattr(streams_module, "pass_normals", spy)
        waves = []
        collect = FleetEngine._collect_wave_signatures

        def traced(self, gated, workloads):
            kernel_calls.clear()
            groups = collect(self, gated, workloads)
            controllers = self._table.controllers
            expected = [
                (len(rows), controllers[rows[0]].signature_columns().size)
                for rows, _X in groups
            ]
            assert [X.shape for _rows, X in groups] == expected
            waves.append((list(kernel_calls), expected))
            return groups

        monkeypatch.setattr(FleetEngine, "_collect_wave_signatures", traced)
        run_fleet_multiplexing_study(n_lanes=6, hours=6.0, mix="mixed")
        assert waves
        for calls, expected in waves:
            remaining = iter(calls)
            for rows, width in expected:
                assert 0 < width < 65
                evaluated = 0
                while evaluated < width:
                    kernel_rows, kernel_width = next(remaining)
                    assert kernel_rows == rows
                    evaluated += kernel_width
                assert evaluated == width
            assert next(remaining, None) is None

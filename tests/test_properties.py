"""Property-based tests (hypothesis) on core invariants."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation
from repro.core.clustering import KMeans
from repro.core.feature_selection import abs_correlations, correlation_ratios
from repro.core.interference import quantize_index
from repro.core.repository import AllocationRepository
from repro.core.signature import Standardizer
from repro.core.tuner import LinearSearchTuner, scale_out_candidates
from repro.services.perf_model import QueueingModel
from repro.services.cassandra import CassandraService
from repro.sim.result import TimeSeries
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
demands = st.floats(min_value=0.0, max_value=50.0)
capacities = st.floats(min_value=0.1, max_value=50.0)
interferences = st.floats(min_value=0.0, max_value=0.9)


class TestQueueingModelProperties:
    @given(demand=demands, capacity=capacities, interference=interferences)
    def test_latency_bounded(self, demand, capacity, interference):
        model = QueueingModel()
        latency = model.latency_ms(demand, capacity, interference)
        assert model.base_latency_ms <= latency <= model.max_latency_ms

    @given(demand=demands, capacity=capacities)
    def test_interference_never_helps(self, demand, capacity):
        model = QueueingModel()
        clean = model.latency_ms(demand, capacity)
        degraded = model.latency_ms(demand, capacity, interference=0.3)
        assert degraded >= clean

    @given(
        demand=demands,
        small=capacities,
        extra=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_more_capacity_never_hurts(self, demand, small, extra):
        model = QueueingModel()
        assert model.latency_ms(demand, small + extra) <= model.latency_ms(
            demand, small
        )

    @given(
        d1=demands,
        d2=demands,
        capacity=capacities,
    )
    def test_monotone_in_demand(self, d1, d2, capacity):
        model = QueueingModel()
        low, high = sorted((d1, d2))
        assert model.latency_ms(low, capacity) <= model.latency_ms(high, capacity)


class TestTunerProperties:
    @given(demand=st.floats(min_value=0.01, max_value=5.9))
    @settings(max_examples=30, deadline=None)
    def test_tuned_allocation_meets_slo_in_isolation(self, demand):
        service = CassandraService()
        tuner = LinearSearchTuner(service, scale_out_candidates(10))
        workload = Workload(
            volume=demand / CASSANDRA_UPDATE_HEAVY.demand_per_client,
            mix=CASSANDRA_UPDATE_HEAVY,
        )
        outcome = tuner.tune(workload)
        if outcome.met_slo:
            sample = service.performance(workload, outcome.allocation.capacity_units)
            assert service.slo.is_met(sample.latency_ms)

    @given(demand=st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_minimality(self, demand):
        # No cheaper candidate would also satisfy the margin criterion.
        service = CassandraService()
        tuner = LinearSearchTuner(
            service, scale_out_candidates(10), latency_margin=0.85
        )
        workload = Workload(
            volume=demand / CASSANDRA_UPDATE_HEAVY.demand_per_client,
            mix=CASSANDRA_UPDATE_HEAVY,
        )
        outcome = tuner.tune(workload)
        if outcome.met_slo and outcome.allocation.count > 1:
            smaller = Allocation(count=outcome.allocation.count - 1, itype=LARGE)
            sample = service.performance(workload, smaller.capacity_units)
            assert sample.latency_ms > service.slo.bound_ms * 0.85


class TestStandardizerProperties:
    @given(
        data=st.lists(
            st.lists(finite_floats, min_size=3, max_size=3),
            min_size=2,
            max_size=40,
        )
    )
    def test_transform_is_affine_invertible_shift(self, data):
        X = np.asarray(data)
        standardizer = Standardizer().fit(X)
        Z = standardizer.transform(X)
        # Re-standardizing standardized data is a no-op (idempotence up
        # to the constant-feature convention).
        Z2 = Standardizer().fit_transform(Z)
        assert np.allclose(Z, Z2, atol=1e-6)


class TestTimeSeriesProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_integral_matches_manual_sum(self, values):
        series = TimeSeries("x", np.arange(len(values), dtype=float), values)
        manual = sum(values[:-1])
        assert series.integrate() == pytest.approx(manual, rel=1e-9, abs=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        threshold=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_fractions_complementary(self, values, threshold):
        series = TimeSeries("x", np.arange(len(values), dtype=float), values)
        above = series.fraction_above(threshold)
        below = series.fraction_below(threshold)
        at = np.mean(np.asarray(values) == threshold)
        assert above + below + at == pytest.approx(1.0)


def _list_reference(times, values):
    """The seed recorder's list semantics, restated: the series was two
    Python lists appended one sample at a time, read by bisect, by a
    sample-by-sample window filter and by a left-to-right sum."""
    times = [float(t) for t in times]
    values = [float(v) for v in values]

    def value_at(t):
        if not times:
            raise ValueError("empty")
        idx = bisect_right(times, t) - 1
        if idx < 0:
            raise ValueError("before the first sample")
        return values[idx]

    def window(t_start, t_end):
        return [(t, v) for t, v in zip(times, values) if t_start <= t < t_end]

    def integrate():
        pairs = list(zip(times, values))
        total = 0.0
        for (t0, v0), (t1, _v1) in zip(pairs, pairs[1:]):
            total += v0 * (t1 - t0)
        return total

    return value_at, window, integrate


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def series_and_probes(draw):
    """Sorted sample times with duplicates, and probe times on samples,
    between them and outside the series."""
    ticks = sorted(draw(st.lists(st.integers(0, 30), max_size=40)))
    step = draw(st.floats(min_value=0.1, max_value=1e4))
    times = [tick * step for tick in ticks]
    values = draw(
        st.lists(finite_floats, min_size=len(times), max_size=len(times))
    )
    probe = st.one_of(
        st.integers(-2, 33).map(lambda tick: tick * step),  # on the grid
        st.integers(-2, 33).map(lambda tick: (tick + 0.5) * step),  # between
        st.floats(min_value=-1e6, max_value=1e6),
    )
    if times:
        probe = st.one_of(probe, st.sampled_from(times))
    probes = draw(st.lists(probe, min_size=1, max_size=6))
    lo, hi = sorted(draw(st.tuples(probe, probe)))
    empty_at = draw(probe)
    return times, values, probes, (lo, hi), empty_at


class TestTimeSeriesMatchesListSemantics:
    """The array series gives bit for bit what the seed engine's
    append-only list recorder gave."""

    @settings(max_examples=200, deadline=None)
    @given(case=series_and_probes(), threshold=finite_floats)
    def test_array_series_equals_list_recorder(self, case, threshold):
        times, values, probes, (lo, hi), empty_at = case
        series = TimeSeries("x", times, values)
        value_at, window, integrate = _list_reference(times, values)

        assert list(series) == list(zip(times, values))
        assert _bits(series.integrate()) == _bits(integrate())
        for t in probes:
            try:
                expected = value_at(t)
            except ValueError:
                with pytest.raises(ValueError):
                    series.value_at(t)
            else:
                assert _bits(series.value_at(t)) == _bits(expected)

        assert list(series.window(lo, hi)) == window(lo, hi)
        assert list(series.window(empty_at, empty_at)) == []

        if values:
            assert _bits(series.mean()) == _bits(float(np.mean(values)))
            assert _bits(series.max()) == _bits(float(np.max(values)))
            assert _bits(series.fraction_above(threshold)) == _bits(
                float(np.mean(np.asarray(values) > threshold))
            )
            assert _bits(series.fraction_below(threshold)) == _bits(
                float(np.mean(np.asarray(values) < threshold))
            )
        else:
            for aggregate in (series.mean, series.max):
                with pytest.raises(ValueError):
                    aggregate()


class TestCorrelationProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=60,
        )
    )
    def test_correlation_ratio_in_unit_interval(self, values):
        labels = np.arange(len(values)) % 2
        eta = correlation_ratios(np.asarray(values)[:, None], labels)[0]
        assert 0.0 <= eta <= 1.0

    @given(
        x=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=40,
        )
    )
    def test_abs_pearson_in_unit_interval(self, x):
        y = np.arange(len(x), dtype=float)
        r = abs_correlations(np.column_stack([x, y]))[0, 1]
        assert 0.0 <= r <= 1.0 + 1e-9


class TestKMeansProperties:
    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_labels_match_nearest_centroid(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [rng.normal(0, 1, (10, 2)), rng.normal(8, 1, (10, 2))]
        )
        model = KMeans(k=2, seed=seed).fit(X)
        labels = model.predict(X)
        for i, point in enumerate(X):
            distances = np.linalg.norm(model.centroids - point, axis=1)
            assert labels[i] == np.argmin(distances)


class TestQuantizeProperties:
    @given(index=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_band_monotone_in_index(self, index):
        assert quantize_index(index) <= quantize_index(index + 0.5)


class TestRepositoryProperties:
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_last_write_wins(self, keys):
        repo = AllocationRepository()
        expected = {}
        for cls, band, count in keys:
            repo.store(cls, band, Allocation(count=count, itype=LARGE))
            expected[(cls, band)] = count
        for (cls, band), count in expected.items():
            entry = repo.lookup(cls, band)
            assert entry is not None
            assert entry.allocation.count == count


class TestAllocationProperties:
    @given(
        count=st.integers(min_value=0, max_value=100),
        use_xl=st.booleans(),
    )
    def test_cost_scales_linearly(self, count, use_xl):
        itype = EXTRA_LARGE if use_xl else LARGE
        allocation = Allocation(count=count, itype=itype)
        assert allocation.hourly_cost == pytest.approx(count * itype.price_per_hour)
        assert allocation.capacity_units == pytest.approx(
            count * itype.capacity_units
        )

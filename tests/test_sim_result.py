"""Unit tests for recorded time series."""

import numpy as np
import pytest

from repro.sim.fleet import FleetResult
from repro.sim.result import SimulationResult, TimeSeries


def series_of(*samples, name="x"):
    """A series from ``(t, value)`` pairs."""
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    return TimeSeries(name, times, values)


class TestTimeSeries:
    def test_construct_and_len(self):
        assert len(series_of((0.0, 1.0), (1.0, 2.0))) == 2

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out-of-order"):
            series_of((5.0, 1.0), (4.0, 1.0))

    def test_equal_times_allowed(self):
        assert len(series_of((5.0, 1.0), (5.0, 2.0))) == 2

    def test_iteration_yields_pairs(self):
        series = series_of((0.0, 1.0), (2.0, 3.0))
        assert list(series) == [(0.0, 1.0), (2.0, 3.0)]

    def test_times_and_values_arrays(self):
        series = series_of((0.0, 1.0), (1.0, 4.0))
        assert np.allclose(series.times, [0.0, 1.0])
        assert np.allclose(series.values, [1.0, 4.0])

    def test_value_at_step_hold(self):
        series = series_of((0.0, 1.0), (10.0, 2.0))
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(100.0) == 2.0

    def test_value_at_before_first_sample_fails(self):
        with pytest.raises(ValueError):
            series_of((5.0, 1.0)).value_at(4.0)

    def test_value_at_empty_fails(self):
        with pytest.raises(ValueError):
            series_of().value_at(0.0)

    def test_window_half_open(self):
        series = series_of(*((float(t), float(t)) for t in range(5)))
        windowed = series.window(1.0, 3.0)
        assert list(windowed) == [(1.0, 1.0), (2.0, 2.0)]

    def test_window_bad_bounds(self):
        with pytest.raises(ValueError):
            series_of().window(3.0, 1.0)

    def test_mean_and_max(self):
        series = series_of((0.0, 1.0), (1.0, 3.0))
        assert series.mean() == 2.0
        assert series.max() == 3.0

    def test_mean_of_empty_fails(self):
        with pytest.raises(ValueError):
            series_of().mean()

    def test_fraction_above(self):
        series = series_of(*((0.0, v) for v in (1.0, 2.0, 3.0, 4.0)))
        assert series.fraction_above(2.0) == 0.5

    def test_fraction_below(self):
        series = series_of(*((0.0, v) for v in (1.0, 2.0, 3.0, 4.0)))
        assert series.fraction_below(2.0) == 0.25

    def test_integrate_left_riemann(self):
        series = series_of((0.0, 2.0), (10.0, 4.0), (20.0, 0.0))
        # 2*10 + 4*10; the final sample holds no interval.
        assert series.integrate() == pytest.approx(60.0)

    def test_integrate_single_sample_is_zero(self):
        assert series_of((0.0, 5.0)).integrate() == 0.0

    def test_integrate_sums_left_to_right(self):
        # Unit-width steps make each area equal its value; on these 40
        # values numpy's pairwise sum differs from the running sum in
        # the last bit, and cost figures must keep the running sum.
        values = np.random.default_rng(1).random(40) * 10.0
        series = TimeSeries("c", np.arange(41.0), np.append(values, 0.0))
        expected = 0.0
        for value in values.tolist():
            expected += value
        assert expected != float(np.sum(values))
        assert series.integrate() == expected

    def test_value_at_repeated_time_takes_last_sample(self):
        series = series_of((0.0, 1.0), (5.0, 2.0), (5.0, 3.0))
        assert series.value_at(5.0) == 3.0
        assert series.value_at(4.999) == 1.0

    def test_window_with_repeated_boundary_times(self):
        series = series_of((1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 4.0), (3.0, 5.0))
        # Every sample at t_start is in; every sample at t_end is out.
        assert list(series.window(2.0, 3.0)) == [(2.0, 2.0), (2.0, 3.0)]
        assert len(series.window(2.0, 2.0)) == 0
        assert len(series_of().window(0.0, 1.0)) == 0


class TestSimulationResult:
    def test_holds_named_series(self):
        series = series_of((0.0, 10.0), name="latency_ms")
        result = SimulationResult(label="run", series={"latency_ms": series})
        assert result.series["latency_ms"] is series
        assert SimulationResult(label="empty").series == {}


class TestTimeSeriesConstructorEdges:
    """Edge cases the shard merge hits: empty and single-row lanes,
    matrix-column slips, and writes through to the source arrays."""

    def test_empty(self):
        series = TimeSeries("e", np.empty(0), np.empty(0))
        assert len(series) == 0
        assert list(series) == []
        assert series.integrate() == 0.0

    def test_single_row(self):
        series = TimeSeries("s", np.array([5.0]), np.array([7.0]))
        assert list(series) == [(5.0, 7.0)]
        assert series.integrate() == 0.0
        assert series.value_at(9.0) == 7.0

    def test_out_of_order_batch_rejected(self):
        series = TimeSeries("o", [1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        assert series.times.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="out-of-order"):
            TimeSeries("o", [1.0, 2.0, 3.0, 0.5], [10.0, 20.0, 30.0, 0.0])

    def test_rejects_matrix_columns(self):
        # A (n, 1) column sliced off a fleet matrix must be diagnosed
        # as a dimensionality error, not a bogus length mismatch.
        with pytest.raises(ValueError, match="1-D"):
            TimeSeries("m", np.ones((2, 1)), np.ones((2, 1)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            TimeSeries("l", np.array([1.0, 2.0]), np.array([3.0]))

    def test_integer_arrays_are_cast(self):
        series = TimeSeries("i", np.array([1, 2]), np.array([3, 4]))
        assert series.times.dtype == np.float64
        assert list(series) == [(1.0, 3.0), (2.0, 4.0)]

    def test_arrays_are_read_only_contiguous_copies(self):
        times = np.arange(4.0)
        matrix = np.arange(8.0).reshape(4, 2)
        series = TimeSeries("c", times, matrix[:, 1])
        for array in (series.times, series.values):
            assert array.flags.c_contiguous
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = -1.0
        # The caller's arrays stay writable and unshared.
        times[0] = 99.0
        matrix[0, 1] = 99.0
        assert series.times[0] == 0.0
        assert series.values[0] == 1.0


class TestLaneSeriesWriteProtection:
    def test_writing_lane_series_values_raises(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        result = FleetResult(
            label="ro",
            lane_labels=("a", "b"),
            times=np.array([0.0, 60.0, 120.0]),
            matrices={"m": matrix.copy()},
        )
        series = result.lane_series("m", 1)
        with pytest.raises(ValueError):
            series.values[0] = -1.0
        with pytest.raises(ValueError):
            series.times[0] = -1.0
        np.testing.assert_array_equal(result.matrix("m"), matrix, strict=True)
        np.testing.assert_array_equal(
            result.times, [0.0, 60.0, 120.0], strict=True
        )
        # The matrix itself stays the engine's to write.
        assert result.matrix("m").flags.writeable

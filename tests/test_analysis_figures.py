"""Tests for the terminal figure rendering."""

import numpy as np
import pytest

from repro.analysis.figures import (
    hourly_series,
    print_figure,
    render_comparison,
    sparkline,
)
from repro.sim.result import SimulationResult, TimeSeries


def result_with_series(name: str, samples, label="run") -> SimulationResult:
    result = SimulationResult(label=label)
    times = [t for t, _ in samples]
    values = [value for _, value in samples]
    result.series[name] = TimeSeries(name, times, values)
    return result


class TestHourlySeries:
    def test_per_hour_means(self):
        samples = [(0.0, 2.0), (1800.0, 4.0), (3600.0, 10.0)]
        result = result_with_series("x", samples)
        hourly = hourly_series(result, "x", hours=2)
        assert hourly[0] == pytest.approx(3.0)
        assert hourly[1] == pytest.approx(10.0)

    def test_empty_hours_are_nan(self):
        result = result_with_series("x", [(0.0, 1.0)])
        hourly = hourly_series(result, "x", hours=3)
        assert np.isnan(hourly[1])
        assert np.isnan(hourly[2])

    def test_missing_series_rejected(self):
        with pytest.raises(KeyError):
            hourly_series(SimulationResult("r"), "nope")


class TestSparkline:
    def test_width_respected(self):
        line = sparkline(np.arange(1000.0), width=40)
        assert len(line) == 40

    def test_short_series_kept(self):
        assert len(sparkline(np.arange(5.0), width=40)) == 5

    def test_monotone_series_renders_monotone(self):
        from repro.analysis.figures import _BLOCKS

        line = sparkline(np.arange(10.0))
        densities = [_BLOCKS.index(c) for c in line]
        assert densities == sorted(densities)

    def test_explicit_bounds_shared_scale(self):
        low_line = sparkline(np.full(4, 2.0), low=0.0, high=10.0)
        high_line = sparkline(np.full(4, 10.0), low=0.0, high=10.0)
        assert low_line != high_line

    def test_constant_series(self):
        line = sparkline(np.ones(10))
        assert len(set(line)) == 1

    def test_nan_marked(self):
        line = sparkline(np.array([1.0, float("nan"), 2.0]))
        assert "?" in line

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline(np.array([]))


class TestRenderComparison:
    def test_shared_scale(self):
        # A policy pinned at the global max must render at full density
        # even if another series has a higher local max.
        low = result_with_series("instances", [(h * 3600.0, 2.0) for h in range(4)])
        high = result_with_series("instances", [(h * 3600.0, 10.0) for h in range(4)])
        rows = render_comparison(
            {"low": low, "high": high}, "instances", hours=4, width=4
        )
        assert rows[0].split("| ")[1] != rows[1].split("| ")[1]

    def test_labels_present(self):
        result = result_with_series("x", [(0.0, 1.0)])
        rows = render_comparison({"dejavu": result}, "x", hours=1)
        assert rows[0].startswith("dejavu")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_comparison({}, "x")


class TestPrintFigure:
    def test_prints_title_and_rows(self, capsys):
        print_figure("My Figure", ["row one", "row two"])
        out = capsys.readouterr().out
        assert "My Figure" in out
        assert "row one" in out
        assert "row two" in out

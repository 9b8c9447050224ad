"""Unit tests for the analysis layer."""

import pytest

from repro.analysis.adaptation import adaptation_times, mean_adaptation_seconds
from repro.analysis.costs import cost_summary, dollars_from_series
from repro.analysis.slo_report import slo_report
from repro.services.slo import LatencySLO, QoSSLO
from repro.sim.result import SimulationResult, TimeSeries


def result_with(name, samples, label="run"):
    result = SimulationResult(label=label)
    times = [t for t, _ in samples]
    values = [value for _, value in samples]
    result.series[name] = TimeSeries(name, times, values)
    return result


class TestCostSummary:
    def test_dollars_from_series(self):
        # 2 $/h for one hour = 2 dollars.
        result = result_with("hourly_cost", [(0.0, 2.0), (3600.0, 0.0)])
        assert dollars_from_series(result) == pytest.approx(2.0)

    def test_savings_versus_baseline(self):
        policy = result_with("hourly_cost", [(0.0, 1.0), (7200.0, 1.0)])
        baseline = result_with("hourly_cost", [(0.0, 4.0), (7200.0, 4.0)])
        summary = cost_summary(policy, baseline)
        assert summary.saving_fraction == pytest.approx(0.75)

    def test_windowed_comparison(self):
        policy = result_with(
            "hourly_cost", [(0.0, 10.0), (3600.0, 1.0), (7200.0, 1.0)]
        )
        baseline = result_with(
            "hourly_cost", [(0.0, 10.0), (3600.0, 2.0), (7200.0, 2.0)]
        )
        summary = cost_summary(policy, baseline, window=(3600.0, 7201.0))
        assert summary.saving_fraction == pytest.approx(0.5)

    def test_fleet_projection(self):
        policy = result_with("hourly_cost", [(0.0, 5.0), (3600.0, 5.0)])
        baseline = result_with("hourly_cost", [(0.0, 10.0), (3600.0, 10.0)])
        summary = cost_summary(policy, baseline)
        assert summary.fleet_savings_per_year(100) > 0

    def test_missing_series_rejected(self):
        with pytest.raises(KeyError):
            cost_summary(SimulationResult("a"), SimulationResult("b"))


class TestSLOReport:
    def test_latency_violations(self):
        result = result_with(
            "latency_ms", [(0.0, 50.0), (1.0, 70.0), (2.0, 50.0), (3.0, 80.0)]
        )
        report = slo_report(result, LatencySLO(60.0))
        assert report.violation_fraction == pytest.approx(0.5)
        assert report.worst_value == 80.0

    def test_qos_violations(self):
        result = result_with("qos_percent", [(0.0, 99.0), (1.0, 90.0)])
        report = slo_report(result, QoSSLO(95.0))
        assert report.violation_fraction == pytest.approx(0.5)
        assert report.worst_value == 90.0

    def test_compliance_fraction(self):
        result = result_with("latency_ms", [(0.0, 50.0), (1.0, 70.0)])
        report = slo_report(result, LatencySLO(60.0))
        assert report.compliance_fraction == pytest.approx(0.5)

    def test_windowed_report(self):
        result = result_with("latency_ms", [(0.0, 500.0), (10.0, 50.0)])
        report = slo_report(result, LatencySLO(60.0), window=(10.0, 20.0))
        assert report.violation_fraction == 0.0

    def test_empty_window_rejected(self):
        result = result_with("latency_ms", [(0.0, 50.0)])
        with pytest.raises(ValueError):
            slo_report(result, LatencySLO(60.0), window=(100.0, 200.0))

    def test_missing_series_rejected(self):
        with pytest.raises(KeyError):
            slo_report(SimulationResult("x"), LatencySLO(60.0))


class TestAdaptationTimes:
    def test_recovery_measured(self):
        result = result_with(
            "latency_ms",
            [(0.0, 50.0), (10.0, 100.0), (20.0, 100.0), (30.0, 55.0)],
        )
        times = adaptation_times(result, LatencySLO(60.0), change_times=[10.0])
        assert times == [20.0]

    def test_no_violation_counts_as_instant(self):
        # "When a single resize operation is sufficient ... we record an
        # instantaneous adaptation time (zero seconds)."
        result = result_with("latency_ms", [(0.0, 50.0), (10.0, 55.0)])
        times = adaptation_times(result, LatencySLO(60.0), change_times=[10.0])
        assert times == [0.0]

    def test_never_recovered_charges_rest_of_run(self):
        result = result_with(
            "latency_ms", [(0.0, 100.0), (10.0, 100.0), (20.0, 100.0)]
        )
        times = adaptation_times(result, LatencySLO(60.0), change_times=[0.0])
        assert times == [20.0]

    def test_mean_over_changes(self):
        result = result_with(
            "latency_ms",
            [
                (0.0, 100.0),
                (10.0, 50.0),
                (20.0, 100.0),
                (40.0, 50.0),
            ],
        )
        mean = mean_adaptation_seconds(
            result, LatencySLO(60.0), change_times=[0.0, 20.0]
        )
        assert mean == pytest.approx(15.0)

    def test_changes_outside_run_rejected(self):
        result = result_with("latency_ms", [(0.0, 50.0)])
        with pytest.raises(ValueError):
            mean_adaptation_seconds(result, LatencySLO(60.0), change_times=[100.0])

    def test_missing_series_rejected(self):
        with pytest.raises(KeyError):
            adaptation_times(SimulationResult("x"), LatencySLO(60.0), [0.0])

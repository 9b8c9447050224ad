"""Tests for the experiments layer: setup builders and small runners."""

import numpy as np
import pytest

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.experiments.hit_rate import run_hit_rate_study
from repro.experiments.motivation import run_motivation_experiment
from repro.experiments.setup import (
    DEFAULT_PEAK_DEMAND,
    build_scaleout_setup,
    build_scaleup_setup,
    make_trace,
    max_scaleout_allocation,
    max_scaleup_allocation,
    peak_clients_for,
)
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY


class TestPeakCalibration:
    def test_peak_clients_inverts_demand(self):
        clients = peak_clients_for(CASSANDRA_UPDATE_HEAVY, DEFAULT_PEAK_DEMAND)
        assert clients * CASSANDRA_UPDATE_HEAVY.demand_per_client == pytest.approx(
            DEFAULT_PEAK_DEMAND
        )

    def test_bad_demand_rejected(self):
        with pytest.raises(ValueError):
            peak_clients_for(CASSANDRA_UPDATE_HEAVY, 0.0)

    def test_peak_fits_full_capacity_with_margin(self):
        # The design point: the tuner must map the trace peak to exactly
        # the full 10-instance pool, SLO met.
        setup = build_scaleout_setup("messenger")
        peak = setup.trace.workload_at(19 * 3600.0)
        outcome = setup.tuner.tune(peak)
        assert outcome.met_slo
        assert outcome.allocation.count == 10


class TestMakeTrace:
    def test_known_names(self):
        for name in ("messenger", "hotmail"):
            trace = make_trace(name, CASSANDRA_UPDATE_HEAVY, 5.9)
            assert trace.hours == 168

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_trace("gmail", CASSANDRA_UPDATE_HEAVY, 5.9)

    def test_seed_override(self):
        a = make_trace("messenger", CASSANDRA_UPDATE_HEAVY, 5.9, seed=1)
        b = make_trace("messenger", CASSANDRA_UPDATE_HEAVY, 5.9, seed=2)
        assert not np.allclose(a.hourly_load, b.hourly_load)


class TestSetupBuilders:
    def test_scaleout_wiring(self):
        setup = build_scaleout_setup("messenger")
        assert setup.provider.max_instances == 10
        assert setup.manager.production is setup.production
        assert setup.manager.profiler is setup.profiler

    def test_scaleup_wiring(self):
        setup = build_scaleup_setup("hotmail")
        assert setup.fixed_count == 5
        assert setup.provider.max_instances == 5

    def test_scaleup_unknown_trace_needs_demand(self):
        with pytest.raises(ValueError):
            build_scaleup_setup("gmail")

    def test_scaleup_explicit_demand_accepted(self):
        setup = build_scaleup_setup("messenger", peak_demand=6.0)
        assert setup.trace.name.startswith("messenger")

    def test_max_allocations(self):
        assert max_scaleout_allocation().count == 10
        assert max_scaleout_allocation().itype is LARGE
        assert max_scaleup_allocation(5).itype is EXTRA_LARGE

    def test_scaleout_custom_classifier(self):
        from repro.core.classifiers import GaussianNaiveBayes

        setup = build_scaleout_setup(
            "messenger", classifier_factory=GaussianNaiveBayes
        )
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        assert isinstance(setup.manager.model.classifier, GaussianNaiveBayes)


class TestHitRateStudy:
    def test_messenger_hits_everything(self):
        study = run_hit_rate_study(weeks=2)
        assert study.overall_hit_rate == pytest.approx(1.0)
        assert study.fallbacks == 0

    def test_hotmail_misses_exactly_the_surges(self):
        study = run_hit_rate_study(weeks=2, trace_name="hotmail")
        # One 3-hour surge per replayed week.
        assert 3 <= study.fallbacks <= 8
        assert study.overall_hit_rate > 0.93

    def test_daily_rates_match_totals(self):
        study = run_hit_rate_study(weeks=1)
        assert len(study.daily_hit_rate) == 6  # learning day excluded

    def test_bad_weeks_rejected(self):
        with pytest.raises(ValueError):
            run_hit_rate_study(weeks=0)


class TestMotivationRunner:
    def test_series_recorded(self):
        result = run_motivation_experiment(duration_seconds=1200.0)
        assert "latency_ms" in result.result.series
        assert "workload_volume" in result.result.series
        assert result.tuning_invocations >= 1

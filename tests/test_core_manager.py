"""Unit tests for the DejaVu manager."""

import numpy as np
import pytest

from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.experiments.setup import build_scaleout_setup
from repro.sim.engine import StepContext
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload


@pytest.fixture(scope="module")
def trained_setup():
    setup = build_scaleout_setup("messenger")
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def ctx_at(t: float, workload: Workload) -> StepContext:
    return StepContext(t=t, workload=workload, hour=int(t // 3600), day=int(t // 86400))


class TestLearning:
    def test_learning_produces_classes(self, trained_setup):
        report = trained_setup.manager.model.learning_report
        assert report.n_classes == 4

    def test_one_tuning_per_class_per_band(self, trained_setup):
        report = trained_setup.manager.model.learning_report
        assert report.tuning_invocations == report.n_classes

    def test_tuning_is_far_cheaper_than_per_workload(self, trained_setup):
        # The clustering headline: 24 workloads -> 4 tuning runs.
        report = trained_setup.manager.model.learning_report
        assert report.tuning_invocations <= report.n_workloads / 3

    def test_signature_metrics_selected(self, trained_setup):
        report = trained_setup.manager.model.learning_report
        assert 1 <= len(report.selected_metrics) <= 12

    def test_repository_populated(self, trained_setup):
        manager = trained_setup.manager
        for cluster in range(manager.model.clustering.n_classes):
            assert manager.repository.contains(cluster, 0)

    def test_class_allocations_span_range(self, trained_setup):
        report = trained_setup.manager.model.learning_report
        counts = sorted(a.count for a in report.class_allocations.values())
        # Night needs few instances, the peak needs the full pool.
        assert counts[0] <= 3
        assert counts[-1] == 10

    def test_learning_needs_two_workloads(self):
        setup = build_scaleout_setup("messenger")
        with pytest.raises(ValueError):
            setup.manager.learn(setup.trace.hourly_workloads(0)[:1])


    def test_non_finite_metric_fails_learning(self, monkeypatch):
        setup = build_scaleout_setup("messenger")
        monitor = setup.manager.profiler.monitor
        collect_block = monitor.collect_block

        def with_nan_column(workloads, passes):
            block = collect_block(workloads, passes)
            block[2, 0] = np.nan
            return block

        monkeypatch.setattr(monitor, "collect_block", with_nan_column)
        with pytest.raises(ValueError, match=monitor.metric_names()[0]):
            setup.manager.learn(setup.trace.hourly_workloads(day=0))


class TestClassification:
    def test_known_workload_classifies_with_high_certainty(self, trained_setup):
        manager = trained_setup.manager
        workload = trained_setup.trace.workload_at(10 * 3600.0)
        label, certainty, _xz = manager.classify(workload)
        assert certainty >= manager.config.certainty_threshold
        assert 0 <= label < manager.model.clustering.n_classes

    def test_unforeseen_volume_has_low_certainty(self, trained_setup):
        manager = trained_setup.manager
        peak = trained_setup.trace.peak_clients
        unseen = Workload(volume=1.4 * peak, mix=CASSANDRA_UPDATE_HEAVY)
        _label, certainty, _xz = manager.classify(unseen)
        assert certainty < manager.config.certainty_threshold

    def test_classify_before_learning_rejected(self):
        setup = build_scaleout_setup("messenger")
        with pytest.raises(RuntimeError):
            setup.manager.classify(setup.trace.workload_at(0.0))


class TestAdaptation:
    def test_hit_deploys_cached_allocation(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        workload = setup.trace.workload_at(10 * 3600.0)
        event = manager.adapt(ctx_at(10 * 3600.0, workload))
        assert event.cache_hit
        assert setup.provider.current_allocation == event.allocation

    def test_miss_deploys_full_capacity(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        unseen = Workload(
            volume=1.4 * setup.trace.peak_clients, mix=CASSANDRA_UPDATE_HEAVY
        )
        event = manager.adapt(ctx_at(3600.0, unseen))
        assert not event.cache_hit
        assert event.allocation == setup.provider.full_capacity()

    def test_adaptation_duration_is_signature_window(self):
        # "DejaVu can adjust ... on the order of a few or several
        # seconds, as needed by the profiler to collect the signatures."
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        event = manager.adapt(ctx_at(0.0, setup.trace.workload_at(0.0)))
        assert event.duration_seconds == manager.profiler.signature_seconds

    def test_consecutive_misses_request_relearn(self):
        config = DejaVuConfig(relearn_after_misses=2)
        setup = build_scaleout_setup("messenger", config=config)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        unseen = Workload(
            volume=1.5 * setup.trace.peak_clients, mix=CASSANDRA_UPDATE_HEAVY
        )
        manager.adapt(ctx_at(3600.0, unseen))
        assert not manager.relearn_requested
        manager.adapt(ctx_at(7200.0, unseen))
        assert manager.relearn_requested

    def test_hit_resets_miss_streak(self):
        config = DejaVuConfig(relearn_after_misses=2)
        setup = build_scaleout_setup("messenger", config=config)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        unseen = Workload(
            volume=1.5 * setup.trace.peak_clients, mix=CASSANDRA_UPDATE_HEAVY
        )
        manager.adapt(ctx_at(3600.0, unseen))
        manager.adapt(ctx_at(7200.0, setup.trace.workload_at(7200.0)))
        manager.adapt(ctx_at(10800.0, unseen))
        assert not manager.relearn_requested

    def test_on_step_respects_check_interval(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        workload = setup.trace.workload_at(0.0)
        manager.on_step(ctx_at(0.0, workload))
        manager.on_step(ctx_at(60.0, workload))
        assert len(manager.adaptation_events) == 1

    def test_mean_adaptation_seconds(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        manager.adapt(ctx_at(0.0, setup.trace.workload_at(0.0)))
        assert manager.mean_adaptation_seconds() == pytest.approx(10.0)

    def test_mean_adaptation_without_events_rejected(self):
        setup = build_scaleout_setup("messenger")
        with pytest.raises(ValueError):
            setup.manager.mean_adaptation_seconds()


class TestConfigValidation:
    """Learning settings that would fail only after a profiling sweep,
    or never fire, are rejected when the config is built."""

    def test_defaults_are_valid(self):
        DejaVuConfig()

    def test_k_max_below_k_min_rejected(self):
        with pytest.raises(ValueError, match=r"k_max must be at least k_min \(5\)"):
            DejaVuConfig(k_min=5, k_max=2)

    def test_k_min_below_two_rejected(self):
        with pytest.raises(ValueError, match="k_min must be at least 2, got 1"):
            DejaVuConfig(k_min=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials_per_workload"):
            DejaVuConfig(trials_per_workload=0)

    def test_zero_signature_metrics_rejected(self):
        with pytest.raises(ValueError, match="max_signature_metrics"):
            DejaVuConfig(max_signature_metrics=0)
        DejaVuConfig(max_signature_metrics=None)

    def test_zero_relearn_misses_rejected(self):
        with pytest.raises(ValueError, match="relearn_after_misses"):
            DejaVuConfig(relearn_after_misses=0)

    def test_relearn_history_beyond_retained_history_rejected(self):
        with pytest.raises(ValueError, match=r"min_relearn_history \(49\)"):
            DejaVuConfig(min_relearn_history=49)
        with pytest.raises(ValueError, match=r"history_size \(10\)"):
            DejaVuConfig(history_size=10)
        DejaVuConfig(history_size=10, min_relearn_history=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("check_interval_seconds", float("nan")),
            ("check_interval_seconds", 0.0),
            ("check_interval_seconds", -3600.0),
            ("check_interval_seconds", float("inf")),
            ("settle_delay_seconds", float("nan")),
            ("settle_delay_seconds", -1.0),
            ("profiling_retry_limit", -1),
            ("profiling_retry_backoff_seconds", float("nan")),
            ("profiling_retry_backoff_seconds", -600.0),
            ("certainty_threshold", float("nan")),
            ("resignature_every_seconds", 0.0),
            ("resignature_every_seconds", float("nan")),
            ("resignature_every_seconds", float("inf")),
        ],
    )
    def test_bad_timing_rejected(self, field, value):
        # A NaN check interval would stop the periodic adaptations
        # after the first, without an error.
        with pytest.raises(ValueError, match=rf"\b{field} must be"):
            DejaVuConfig(**{field: value})

    def test_timing_edges_accepted(self):
        DejaVuConfig(
            settle_delay_seconds=0.0,
            profiling_retry_backoff_seconds=0.0,
            certainty_threshold=0.0,
            resignature_every_seconds=None,
        )

    def test_one_error_names_every_offending_field(self):
        with pytest.raises(ValueError) as info:
            DejaVuConfig(k_min=1, trials_per_workload=0, relearn_after_misses=0)
        message = str(info.value)
        for name in ("k_min", "trials_per_workload", "relearn_after_misses"):
            assert name in message

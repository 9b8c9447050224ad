"""Unit tests for the manager's interference detection path (Sec. 3.6)."""

import pytest

from repro.core.manager import DejaVuConfig
from repro.experiments.interference_study import (
    INTERFERENCE_LATENCY_MARGIN,
    INTERFERENCE_PEAK_DEMAND,
)
from repro.experiments.setup import build_scaleout_setup
from repro.interference.injector import InterferenceInjector, InterferenceSchedule
from repro.interference.microbenchmark import Microbenchmark
from repro.sim.engine import StepContext


def interference_setup(cpu_fraction: float, detection: bool = True, pretune=(0, 1, 2)):
    schedule = InterferenceSchedule(
        segments=((0.0, Microbenchmark(cpu_fraction=cpu_fraction)),)
    )
    config = DejaVuConfig(
        pretune_bands=pretune if detection else (0,),
        enable_interference_detection=detection,
    )
    setup = build_scaleout_setup(
        "messenger",
        peak_demand=INTERFERENCE_PEAK_DEMAND,
        latency_margin=INTERFERENCE_LATENCY_MARGIN,
        interference_schedule=schedule,
        config=config,
    )
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def ctx_for_hour(setup, hour: int) -> StepContext:
    t = hour * 3600.0
    return StepContext(
        t=t, workload=setup.trace.workload_at(t), hour=hour, day=hour // 24
    )


class TestPretunedBands:
    def test_learning_populates_all_bands(self):
        setup = interference_setup(0.10)
        manager = setup.manager
        for cluster in range(manager.model.clustering.n_classes):
            for band in (0, 1, 2):
                assert manager.repository.contains(cluster, band)

    def test_band_allocations_monotone(self):
        setup = interference_setup(0.10)
        manager = setup.manager
        for cluster in range(manager.model.clustering.n_classes):
            counts = [
                manager.repository.lookup(cluster, band).allocation.count
                for band in (0, 1, 2)
            ]
            assert counts == sorted(counts)


class TestDetection:
    def test_ten_percent_hog_escalates_to_band_one_or_more(self):
        setup = interference_setup(0.10)
        manager = setup.manager
        event = manager.adapt(ctx_for_hour(setup, 34))  # a busy hour
        assert event.cache_hit
        baseline = manager.repository.lookup(
            event.workload_class, 0
        ).allocation
        deployed = setup.provider.current_allocation
        assert deployed.count > baseline.count

    def test_twenty_percent_hog_escalates_further(self):
        light = interference_setup(0.10)
        light.manager.adapt(ctx_for_hour(light, 34))
        heavy = interference_setup(0.20)
        heavy.manager.adapt(ctx_for_hour(heavy, 34))
        assert (
            heavy.provider.current_allocation.count
            >= light.provider.current_allocation.count
        )

    def test_detection_disabled_keeps_baseline(self):
        setup = interference_setup(0.20, detection=False)
        manager = setup.manager
        event = manager.adapt(ctx_for_hour(setup, 34))
        assert event.cache_hit
        baseline = manager.repository.lookup(event.workload_class, 0).allocation
        assert setup.provider.current_allocation == baseline

    def test_missing_band_is_tuned_online(self):
        # Pretune only band 0: the first interference encounter must
        # invoke the tuner and store the new band entry for reuse.
        setup = interference_setup(0.20, pretune=(0,))
        manager = setup.manager
        event = manager.adapt(ctx_for_hour(setup, 34))
        assert event.cache_hit
        bands = {
            entry.interference_band
            for entry in manager.repository.entries()
            if entry.workload_class == event.workload_class
        }
        assert bands != {0}

    def test_no_interference_means_no_escalation(self):
        config = DejaVuConfig(pretune_bands=(0, 1, 2))
        setup = build_scaleout_setup(
            "messenger",
            peak_demand=INTERFERENCE_PEAK_DEMAND,
            latency_margin=INTERFERENCE_LATENCY_MARGIN,
            config=config,
        )
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        event = manager.adapt(ctx_for_hour(setup, 34))
        baseline = manager.repository.lookup(event.workload_class, 0).allocation
        assert setup.provider.current_allocation == baseline

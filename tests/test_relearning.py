"""Tests for online re-learning (Sec. 3.5's re-clustering path)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.manager import DejaVuConfig
from repro.core.persistence import manager_state_to_dict
from repro.experiments.setup import build_scaleout_setup
from repro.sim.clock import HOUR
from repro.sim.engine import StepContext
from repro.sim.fleet import FleetEngine
from repro.sim.profiling_queue import ProfilingQueue
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload
from tests.test_fleet_quiet_lanes import build_fleet
from tests.test_lane_table import (
    PINNED_CONFIG,
    PINNED_HOURS,
    PINNED_LANES,
    PINNED_STEP,
)


def ctx_at(t: float, workload: Workload) -> StepContext:
    return StepContext(t=t, workload=workload, hour=int(t // 3600), day=int(t // 86400))


def unseen_workload(setup, factor: float = 1.35) -> Workload:
    """A volume far above every learned plateau (a flash crowd)."""
    return Workload(
        volume=factor * setup.trace.peak_clients, mix=CASSANDRA_UPDATE_HEAVY
    )


class TestManualRelearn:
    def test_relearn_replaces_clustering(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        old_classes = manager.model.clustering.n_classes
        # Re-learn from a day that also contains the unseen level.
        workloads = setup.trace.hourly_workloads(day=1) + [unseen_workload(setup)] * 3
        report = manager.relearn(now=2 * 86400.0, workloads=workloads)
        assert manager.relearn_count == 1
        assert report.n_classes >= old_classes

    def test_relearn_makes_unseen_workload_a_hit(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        novel = unseen_workload(setup)
        _, certainty_before, _ = manager.classify(novel)
        assert certainty_before < manager.config.certainty_threshold
        workloads = setup.trace.hourly_workloads(day=1) + [novel] * 3
        manager.relearn(now=2 * 86400.0, workloads=workloads)
        _, certainty_after, _ = manager.classify(novel)
        assert certainty_after >= manager.config.certainty_threshold

    def test_relearn_invalidates_repository(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        manager.repository.store(99, 0, setup.provider.full_capacity())
        manager.relearn(
            now=86400.0, workloads=setup.trace.hourly_workloads(day=1)
        )
        # Stale entries from the previous clustering are gone.
        assert not manager.repository.contains(99, 0)

    def test_relearn_without_history_rejected(self):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        with pytest.raises(ValueError):
            manager.relearn(now=0.0)


class TestAutoRelearn:
    def _setup_with_auto(self):
        config = DejaVuConfig(
            auto_relearn=True,
            relearn_after_misses=3,
            min_relearn_history=10,
        )
        setup = build_scaleout_setup("messenger", config=config)
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        return setup

    def test_auto_relearn_triggers_after_miss_streak(self):
        setup = self._setup_with_auto()
        manager = setup.manager
        # Build up enough history with normal hours first.
        for hour in range(24, 40):
            t = hour * 3600.0
            manager.adapt(ctx_at(t, setup.trace.workload_at(t)))
        novel = unseen_workload(setup)
        for i in range(3):
            manager.adapt(ctx_at((41 + i) * 3600.0, novel))
        assert manager.relearn_count == 1
        # The novel level is now a learned class: next time is a hit.
        event = manager.adapt(ctx_at(45 * 3600.0, novel))
        assert event.cache_hit

    def test_no_auto_relearn_without_history(self):
        config = DejaVuConfig(
            auto_relearn=True, relearn_after_misses=2, min_relearn_history=24
        )
        setup = build_scaleout_setup("messenger", config=config)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        novel = unseen_workload(setup)
        for i in range(3):
            manager.adapt(ctx_at((24 + i) * 3600.0, novel))
        assert manager.relearn_count == 0
        assert manager.relearn_requested

    def test_auto_relearn_off_by_default(self):
        setup = build_scaleout_setup(
            "messenger", config=DejaVuConfig(relearn_after_misses=2)
        )
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        novel = unseen_workload(setup)
        for hour in range(24, 48):
            t = hour * 3600.0
            manager.adapt(ctx_at(t, setup.trace.workload_at(t)))
        for i in range(4):
            manager.adapt(ctx_at((48 + i) * 3600.0, novel))
        assert manager.relearn_requested
        assert manager.relearn_count == 0


class TestFailedRelearn:
    """A history the pipeline cannot learn from — the same workload
    over and over leaves no metric that separates its entries — must
    not cost the manager its model."""

    @pytest.mark.parametrize("queued", [False, True], ids=["direct", "queued"])
    def test_degenerate_relearn_raises_and_keeps_the_model(self, queued):
        setup = build_scaleout_setup("messenger")
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        if queued:
            manager.attach_profiling_queue(ProfilingQueue(slots=1))
        before = manager_state_to_dict(manager)
        report = manager.model.learning_report
        same = setup.trace.workload_at(12 * HOUR)
        with pytest.raises(ValueError, match="distinct workloads; the history holds 1"):
            manager.relearn(now=86400.0, workloads=[same] * 24)
        assert manager_state_to_dict(manager) == before
        assert manager.model.learning_report is report
        assert manager.relearn_count == 0
        assert not manager.relearn_pending

    @pytest.mark.parametrize("copies", [12, 16])
    def test_repeated_workload_history_is_refused(self, copies):
        """Copies of one workload differ only by profiler noise; short
        runs of them used to pass the CFS pre-filter and install noise
        classes (4 classes from 12 copies, 5 from 16)."""
        setup = build_scaleout_setup("messenger")
        twin = build_scaleout_setup("messenger")
        for built in (setup, twin):
            built.manager.learn(built.trace.hourly_workloads(day=0))
        manager = setup.manager
        before = manager_state_to_dict(manager)
        same = setup.trace.workload_at(12 * HOUR)
        with pytest.raises(ValueError, match="the history holds 1"):
            manager.relearn(now=86400.0, workloads=[same] * copies)
        with pytest.raises(ValueError, match="k_min = 2"):
            manager.learn([same] * copies)
        assert manager_state_to_dict(manager) == before
        assert manager.relearn_count == 0
        # Refused before the profiling sweep: no noise was drawn.
        collections = [
            monitor.collect_matrix([same], monitors=[monitor])
            for monitor in (manager.profiler.monitor, twin.manager.profiler.monitor)
        ]
        np.testing.assert_array_equal(*collections, strict=True)

    def test_failed_auto_relearn_keeps_serving_and_asks_again_later(self):
        config = DejaVuConfig(
            auto_relearn=True, relearn_after_misses=2, min_relearn_history=12
        )
        setup = build_scaleout_setup("messenger", config=config)
        manager = setup.manager
        manager.learn(setup.trace.hourly_workloads(day=0))
        before = manager_state_to_dict(manager)
        novel = unseen_workload(setup)
        failures = []
        for i in range(14):
            manager.adapt(ctx_at((24 + i) * HOUR, novel))
            failures.append(manager.failed_relearns)
        # The twelfth miss has the history to re-learn and fails; the
        # request is cleared, so the next attempt waits for two more
        # misses.
        assert failures == [0] * 11 + [1, 1, 2]
        assert not manager.relearn_requested
        assert manager.relearn_count == 0
        assert manager_state_to_dict(manager) == before

    @pytest.mark.parametrize(
        "history, queue_policy", [(4, "fifo"), (4, "priority"), (2, "fifo")]
    )
    def test_fleet_survives_a_degenerate_auto_relearn(self, history, queue_policy):
        """These pinned fleets crashed in ``CfsSubsetSelector.select``
        when an auto-relearn fired on repeated violation workloads."""
        config = replace(PINNED_CONFIG, min_relearn_history=history)
        lanes, queue, managers = build_fleet(
            PINNED_LANES,
            config=[
                replace(config, adapt_on_violation=i % 3 == 2)
                for i in range(PINNED_LANES)
            ],
            slots=1,
            queue_policy=queue_policy,
        )
        FleetEngine(
            lanes, step_seconds=PINNED_STEP, profiling_queue=queue
        ).run(PINNED_HOURS * HOUR)
        assert sum(manager.failed_relearns for manager in managers) > 0

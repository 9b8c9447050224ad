"""Profiling-queue feedback: contention changes behavior, not just books.

PR-2's queue was accounting-only: rejected or late profiling still let
the manager adapt instantly, and only per-adaptation collections were
charged.  These tests pin the feedback semantics: a rejected request
defers the adaptation to the next step, a waited-for request delays the
deployment by the queue residency, and auto-relearn sweeps plus
interference-escalation probes are charged through the queue instead of
bypassing it.
"""

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
from repro.sim.profiling_queue import ProfilingQueue

SIGNATURE_SECONDS = 10.0


def trained_setup(config: DejaVuConfig | None = None, seed: int = 0):
    setup = build_scaleout_setup(seed=seed, config=config)
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def ctx_at(setup, t: float) -> StepContext:
    return StepContext(
        t=t,
        workload=setup.trace.workload_at(t),
        hour=int(t // 3600),
        day=int(t // 86400),
    )


class TestUncontendedQueueIsTransparent:
    def test_events_identical_with_and_without_queue(self):
        plain = trained_setup()
        queued = trained_setup()
        queued.manager.attach_profiling_queue(
            ProfilingQueue(slots=1, service_seconds=SIGNATURE_SECONDS)
        )
        for t in (0.0, 3600.0, 7200.0):
            a = plain.manager.adapt(ctx_at(plain, t))
            b = queued.manager.adapt(ctx_at(queued, t))
            assert a == b
        assert queued.manager.deferred_adaptations == 0
        assert queued.manager.pending_deployment is None


class TestWaitDelaysDeployment:
    def test_waited_signature_defers_the_deploy(self):
        queue = ProfilingQueue(slots=1, service_seconds=SIGNATURE_SECONDS)
        first = trained_setup(seed=0)
        second = trained_setup(seed=1)
        first.manager.attach_profiling_queue(queue)
        second.manager.attach_profiling_queue(queue)

        first.manager.on_step(ctx_at(first, 0.0))
        assert first.provider.current_allocation.count > 0  # no wait

        second.manager.on_step(ctx_at(second, 0.0))
        # The slot was busy: the signature finishes 10 s late, so the
        # decision has not deployed yet — the old (empty) allocation
        # keeps serving.
        event = second.manager.adaptation_events[-1]
        assert event.duration_seconds == SIGNATURE_SECONDS + 10.0
        assert second.provider.current_allocation.count == 0
        pending = second.manager.pending_deployment
        assert pending is not None
        assert pending.apply_at == 10.0

        # The next engine step notices the pending deployment and lands
        # it at its finish time.
        second.manager.on_step(ctx_at(second, 300.0))
        assert second.manager.pending_deployment is None
        assert second.provider.current_allocation == pending.allocation
        assert second.provider.last_change_at == 10.0

    def test_unqueued_manager_never_pends(self):
        setup = trained_setup()
        setup.manager.on_step(ctx_at(setup, 0.0))
        assert setup.manager.pending_deployment is None
        event = setup.manager.adaptation_events[-1]
        assert event.duration_seconds == SIGNATURE_SECONDS


class TestRejectionDefersAdaptation:
    def test_rejected_adaptation_retries_next_step(self):
        queue = ProfilingQueue(
            slots=1, service_seconds=SIGNATURE_SECONDS, max_pending=0
        )
        blocker = trained_setup(seed=0)
        victim = trained_setup(seed=1)
        blocker.manager.attach_profiling_queue(queue)
        victim.manager.attach_profiling_queue(queue)

        blocker.manager.on_step(ctx_at(blocker, 0.0))
        victim.manager.on_step(ctx_at(victim, 0.0))
        # The slot was taken and the bounded queue refused to stack the
        # request: no adaptation event, nothing deployed.
        assert victim.manager.deferred_adaptations == 1
        assert victim.manager.adaptation_events == []
        assert victim.provider.current_allocation.count == 0

        # The periodic check was NOT pushed a whole interval out: the
        # very next step retries (slot free again by then) and adapts.
        victim.manager.on_step(ctx_at(victim, 300.0))
        assert len(victim.manager.adaptation_events) == 1
        assert victim.provider.current_allocation.count > 0

    def test_rejection_counted_in_queue(self):
        queue = ProfilingQueue(
            slots=1, service_seconds=SIGNATURE_SECONDS, max_pending=0
        )
        queue.request(0.0)
        setup = trained_setup()
        setup.manager.attach_profiling_queue(queue)
        assert setup.manager.adapt(ctx_at(setup, 0.0)) is None
        assert queue.rejected == 1


class TestRelearnSweepCharged:
    def test_relearn_burst_hits_the_queue(self):
        setup = trained_setup()
        queue = ProfilingQueue(slots=1, service_seconds=SIGNATURE_SECONDS)
        setup.manager.attach_profiling_queue(queue)
        day1 = setup.trace.hourly_workloads(day=1)
        before = queue.total_requests
        setup.manager.relearn(now=0.0, workloads=day1)
        burst = queue.total_requests - before
        assert burst == len(day1) * setup.manager.config.trials_per_workload

    def test_relearn_burst_bypasses_the_pending_bound(self):
        # The sweep is a scheduled burst, not an online arrival: with a
        # zero-waiter bound it still stacks FIFO instead of being
        # rejected.
        setup = trained_setup()
        queue = ProfilingQueue(
            slots=1, service_seconds=SIGNATURE_SECONDS, max_pending=0
        )
        setup.manager.attach_profiling_queue(queue)
        setup.manager.relearn(
            now=0.0, workloads=setup.trace.hourly_workloads(day=1)
        )
        assert queue.rejected == 0
        assert queue.max_depth > 1


class TestEscalationProbeCharged:
    def interference_setup(self):
        schedule = InterferenceSchedule(
            segments=((0.0, Microbenchmark(cpu_fraction=0.10)),)
        )
        config = DejaVuConfig(pretune_bands=(0, 1, 2))
        setup = build_scaleout_setup(
            "messenger",
            peak_demand=INTERFERENCE_PEAK_DEMAND,
            latency_margin=INTERFERENCE_LATENCY_MARGIN,
            interference_schedule=schedule,
            config=config,
        )
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        return setup

    def test_probe_runs_are_charged(self):
        setup = self.interference_setup()
        queue = ProfilingQueue(slots=4, service_seconds=SIGNATURE_SECONDS)
        setup.manager.attach_profiling_queue(queue)
        event = setup.manager.adapt(ctx_at(setup, 34 * 3600.0))
        assert event.cache_hit
        # The hog forced at least one escalation probe on top of the
        # signature collection.
        assert setup.manager._deployed_band >= 1
        assert queue.total_requests >= 2

    def test_probe_rejection_abandons_escalation(self):
        setup = self.interference_setup()
        # One slot and no waiters allowed: the signature itself gets the
        # slot, so the escalation probe is rejected.
        queue = ProfilingQueue(
            slots=1, service_seconds=SIGNATURE_SECONDS, max_pending=0
        )
        setup.manager.attach_profiling_queue(queue)
        event = setup.manager.adapt(ctx_at(setup, 34 * 3600.0))
        assert event is not None and event.cache_hit
        # Blame could not be attributed: no band escalation happened.
        assert setup.manager._deployed_band == 0

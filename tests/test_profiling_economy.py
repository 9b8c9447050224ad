"""The profiling economy: queue invariants, admission market, relearn gating.

Three layers of the PR's trust posture live here:

* **Property-based queue invariants** — randomized arrival sequences
  against both admission policies must conserve requests
  (accepted + rejected + shed + evicted == total), keep FIFO order
  within a priority class, never rewind time, never book more
  slot-time than exists, and keep ``max_depth``/``pending_at``
  consistent.
* **Equal-priority equivalence** — ``queue_policy="priority"`` with
  all-equal priorities and watermarks disabled must reproduce the fifo
  queue's grants and statistics exactly (the unit-level face of the
  fleet-level pin in ``tests/test_fleet_equivalence.py``).
* **Relearn blocking** — a relearn burst stuck behind a saturated
  queue keeps the *old* model serving until the burst drains, and the
  new model's availability tracks the burst's (possibly revised)
  queue residency.

Plus the small-fix regression: rejected and evicted grants carry an
explicit outcome and never leak into ``mean_wait_seconds``-style
aggregates.
"""

import random

import pytest

from repro.experiments.setup import build_scaleout_setup
from repro.sim.engine import StepContext
from repro.sim.profiling_queue import (
    GRANT_OUTCOMES,
    PRIORITY_ADAPTATION,
    PRIORITY_ESCALATION,
    PRIORITY_RELEARN,
    PRIORITY_ROUTINE,
    ProfilingQueue,
)

SERVICE = 10.0

PRIORITIES = (
    PRIORITY_ROUTINE,
    PRIORITY_RELEARN,
    PRIORITY_ADAPTATION,
    PRIORITY_ESCALATION,
)

#: Queue shapes the randomized suite sweeps: (policy, kwargs).
QUEUE_SHAPES = [
    ("fifo", {}),
    ("fifo", {"max_pending": 0}),
    ("fifo", {"max_pending": 2}),
    ("priority", {}),
    ("priority", {"max_pending": 2}),
    ("priority", {"max_pending": 3, "high_watermark": 3, "low_watermark": 1}),
    ("priority", {"slots": 3, "max_pending": 4}),
]


def random_arrivals(seed: int, n: int = 120):
    """A reproducible arrival sequence: (t, priority, bounded) triples.

    Times advance by bursty random increments (many zero-gap arrivals,
    the adaptation-wave shape), priorities cover all four classes, and
    a small fraction of requests are unbounded relearn-style bursts.
    """
    rng = random.Random(seed)
    t = 0.0
    arrivals = []
    for _ in range(n):
        t += rng.choice([0.0, 0.0, 1.0, 5.0, 30.0, 300.0])
        priority = rng.choice(PRIORITIES)
        bounded = rng.random() > 0.1
        arrivals.append((t, priority, bounded))
    return arrivals


def run_arrivals(queue: ProfilingQueue, arrivals) -> None:
    for t, priority, bounded in arrivals:
        queue.request(t, bounded=bounded, priority=priority, kind="adapt")


class TestQueueInvariants:
    @pytest.mark.parametrize("policy,kwargs", QUEUE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_conservation(self, policy, kwargs, seed):
        """accepted + rejected + shed + evicted == total requests."""
        shape = {"slots": 1, **kwargs}
        queue = ProfilingQueue(
            service_seconds=SERVICE, queue_policy=policy, **shape
        )
        arrivals = random_arrivals(seed)
        run_arrivals(queue, arrivals)
        counts = queue.outcome_counts()
        assert set(counts) == set(GRANT_OUTCOMES)
        assert sum(counts.values()) == queue.total_requests == len(arrivals)
        assert counts["rejected"] == queue.rejected
        assert counts["evicted"] == queue.evicted
        assert counts["shed"] == queue.shed
        assert counts["accepted"] == len(queue.accepted_grants)

    @pytest.mark.parametrize("policy,kwargs", QUEUE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_fifo_within_a_priority_class(self, policy, kwargs, seed):
        """Among accepted grants of one priority, starts follow arrival."""
        shape = {"slots": 1, **kwargs}
        queue = ProfilingQueue(
            service_seconds=SERVICE, queue_policy=policy, **shape
        )
        run_arrivals(queue, random_arrivals(seed))
        by_class: dict[int, list[float]] = {}
        for grant in queue.grants:
            if grant.accepted:
                by_class.setdefault(grant.priority, []).append(grant.start_at)
        for priority, starts in by_class.items():
            assert starts == sorted(starts), f"class {priority} reordered"

    @pytest.mark.parametrize("policy,kwargs", QUEUE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_time_never_rewinds(self, policy, kwargs, seed):
        shape = {"slots": 1, **kwargs}
        queue = ProfilingQueue(
            service_seconds=SERVICE, queue_policy=policy, **shape
        )
        arrivals = random_arrivals(seed)
        run_arrivals(queue, arrivals)
        last_t = arrivals[-1][0]
        with pytest.raises(ValueError, match="rewind"):
            queue.request(last_t - 1.0)
        # Accepted schedules respect causality: no run starts before it
        # was requested, and every run lasts exactly one service time.
        for grant in queue.accepted_grants:
            assert grant.start_at >= grant.requested_at
            assert grant.finish_at == grant.start_at + SERVICE

    @pytest.mark.parametrize("policy,kwargs", QUEUE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_busy_seconds_fits_the_horizon(self, policy, kwargs, seed):
        """Booked slot-time never exceeds slots x the schedule span."""
        shape = {"slots": 1, **kwargs}
        queue = ProfilingQueue(
            service_seconds=SERVICE, queue_policy=policy, **shape
        )
        run_arrivals(queue, random_arrivals(seed))
        accepted = queue.accepted_grants
        assert queue.busy_seconds == pytest.approx(len(accepted) * SERVICE)
        if accepted:
            span = max(g.finish_at for g in accepted) - min(
                g.start_at for g in accepted
            )
            assert queue.busy_seconds <= shape["slots"] * span + 1e-9
            horizon = max(g.finish_at for g in accepted)
            if horizon > 0:
                assert 0.0 <= queue.utilization(horizon) <= 1.0 + 1e-12

    @pytest.mark.parametrize("policy,kwargs", QUEUE_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_depth_accounting_is_consistent(self, policy, kwargs, seed):
        """pending_at <= depth_at <= max_depth, sampled at every arrival."""
        shape = {"slots": 1, **kwargs}
        queue = ProfilingQueue(
            service_seconds=SERVICE, queue_policy=policy, **shape
        )
        for t, priority, bounded in random_arrivals(seed):
            queue.request(t, bounded=bounded, priority=priority)
            pending = queue.pending_at(t)
            depth = queue.depth_at(t)
            assert 0 <= pending <= depth
            assert depth <= queue.max_depth
            if (
                bounded
                and queue.max_pending is not None
                and policy == "priority"
            ):
                # Bounded admissions never stack past the cliff (only
                # unbounded bursts may have pushed pending beyond it).
                assert pending <= queue.max_pending + sum(
                    1
                    for g in queue.grants
                    if g.accepted and g.priority == PRIORITY_RELEARN
                ) + sum(1 for g in queue.grants if not g.accepted)


class TestEqualPriorityEquivalence:
    """Priority policy with flat priorities == fifo, grant for grant."""

    @pytest.mark.parametrize("max_pending", [None, 0, 1, 3])
    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_flat_priority_matches_fifo(self, max_pending, slots, seed):
        fifo = ProfilingQueue(
            slots=slots, service_seconds=SERVICE, max_pending=max_pending
        )
        market = ProfilingQueue(
            slots=slots,
            service_seconds=SERVICE,
            max_pending=max_pending,
            queue_policy="priority",
        )
        for t, _priority, bounded in random_arrivals(seed, n=150):
            a = fifo.request(t, bounded=bounded, priority=PRIORITY_ADAPTATION)
            b = market.request(
                t, bounded=bounded, priority=PRIORITY_ADAPTATION
            )
            assert a.outcome == b.outcome
            assert a.requested_at == b.requested_at
            assert a.start_at == b.start_at
            assert a.finish_at == b.finish_at
        # Pending grants still hold projections; those must match the
        # fifo schedule too (fifo committed them at request time).
        for a, b in zip(fifo.grants, market.grants):
            assert (a.requested_at, a.start_at, a.finish_at, a.outcome) == (
                b.requested_at,
                b.start_at,
                b.finish_at,
                b.outcome,
            )
        assert fifo.rejected == market.rejected
        assert market.evicted == 0 and market.shed == 0
        assert fifo.max_depth == market.max_depth
        assert fifo.busy_seconds == market.busy_seconds
        assert fifo.mean_wait_seconds == market.mean_wait_seconds
        assert fifo.max_wait_seconds == market.max_wait_seconds


class TestAdmissionMarket:
    """The mempool semantics: outbidding, shedding, evicting."""

    def test_escalation_overtakes_queued_routine_work(self):
        queue = ProfilingQueue(
            slots=1, service_seconds=SERVICE, queue_policy="priority"
        )
        queue.request(0.0, priority=PRIORITY_ADAPTATION)  # in service
        routine = queue.request(0.0, priority=PRIORITY_ROUTINE)
        assert routine.start_at == SERVICE  # next in line when issued
        probe = queue.request(1.0, priority=PRIORITY_ESCALATION)
        # The probe jumps the routine work; the routine grant's already
        # issued schedule moved, which the revised flag records.
        assert probe.start_at == SERVICE
        assert routine.start_at == 2 * SERVICE
        assert routine.revised and not probe.revised

    def test_watermark_sheds_until_backlog_drains(self):
        queue = ProfilingQueue(
            slots=1,
            service_seconds=SERVICE,
            queue_policy="priority",
            high_watermark=2,
            low_watermark=0,
        )
        queue.request(0.0, priority=PRIORITY_ADAPTATION)  # occupies slot
        queue.request(0.0, priority=PRIORITY_ADAPTATION)
        queue.request(0.0, priority=PRIORITY_ADAPTATION)  # backlog hits 2
        shed = queue.request(1.0, priority=PRIORITY_ROUTINE)
        assert shed.outcome == "shed"
        # High-priority work is never shed, even above the watermark.
        kept = queue.request(2.0, priority=PRIORITY_ESCALATION)
        assert kept.accepted
        # Once the backlog drains to the low watermark, routine traffic
        # is admitted again (hysteresis, not a one-shot gate).
        late = queue.request(100.0, priority=PRIORITY_ROUTINE)
        assert late.accepted
        assert queue.shed == 1

    def test_eviction_at_the_cliff_prefers_lowest_youngest(self):
        queue = ProfilingQueue(
            slots=1,
            service_seconds=SERVICE,
            max_pending=2,
            queue_policy="priority",
        )
        queue.request(0.0, priority=PRIORITY_ADAPTATION)  # in service
        old_routine = queue.request(0.0, priority=PRIORITY_ROUTINE)
        young_routine = queue.request(1.0, priority=PRIORITY_ROUTINE)
        bidder = queue.request(2.0, priority=PRIORITY_ADAPTATION)
        # The cliff was full; the youngest lowest-priority entry goes.
        assert young_routine.outcome == "evicted"
        assert old_routine.accepted and bidder.accepted
        # The next bidder takes the remaining routine entry...
        second_bidder = queue.request(3.0, priority=PRIORITY_ADAPTATION)
        assert second_bidder.accepted
        assert old_routine.outcome == "evicted"
        # ...and once the backlog is all equal-priority work, an equal
        # bid cannot evict anyone: it is rejected at the cliff.
        loser = queue.request(4.0, priority=PRIORITY_ADAPTATION)
        assert loser.outcome == "rejected"
        assert queue.evicted == 2 and queue.rejected == 1

    def test_unbounded_bursts_bypass_every_control(self):
        queue = ProfilingQueue(
            slots=1,
            service_seconds=SERVICE,
            max_pending=0,
            queue_policy="priority",
            high_watermark=1,
            low_watermark=0,
        )
        queue.request(0.0, priority=PRIORITY_ADAPTATION)
        burst = [
            queue.request(0.0, bounded=False, priority=PRIORITY_RELEARN)
            for _ in range(4)
        ]
        assert all(g.accepted for g in burst)
        assert queue.rejected == 0 and queue.shed == 0


class TestOutcomeExclusion:
    """Satellite fix: non-accepted grants stay out of the aggregates."""

    def test_rejected_grants_excluded_from_mean_wait(self):
        queue = ProfilingQueue(
            slots=1, service_seconds=SERVICE, max_pending=1
        )
        first = queue.request(0.0)
        waited = queue.request(0.0)
        rejected = queue.request(0.0)
        assert rejected.outcome == "rejected"
        assert not rejected.accepted
        assert first.wait_seconds == 0.0 and waited.wait_seconds == SERVICE
        # (0 + 10) / 2, not (0 + 10 + 0) / 3.
        assert queue.mean_wait_seconds == pytest.approx(SERVICE / 2)
        assert queue.max_wait_seconds == SERVICE

    def test_evicted_grants_excluded_from_wait_and_utilization(self):
        queue = ProfilingQueue(
            slots=1,
            service_seconds=SERVICE,
            max_pending=1,
            queue_policy="priority",
        )
        queue.request(0.0, priority=PRIORITY_ADAPTATION)
        victim = queue.request(0.0, priority=PRIORITY_ROUTINE)
        queue.request(1.0, priority=PRIORITY_ESCALATION)
        assert victim.outcome == "evicted"
        assert victim.wait_seconds == 0.0
        # (0 + 9) / 2 over the two accepted grants only.
        assert queue.mean_wait_seconds == pytest.approx((0.0 + 9.0) / 2)
        # Utilization counts two real runs, not the evicted booking.
        assert queue.utilization(2 * SERVICE) == pytest.approx(1.0)
        assert queue.busy_seconds == pytest.approx(2 * SERVICE)


class TestProfilerOutages:
    """Fault-injection semantics: revocation, brownouts, conservation."""

    def test_full_outage_revokes_in_flight_grants(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        queue.attach_faults(((5.0, 100.0, None),))
        running = queue.request(0.0)  # in service, finishes at 10
        waiting = queue.request(0.0)  # scheduled 10-20
        queue.advance_to(5.0)
        assert running.outcome == "revoked"
        assert waiting.outcome == "revoked"
        assert queue.revoked == 2
        # Revoked runs are killed mid-collection: nothing is billed,
        # and the schedule collapses back to the request time.
        assert queue.busy_seconds == 0.0
        assert running.finish_at == running.requested_at
        assert running.revised
        # Slots stay dark until the window ends.
        late = queue.request(50.0)
        assert late.accepted and late.start_at == 100.0

    def test_finished_and_unissued_work_survives_the_outage(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        queue.attach_faults(((30.0, 60.0, None),))
        done = queue.request(0.0)  # finishes at 10, before the window
        queue.advance_to(30.0)
        assert done.outcome == "accepted"
        assert queue.revoked == 0
        assert queue.busy_seconds == pytest.approx(SERVICE)

    def test_partial_brownout_delays_without_killing(self):
        queue = ProfilingQueue(slots=2, service_seconds=SERVICE)
        queue.attach_faults(((5.0, 200.0, 1),))
        running = queue.request(0.0)  # slot 0, finishes at 10
        queue.advance_to(5.0)
        # The idle slot browns out; the in-flight run survives.
        assert running.outcome == "accepted"
        assert queue.revoked == 0
        # Capacity halves: simultaneous arrivals serialize on the one
        # surviving slot instead of fanning out over two.
        first = queue.request(20.0)
        second = queue.request(20.0)
        assert sorted((first.start_at, second.start_at)) == [20.0, 30.0]
        # Once the window closes, both slots serve again.
        a = queue.request(300.0)
        b = queue.request(300.0)
        assert a.start_at == b.start_at == 300.0

    def test_conservation_holds_with_revocations(self):
        """accepted + rejected + shed + evicted + revoked == total."""
        total_revoked = 0
        for policy, kwargs in QUEUE_SHAPES:
            for seed in range(4):
                queue = ProfilingQueue(
                    service_seconds=SERVICE,
                    queue_policy=policy,
                    **{"slots": 1, **kwargs},
                )
                arrivals = random_arrivals(seed)
                horizon = arrivals[-1][0]
                # Outage windows interleaved with the arrival sequence.
                queue.attach_faults(
                    (
                        (horizon * 0.25, horizon * 0.3, None),
                        (horizon * 0.6, horizon * 0.7, None),
                    )
                )
                for t, priority, bounded in arrivals:
                    queue.advance_to(t)
                    queue.request(
                        t, bounded=bounded, priority=priority, kind="adapt"
                    )
                counts = queue.outcome_counts()
                assert set(counts) == set(GRANT_OUTCOMES)
                assert sum(counts.values()) == queue.total_requests
                assert counts["revoked"] == queue.revoked
                assert counts["accepted"] == len(queue.accepted_grants)
                assert queue.busy_seconds >= 0.0
                total_revoked += queue.revoked
        # Honesty: the windows actually killed in-flight work somewhere
        # in the sweep, or the revoked leg of the invariant is vacuous.
        assert total_revoked > 0

    def test_attach_validates_windows(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        with pytest.raises(ValueError, match="positive length"):
            queue.attach_faults(((10.0, 10.0, None),))
        with pytest.raises(ValueError, match="slot"):
            queue.attach_faults(((10.0, 20.0, 0),))


class TestManagerOutageRecovery:
    """Bounded retry-with-backoff, then the last-known-good allocation.

    The manager side of the profiler-outage contract: every revoked
    grant is either retried to completion or abandoned with an explicit
    outcome counter — a pending deployment never silently wedges.
    """

    BACKOFF = 600.0

    def outage_manager(self, queue, retries=2, fallback=True):
        from repro.core.manager import DejaVuConfig

        setup = build_scaleout_setup(
            seed=0,
            config=DejaVuConfig(
                profiling_retry_limit=retries,
                profiling_retry_backoff_seconds=self.BACKOFF,
                degraded_fallback=fallback,
            ),
        )
        setup.manager.learn(setup.trace.hourly_workloads(day=0))
        setup.manager.attach_profiling_queue(queue)
        return setup

    def revoked_pending(self, setup, queue):
        """Drive one adaptation into the queue, then kill its grant."""
        queue.request(0.0)  # foreign traffic: the manager's run waits
        setup.manager.on_step(ctx_at(setup, 0.0))
        pending = setup.manager.pending_deployment
        assert pending is not None and pending.grant.outcome == "accepted"
        queue.advance_to(5.0)  # the outage window opens
        assert pending.grant.outcome == "revoked"
        return pending

    def test_retry_lands_the_deployment_after_backoff(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        queue.attach_faults(((5.0, 50.0, None),))
        setup = self.outage_manager(queue)
        self.revoked_pending(setup, queue)

        # First poll arms the backoff gate; polling early changes nothing.
        setup.manager.poll_pending_deployment(10.0)
        assert setup.manager.pending_deployment.retry_at == 10.0 + self.BACKOFF
        setup.manager.poll_pending_deployment(100.0)
        assert setup.manager.profiling_retries == 0

        # Once the backoff elapses the retry re-charges the queue (the
        # outage is over by then) and the decision deploys.
        setup.manager.poll_pending_deployment(10.0 + self.BACKOFF)
        assert setup.manager.profiling_retries == 1
        pending = setup.manager.pending_deployment
        assert pending is not None and pending.grant.outcome == "accepted"
        setup.manager.poll_pending_deployment(pending.apply_at + 1.0)
        assert setup.manager.pending_deployment is None
        assert setup.manager.degraded_adaptations == 0
        assert setup.manager.revoked_adaptations == 0

    def test_exhausted_retries_fall_back_to_last_known_good(self):
        # A rolling blackout revokes each retry in turn until the
        # budget runs out, then the manager serves the allocation the
        # decision already resolved (the degraded mode) — every revoked
        # grant ends retried-to-revocation or deployed, never wedged.
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        queue.attach_faults(
            ((5.0, 700.0, None), (695.0, 1400.0, None), (1905.0, 2600.0, None))
        )
        setup = self.outage_manager(queue, retries=2)
        self.revoked_pending(setup, queue)

        setup.manager.poll_pending_deployment(10.0)  # arms the backoff
        # Retry 1 at t=620: charged behind the dark slots (start 700),
        # then killed by the second window before it can run.
        setup.manager.poll_pending_deployment(620.0)
        assert setup.manager.profiling_retries == 1
        queue.advance_to(695.0)
        assert setup.manager.pending_deployment.grant.outcome == "revoked"
        # Backoff doubles: poll at 700 arms retry_at = 700 + 1200.
        setup.manager.poll_pending_deployment(700.0)
        setup.manager.poll_pending_deployment(1900.0)  # retry 2
        assert setup.manager.profiling_retries == 2
        queue.advance_to(1905.0)  # the third window kills it too
        setup.manager.poll_pending_deployment(1910.0)
        # Budget exhausted: explicit degraded outcome, no deadlock.
        assert setup.manager.pending_deployment is None
        assert setup.manager.degraded_adaptations == 1
        assert setup.manager.revoked_adaptations == 0
        # Conservation on the queue side covers the whole exchange.
        counts = queue.outcome_counts()
        assert sum(counts.values()) == queue.total_requests
        assert counts["revoked"] == 4  # foreign + original + 2 retries

    def test_without_fallback_the_adaptation_is_abandoned(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        queue.attach_faults(((5.0, 10 * self.BACKOFF, None),))
        setup = self.outage_manager(queue, retries=0, fallback=False)
        self.revoked_pending(setup, queue)
        setup.manager.poll_pending_deployment(10.0)
        # Zero retries, no fallback: the explicit abandonment counter.
        assert setup.manager.pending_deployment is None
        assert setup.manager.revoked_adaptations == 1
        assert setup.manager.degraded_adaptations == 0


# ----------------------------------------------------------------------
# Relearn blocking: the model waits for its own sweep
# ----------------------------------------------------------------------


def trained_setup(seed: int = 0):
    setup = build_scaleout_setup(seed=seed)
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def ctx_at(setup, t: float) -> StepContext:
    return StepContext(
        t=t,
        workload=setup.trace.workload_at(t),
        hour=int(t // 3600),
        day=int(t // 86400),
    )


class TestRelearnBlocking:
    def test_saturated_queue_keeps_the_old_model_serving(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        setup = trained_setup()
        setup.manager.attach_profiling_queue(queue)
        # Saturate the single slot with foreign traffic: the relearn
        # burst stacks behind 50 s of other lanes' work.
        for _ in range(5):
            queue.request(0.0)
        old_classifier = setup.manager.model.classifier
        old_repository = setup.manager.repository

        day1 = setup.trace.hourly_workloads(day=1)
        report = setup.manager.relearn(now=0.0, workloads=day1)
        assert report is not None
        assert setup.manager.relearn_count == 1
        # The new model exists but is gated behind its queued sweep:
        # the old classifier and repository keep serving.
        assert setup.manager.relearn_pending
        assert setup.manager.model.classifier is old_classifier
        assert setup.manager.repository is old_repository
        burst = [g for g in queue.grants if g.kind == "relearn"]
        assert len(burst) == len(day1) * setup.manager.config.trials_per_workload
        available = max(g.finish_at for g in burst)
        assert available == 50.0 + len(burst) * SERVICE
        assert setup.manager.model_available_at == available

        # Polling before the burst drains must not deploy the model.
        setup.manager.poll_pending_deployment(available - 1.0)
        assert setup.manager.relearn_pending
        assert setup.manager.model.classifier is old_classifier

        # Once the clock passes the burst's finish, the swap happens.
        setup.manager.poll_pending_deployment(available)
        assert not setup.manager.relearn_pending
        assert setup.manager.model.classifier is not old_classifier
        assert setup.manager.repository is not old_repository

    def test_bounded_false_sweep_stacks_past_the_cliff_and_still_gates(self):
        # max_pending=0 would reject any online arrival, but the
        # scheduled sweep is bounded=False: every trial is admitted and
        # the model still waits for the full burst.
        queue = ProfilingQueue(
            slots=1, service_seconds=SERVICE, max_pending=0
        )
        setup = trained_setup()
        setup.manager.attach_profiling_queue(queue)
        queue.request(0.0)  # slot busy: the burst has to queue
        day1 = setup.trace.hourly_workloads(day=1)
        setup.manager.relearn(now=0.0, workloads=day1)
        assert queue.rejected == 0
        assert setup.manager.relearn_pending
        assert setup.manager.model_available_at > 0.0

    def test_engine_step_deploys_the_staged_model(self):
        queue = ProfilingQueue(slots=1, service_seconds=SERVICE)
        setup = trained_setup()
        setup.manager.attach_profiling_queue(queue)
        queue.request(0.0)
        old_classifier = setup.manager.model.classifier
        setup.manager.relearn(
            now=0.0, workloads=setup.trace.hourly_workloads(day=1)
        )
        available = setup.manager.model_available_at
        # A step before availability serves old; one after swaps in.
        setup.manager.on_step(ctx_at(setup, min(300.0, available - 1.0)))
        assert setup.manager.model.classifier is old_classifier
        setup.manager.on_step(ctx_at(setup, available + 300.0))
        assert setup.manager.model.classifier is not old_classifier
        assert not setup.manager.relearn_pending

    def test_priority_revisions_push_availability_later(self):
        # Under the market a relearn burst bids low: a later escalation
        # probe overtakes its unstarted remainder, and the staged
        # model's availability moves with the revised projections.
        queue = ProfilingQueue(
            slots=1, service_seconds=SERVICE, queue_policy="priority"
        )
        setup = trained_setup()
        setup.manager.attach_profiling_queue(queue)
        queue.request(0.0, priority=PRIORITY_ADAPTATION)  # slot busy
        setup.manager.relearn(
            now=0.0, workloads=setup.trace.hourly_workloads(day=1)
        )
        before = setup.manager.model_available_at
        queue.request(1.0, priority=PRIORITY_ESCALATION)
        setup.manager.poll_pending_deployment(2.0)
        assert setup.manager.model_available_at == before + SERVICE
        assert setup.manager.relearn_pending

    def test_without_queue_the_relearn_installs_immediately(self):
        setup = trained_setup()
        old_classifier = setup.manager.model.classifier
        setup.manager.relearn(
            now=0.0, workloads=setup.trace.hourly_workloads(day=1)
        )
        assert not setup.manager.relearn_pending
        assert setup.manager.model.classifier is not old_classifier

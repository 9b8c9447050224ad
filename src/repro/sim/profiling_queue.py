"""The shared profiling environment: a bounded multi-slot queue.

DejaVu's cost argument (Sec. 5) rests on one profiling environment — a
few clone VMs — serving a whole fleet of services.  :class:`ProfilingQueue`
models it: each signature collection occupies one slot for
``service_seconds``, lanes that want to profile in the same step contend
for the slots, and the queue reports per-request waiting time, peak
depth and utilization, the price of multiplexing one profiler across
hundreds of services.

The default ``queue_policy="fifo"`` serves in arrival order.  A FIFO
request costs O(log slots): the slot-free times are a min-heap, and the
depth and busy-slot counts are kept incrementally within a clock value
(one O(slots) recount per new value, not per request).  ``"priority"``
turns the queue into an admission market (mempool idiom): requests carry
a priority derived from expected SLO benefit, watermark admission sheds
low-value work before the hard ``max_pending`` cliff, and
queued-but-unstarted low bidders are evictable when a higher bidder
arrives.  Profiler outages (:mod:`repro.sim.faults`) arrive through
:meth:`ProfilingQueue.attach_faults`.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field

import numpy as np

#: Priority classes for the shared profiling environment; higher wins.
#: The ordering encodes expected SLO benefit (the clone VMs are scarce,
#: Sec. 3.2.2): interference-escalation probes and violation-triggered
#: adaptations outbid periodic adaptation signatures, which outbid
#: re-learn sweeps, which outbid routine background re-signatures.
PRIORITY_ROUTINE = 0
PRIORITY_RELEARN = 1
PRIORITY_ADAPTATION = 2
PRIORITY_ESCALATION = 3

#: Admission policies a :class:`ProfilingQueue` understands.
QUEUE_POLICIES = ("fifo", "priority")

#: Every way a request can leave the queue.
GRANT_OUTCOMES = ("accepted", "rejected", "shed", "evicted", "revoked")

#: Float ulp at 1.0, the unit of the depth formula's clock tolerance.
_EPS = 2.220446049250313e-16


class QueueConfigError(ValueError):
    """A bad :class:`ProfilingQueue` argument.

    ``params`` names the constructor parameters at fault, so a caller
    building the queue from its own configuration can name its fields.
    """

    def __init__(self, message: str, *params: str) -> None:
        super().__init__(message)
        self.params = params


def _integer(name: str, value) -> int:
    """``value`` as an int, or a :class:`QueueConfigError` naming
    ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise QueueConfigError(
            f"{name} must be an integer: {value!r}", name
        ) from None


def _outstanding(free: float, t: float, service: float) -> int:
    """Unfinished requests stacked at time ``t`` on a slot freeing at
    ``free``.

    Accepted requests occupy a slot back-to-back for exactly
    ``service`` seconds each, so a slot freeing at ``free`` still owes
    ``ceil((free - t) / service)`` runs.  The tolerance keeps exact
    service-multiple boundaries from rounding up — and it must scale
    with the *clock* magnitude, not be a fixed epsilon: ``free - t``
    carries the rounding error of subtracting two large simulation
    times (a few ulp of ``t``), which at ``t ~ 1e9`` seconds dwarfs any
    absolute 1e-12 and would overcount ``pending_at`` into spurious
    bounded-queue rejections.
    """
    if free <= t:
        return 0
    # max(abs(t), abs(free)) and the two clamps, without builtin
    # calls: this runs twice per FIFO request.
    scale = free if free >= -t else -t
    tol = 4.0 * _EPS * scale / service
    if tol < 1e-12:
        tol = 1e-12
    runs = math.ceil((free - t) / service - tol)
    return runs if runs > 1 else 1


def outage_order(window: "tuple[float, float, int | None]") -> tuple:
    """Sort key of an outage window ``(start_t, end_t, slots)``: by
    start, then end, then slots, a whole-environment outage
    (``slots=None``) after every brownout it ties with."""
    start, end, slots = window
    return start, end, math.inf if slots is None else slots


@dataclass(init=False, slots=True)
class ProfilingGrant:
    """Outcome of one profiling request against the shared environment.

    ``outcome`` distinguishes how the request left the queue:
    ``"accepted"`` (scheduled, possibly after a wait), ``"rejected"``
    (bounded queue full on arrival), ``"shed"`` (turned away by
    watermark admission control while the backlog drains),
    ``"evicted"`` (admitted, then displaced by a higher-priority
    arrival before starting), and ``"revoked"`` (scheduled, then killed
    by a profiler outage before finishing — see
    :meth:`ProfilingQueue.attach_faults`).  Only accepted grants carry meaningful
    ``start_at``/``finish_at`` times and enter the wait/utilization
    aggregates; everything else pins ``start_at == requested_at`` so
    ``wait_seconds`` reads 0 but is excluded from the statistics.

    Under ``queue_policy="priority"`` an accepted-but-unstarted grant's
    schedule is a *projection* that later, higher-priority arrivals may
    push back; ``revised`` records that the schedule moved after issue,
    so feedback consumers (queue-delayed deployments) re-read
    ``start_at`` instead of trusting the wait quoted at request time,
    which ``quoted_wait`` keeps.

    The dataclass supplies the fields, ``repr`` and equality; the
    constructor is written out: a grant is built per profiling request,
    and a generated ``__init__`` plus ``__post_init__`` costs several
    times as much.
    """

    requested_at: float
    start_at: float
    finish_at: float
    outcome: str = "accepted"
    priority: int = PRIORITY_ADAPTATION
    kind: str = "adapt"
    revised: bool = False
    quoted_wait: float = field(default=0.0, init=False)

    def __init__(
        self,
        requested_at: float,
        start_at: float,
        finish_at: float,
        outcome: str = "accepted",
        priority: int = PRIORITY_ADAPTATION,
        kind: str = "adapt",
        revised: bool = False,
    ) -> None:
        self.requested_at = requested_at
        self.start_at = start_at
        self.finish_at = finish_at
        self.outcome = outcome
        self.priority = priority
        self.kind = kind
        self.revised = revised
        self.quoted_wait = start_at - requested_at

    @property
    def accepted(self) -> bool:
        return self.outcome == "accepted"

    @property
    def wait_seconds(self) -> float:
        """Time spent queued before a profiling slot opened."""
        return self.start_at - self.requested_at


class ProfilingQueue:
    """A contended profiling environment: ``slots`` clone VMs.

    Each profiling run (signature collection) occupies one slot for
    ``service_seconds``.  Requests arriving while all slots are busy
    wait for the earliest slot to free; once more than ``max_pending``
    requests are queued (not yet started), further arrivals are rejected
    — the bounded-queue back-pressure a real shared profiler would
    apply.  Time never rewinds: requests must arrive in non-decreasing
    time order, as the fleet engine guarantees.

    ``queue_policy`` selects the admission discipline:

    ``"fifo"`` (default)
        Arrival order, priorities recorded but ignored — bit-identical
        to the pre-market queue, which the scalar == batched == sharded
        equivalence pins rely on.

    ``"priority"``
        An admission market on the mempool idiom.  Slots serve the
        highest-priority queued request first (FIFO within a class).
        When the backlog reaches ``high_watermark`` entries, arrivals
        below ``shed_below`` priority are *shed* until it drains back
        to ``low_watermark`` — load-shedding before the hard
        ``max_pending`` rejection cliff.  At the cliff itself, a new
        arrival may *evict* the lowest-priority queued (not yet
        started) entry strictly below its own bid instead of being
        rejected.  ``bounded=False`` bursts are never shed, rejected
        or evicted, but their (low) priority still lets later high
        bidders overtake their unstarted remainder.
    """

    def __init__(
        self,
        slots: int = 1,
        service_seconds: float = 10.0,
        max_pending: int | None = None,
        queue_policy: str = "fifo",
        high_watermark: int | None = None,
        low_watermark: int | None = None,
        shed_below: int = PRIORITY_ADAPTATION,
    ) -> None:
        watermarks = ("high_watermark", "low_watermark")
        # Counts must be integers: a NaN bound or watermark compares
        # False with every depth, so it would silently never apply.
        slots = _integer("slots", slots)
        if max_pending is not None:
            max_pending = _integer("max_pending", max_pending)
        if high_watermark is not None:
            high_watermark = _integer("high_watermark", high_watermark)
        if low_watermark is not None:
            low_watermark = _integer("low_watermark", low_watermark)
        if slots < 1:
            raise QueueConfigError(
                f"need at least one profiling slot: {slots}", "slots"
            )
        if not 0.0 < service_seconds < math.inf:
            raise QueueConfigError(
                f"service_seconds must be positive and finite: {service_seconds}",
                "service_seconds",
            )
        if max_pending is not None and max_pending < 0:
            raise QueueConfigError(
                f"bad queue bound: {max_pending}", "max_pending"
            )
        if queue_policy not in QUEUE_POLICIES:
            raise QueueConfigError(
                f"unknown queue policy {queue_policy!r}; "
                f"have {QUEUE_POLICIES}",
                "queue_policy",
            )
        if (high_watermark is None) != (low_watermark is None):
            raise QueueConfigError(
                "high and low watermarks must be set together", *watermarks
            )
        if high_watermark is not None:
            if queue_policy != "priority":
                raise QueueConfigError(
                    "watermark shedding needs queue_policy='priority'",
                    "queue_policy",
                    *watermarks,
                )
            if low_watermark < 0 or high_watermark <= low_watermark:
                raise QueueConfigError(
                    "need 0 <= low_watermark < high_watermark: "
                    f"{low_watermark}, {high_watermark}",
                    *watermarks,
                )
        self.slots = slots
        self.service_seconds = float(service_seconds)
        self.max_pending = max_pending
        self.queue_policy = queue_policy
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.shed_below = shed_below
        # When each slot frees.  FIFO keeps the list a min-heap (only
        # the multiset of values matters, never a slot's index), so the
        # earliest slot is _slot_free[0]; priority mode scans it.
        self._slot_free = [0.0] * slots
        # FIFO depth and busy-slot count at clock _count_t, kept
        # incrementally between requests at the same clock value.
        self._count_t: float | None = None
        self._count_depth = 0
        self._count_busy = 0
        self._last_request_at = float("-inf")
        self.grants: list[ProfilingGrant] = []
        self.rejected = 0
        self.evicted = 0
        self.shed = 0
        self.revoked = 0
        # Profiler-outage windows (attach_faults), processed lazily by
        # advance_to as the clock passes their start times.
        self._fault_windows: tuple = ()
        self._next_fault = 0
        self.max_depth = 0
        self.busy_seconds = 0.0
        # Priority mode keeps the admitted-but-unstarted backlog
        # explicit (arrival order); fifo folds it into _slot_free.
        self._pending: list[ProfilingGrant] = []
        self._shedding = False

    def _outstanding_per_slot(self, t: float) -> list[int]:
        """Unfinished requests stacked on each slot at time ``t``."""
        service = self.service_seconds
        return [_outstanding(free, t, service) for free in self._slot_free]

    def _fifo_counts(self, t: float) -> tuple[int, int]:
        """FIFO ``(depth, busy slots)`` at ``t``: one recount per new
        clock value, then the request path keeps both exact."""
        if t != self._count_t:
            outstanding = self._outstanding_per_slot(t)
            self._count_t = t
            self._count_depth = sum(outstanding)
            self._count_busy = len(outstanding) - outstanding.count(0)
        return self._count_depth, self._count_busy

    def pending_at(self, t: float) -> int:
        """Requests granted but not yet *started* at time ``t``."""
        if self.queue_policy == "priority":
            return self._virtual_state(t)[1]
        return sum(
            outstanding - 1
            for outstanding in self._outstanding_per_slot(t)
            if outstanding > 1
        )

    def depth_at(self, t: float) -> int:
        """Requests queued or in service at time ``t``."""
        if self.queue_policy == "priority":
            sim, queued = self._virtual_state(t)
            return sum(1 for free in sim if free > t) + queued
        return sum(self._outstanding_per_slot(t))

    def request(
        self,
        t: float,
        *,
        bounded: bool = True,
        priority: int = PRIORITY_ADAPTATION,
        kind: str = "adapt",
    ) -> ProfilingGrant:
        """Ask for one profiling run starting no earlier than ``t``.

        ``bounded=False`` bypasses the admission controls (``max_pending``
        rejection, watermark shedding, eviction): scheduled bursts (an
        auto-relearn's learning sweep) stack behind the backlog instead
        of being turned away like online arrivals.  They still occupy
        slots and count toward utilization.

        ``priority`` and ``kind`` are recorded on the grant; under
        ``queue_policy="fifo"`` they do not influence scheduling.
        """
        if t < self._last_request_at:
            raise ValueError(
                f"profiling requests must not rewind: t={t} < {self._last_request_at}"
            )
        self._last_request_at = t
        if self.queue_policy == "priority":
            return self._request_priority(t, bounded, priority, kind)
        # FIFO: the pre-market queue's schedule arithmetic (the scalar
        # == batched == sharded pins rely on bit-identical schedules),
        # served from the earliest slot, the heap top.
        slot_free = self._slot_free
        free = slot_free[0]
        would_wait = free > t
        if t == self._count_t:
            depth, busy = self._count_depth, self._count_busy
        else:
            depth, busy = self._fifo_counts(t)
        if (
            would_wait
            and bounded
            and self.max_pending is not None
            and depth - busy >= self.max_pending
        ):
            self.rejected += 1
            grant = ProfilingGrant(t, t, t, "rejected", priority, kind)
            self.grants.append(grant)
            return grant
        service = self.service_seconds
        start = free if would_wait else t
        finish = start + service
        heapq.heapreplace(slot_free, finish)
        self.busy_seconds += service
        # Only the assigned slot changed: move both counts by its delta
        # (a slot freeing by t owed nothing).
        depth += _outstanding(finish, t, service)
        if would_wait:
            depth -= _outstanding(free, t, service)
        busy += (finish > t) - would_wait
        self._count_depth = depth
        self._count_busy = busy
        if depth > self.max_depth:
            self.max_depth = depth
        grant = ProfilingGrant(t, start, finish, "accepted", priority, kind)
        self.grants.append(grant)
        return grant

    # -- priority-mode scheduling (the admission market) ---------------

    def _request_priority(
        self, t: float, bounded: bool, priority: int, kind: str
    ) -> ProfilingGrant:
        self._drain(t)
        slot_free = self._slot_free
        slot = min(range(self.slots), key=slot_free.__getitem__)
        free = slot_free[slot]
        if free <= t:
            # An idle slot: start immediately, no market involved.
            finish = t + self.service_seconds
            slot_free[slot] = finish
            self.busy_seconds += self.service_seconds
            grant = ProfilingGrant(
                requested_at=t,
                start_at=t,
                finish_at=finish,
                priority=priority,
                kind=kind,
            )
            self.grants.append(grant)
            self._note_depth(t)
            return grant
        if bounded:
            if self._shedding and priority < self.shed_below:
                self.shed += 1
                grant = ProfilingGrant(
                    requested_at=t,
                    start_at=t,
                    finish_at=t,
                    outcome="shed",
                    priority=priority,
                    kind=kind,
                )
                self.grants.append(grant)
                return grant
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                victim = self._evictable(priority)
                if victim is None:
                    self.rejected += 1
                    grant = ProfilingGrant(
                        requested_at=t,
                        start_at=t,
                        finish_at=t,
                        outcome="rejected",
                        priority=priority,
                        kind=kind,
                    )
                    self.grants.append(grant)
                    return grant
                self._evict(victim)
        grant = ProfilingGrant(
            requested_at=t,
            start_at=t,
            finish_at=t,
            priority=priority,
            kind=kind,
        )
        self._pending.append(grant)
        self.busy_seconds += self.service_seconds
        self._project()
        self._update_shedding()
        self.grants.append(grant)
        self._note_depth(t)
        return grant

    def _service_order(self) -> list[ProfilingGrant]:
        """Pending grants in the order slots will serve them: priority
        descending, FIFO within a class (the sort is stable over the
        arrival-ordered backlog)."""
        return sorted(self._pending, key=lambda g: -g.priority)

    def _drain(self, t: float) -> None:
        """Commit queued grants whose slots free up by ``t``.

        Priority mode schedules lazily: a queued grant's slot
        assignment is final only once the clock passes its start — a
        higher bidder arriving before then overtakes it.  Committed
        starts are back-to-back on the earliest-free slot, matching the
        fifo arithmetic exactly when all priorities are equal.
        """
        pending = self._pending
        if not pending:
            return
        slot_free = self._slot_free
        while pending:
            slot = min(range(self.slots), key=slot_free.__getitem__)
            free = slot_free[slot]
            if free > t:
                break
            best = 0
            for i in range(1, len(pending)):
                if pending[i].priority > pending[best].priority:
                    best = i
            grant = pending.pop(best)
            grant.start_at = free
            grant.finish_at = free + self.service_seconds
            slot_free[slot] = grant.finish_at
        self._update_shedding()

    def _project(self) -> None:
        """(Re)project start/finish times for every pending grant.

        Runs after each queue mutation so ``wait_seconds`` is readable
        the moment a grant is issued; a later mutation that moves an
        already-issued grant's schedule marks it ``revised``.
        """
        if not self._pending:
            return
        sim = list(self._slot_free)
        service = self.service_seconds
        for grant in self._service_order():
            slot = min(range(self.slots), key=sim.__getitem__)
            start = sim[slot]
            sim[slot] = start + service
            # A freshly admitted grant still carries its placeholder
            # (finish == requested): its first projection is the issued
            # schedule, whose wait is the quote, not a revision.
            if grant.finish_at <= grant.requested_at:
                grant.quoted_wait = start - grant.requested_at
            elif grant.start_at != start:
                grant.revised = True
            grant.start_at = start
            grant.finish_at = start + service

    def _virtual_state(self, t: float) -> tuple[list[float], int]:
        """Slot-free times and un-started backlog at ``t``, without
        mutating (the non-committing view behind ``pending_at``)."""
        sim = list(self._slot_free)
        waiting = self._service_order()
        started = 0
        for grant in waiting:
            slot = min(range(self.slots), key=sim.__getitem__)
            if sim[slot] > t:
                break
            sim[slot] += self.service_seconds
            started += 1
        return sim, len(waiting) - started

    def _evictable(self, priority: int) -> int | None:
        """Backlog index a ``priority`` arrival may displace: the
        lowest-priority entry strictly below the bidder, the youngest
        among equals (earlier work keeps its place)."""
        pending = self._pending
        best = None
        for i, grant in enumerate(pending):
            if grant.priority >= priority:
                continue
            if best is None or grant.priority <= pending[best].priority:
                best = i
        return best

    def _evict(self, index: int) -> None:
        grant = self._pending.pop(index)
        grant.outcome = "evicted"
        grant.start_at = grant.requested_at
        grant.finish_at = grant.requested_at
        grant.revised = True
        self.evicted += 1
        # The admission charge is refunded: the run never happens.
        self.busy_seconds -= self.service_seconds
        self._project()

    def _update_shedding(self) -> None:
        if self.high_watermark is None:
            return
        n = len(self._pending)
        if self._shedding:
            if n <= self.low_watermark:
                self._shedding = False
        elif n >= self.high_watermark:
            self._shedding = True

    def _note_depth(self, t: float) -> None:
        depth = (
            sum(1 for free in self._slot_free if free > t)
            + len(self._pending)
        )
        if depth > self.max_depth:
            self.max_depth = depth

    # -- profiler outages (fault injection) -----------------------------

    def attach_faults(
        self, windows: "tuple[tuple[float, float, int | None], ...]"
    ) -> None:
        """Arm profiler-outage windows (``(start_t, end_t, slots)``).

        The fleet engine calls :meth:`advance_to` once per step; a
        window whose start time has arrived is applied then — at the
        same point of every engine path, so scalar, batched and sharded
        runs revoke the same grants.  ``slots=None`` takes the whole
        environment offline: every accepted grant still unfinished at
        the window start is **revoked** (outcome ``"revoked"``, charge
        refunded — the run was killed mid-collection or never started)
        and every slot stays dark until the window ends.  A partial
        brownout (``slots=k``) pushes the ``k`` next-free slots to the
        window end without killing in-flight runs — capacity shrinks,
        schedules slip (priority-mode grants are re-projected and
        marked ``revised``), but nothing already collecting dies.
        """
        for start, end, slots in windows:
            if end <= start:
                raise ValueError(
                    f"outage window must have positive length: "
                    f"({start}, {end})"
                )
            if slots is not None and slots < 1:
                raise ValueError(
                    f"outage must take at least one slot: {slots}"
                )
        self._fault_windows = tuple(sorted(windows, key=outage_order))
        self._next_fault = 0

    def grants_stable_until(self) -> float:
        """The time before which no grant already issued can change.

        A FIFO grant's schedule is final when issued; only a profiler
        outage can still touch it (revoke it, or push the slots behind
        it), so the answer is the start of the next window
        :meth:`advance_to` has not applied yet, or ``inf`` when none
        remains.  Under ``queue_policy="priority"`` any later arrival
        may revise or evict an unstarted projection: ``-inf``.
        """
        if self.queue_policy == "priority":
            return -math.inf
        if self._next_fault < len(self._fault_windows):
            return self._fault_windows[self._next_fault][0]
        return math.inf

    def advance_to(self, t: float) -> None:
        """Apply every outage window whose start time is <= ``t``."""
        windows = self._fault_windows
        while (
            self._next_fault < len(windows)
            and windows[self._next_fault][0] <= t
        ):
            self._apply_outage(*windows[self._next_fault])
            self._next_fault += 1

    def _apply_outage(
        self, start_t: float, end_t: float, slots_down: int | None
    ) -> None:
        if self.queue_policy == "priority":
            # Commit whatever the clock has already served; the
            # un-started backlog survives the outage and re-projects
            # behind the pushed slots.
            self._drain(start_t)
        self._count_t = None  # the FIFO counts recount at the next request
        affected = (
            self.slots if slots_down is None else min(slots_down, self.slots)
        )
        if affected == self.slots:
            pending_ids = {id(g) for g in self._pending}
            for grant in self.grants:
                if grant.outcome != "accepted" or id(grant) in pending_ids:
                    continue
                if grant.finish_at > start_t:
                    grant.outcome = "revoked"
                    grant.start_at = grant.requested_at
                    grant.finish_at = grant.requested_at
                    grant.revised = True
                    self.revoked += 1
                    # The run was killed: refund the charge, like an
                    # eviction (partial progress is not billed).
                    self.busy_seconds -= self.service_seconds
            for slot in range(self.slots):
                self._slot_free[slot] = end_t
        else:
            order = sorted(
                range(self.slots), key=self._slot_free.__getitem__
            )
            for slot in order[:affected]:
                self._slot_free[slot] = max(self._slot_free[slot], end_t)
            heapq.heapify(self._slot_free)  # back to FIFO heap order
        if self.queue_policy == "priority":
            self._project()

    @property
    def accepted_grants(self) -> list[ProfilingGrant]:
        return [g for g in self.grants if g.accepted]

    @property
    def total_requests(self) -> int:
        return len(self.grants)

    def outcome_counts(self) -> dict[str, int]:
        """Requests by outcome; the counts sum to
        :attr:`total_requests` (the conservation invariant)."""
        counts = dict.fromkeys(GRANT_OUTCOMES, 0)
        for grant in self.grants:
            counts[grant.outcome] += 1
        return counts

    @property
    def mean_wait_seconds(self) -> float:
        accepted = self.accepted_grants
        if not accepted:
            return 0.0
        return float(np.mean([g.wait_seconds for g in accepted]))

    @property
    def max_wait_seconds(self) -> float:
        accepted = self.accepted_grants
        if not accepted:
            return 0.0
        return float(np.max([g.wait_seconds for g in accepted]))

    def utilization(self, duration_seconds: float, start: float = 0.0) -> float:
        """Fraction of slot-time in ``[start, start + duration)`` spent
        profiling.

        Service intervals are clipped to the window, so a backlog that
        is scheduled past the end of the run does not inflate the
        figure beyond 100%.
        """
        if duration_seconds <= 0:
            raise ValueError(f"duration must be positive: {duration_seconds}")
        end = start + duration_seconds
        busy_within = sum(
            max(0.0, min(g.finish_at, end) - max(g.start_at, start))
            for g in self.accepted_grants
        )
        return busy_within / (self.slots * duration_seconds)

"""The FIFO profiling queue's heap and cached counts against the formula.

``ProfilingQueue`` keeps its FIFO slot-free times in a heap and its depth
and busy-slot counts incrementally within a clock value.  The oracle
below is the straightforward O(slots) FIFO queue it replaced: a linear
scan for the earliest slot and a full per-slot recount for every depth
and pending figure.  Every grant and every count must match it exactly,
including at clocks near 1e9 s, where the depth formula's tolerance
decides service-multiple boundaries.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.profiling_queue import (
    ProfilingQueue,
    QueueConfigError,
    outage_order,
)


class NaiveFifoQueue:
    """The O(slots)-per-request FIFO queue, kept as the test oracle."""

    def __init__(self, slot_free, service_seconds, max_pending):
        self.slots = len(slot_free)
        self.service_seconds = float(service_seconds)
        self.max_pending = max_pending
        self._slot_free = list(slot_free)
        self.grants = []
        self.rejected = 0
        self.revoked = 0
        self.max_depth = 0
        self.busy_seconds = 0.0
        self._fault_windows = ()
        self._next_fault = 0

    def _outstanding_per_slot(self, t):
        service = self.service_seconds
        eps = 2.220446049250313e-16  # float ulp at 1.0
        out = []
        for free in self._slot_free:
            if free <= t:
                out.append(0)
                continue
            tol = max(1e-12, 4.0 * eps * max(abs(t), abs(free)) / service)
            out.append(max(1, math.ceil((free - t) / service - tol)))
        return out

    def pending_at(self, t):
        return sum(
            outstanding - 1
            for outstanding in self._outstanding_per_slot(t)
            if outstanding > 1
        )

    def depth_at(self, t):
        return sum(self._outstanding_per_slot(t))

    def request(self, t, bounded=True):
        slot_free = self._slot_free
        slot = min(range(self.slots), key=slot_free.__getitem__)
        free = slot_free[slot]
        would_wait = free > t
        if (
            bounded
            and self.max_pending is not None
            and would_wait
            and self.pending_at(t) >= self.max_pending
        ):
            self.rejected += 1
            self.grants.append(["rejected", t, t, t])
            return self.grants[-1]
        start = free if would_wait else t
        finish = start + self.service_seconds
        slot_free[slot] = finish
        self.busy_seconds += self.service_seconds
        depth = self.depth_at(t)
        if depth > self.max_depth:
            self.max_depth = depth
        self.grants.append(["accepted", t, start, finish])
        return self.grants[-1]

    def attach_faults(self, windows):
        self._fault_windows = tuple(sorted(windows, key=outage_order))
        self._next_fault = 0

    def advance_to(self, t):
        windows = self._fault_windows
        while (
            self._next_fault < len(windows)
            and windows[self._next_fault][0] <= t
        ):
            self._apply_outage(*windows[self._next_fault])
            self._next_fault += 1

    def _apply_outage(self, start_t, end_t, slots_down):
        affected = (
            self.slots if slots_down is None else min(slots_down, self.slots)
        )
        if affected == self.slots:
            for grant in self.grants:
                if grant[0] == "accepted" and grant[3] > start_t:
                    grant[0] = "revoked"
                    grant[2] = grant[3] = grant[1]
                    self.revoked += 1
                    self.busy_seconds -= self.service_seconds
            for slot in range(self.slots):
                self._slot_free[slot] = end_t
        else:
            order = sorted(
                range(self.slots), key=self._slot_free.__getitem__
            )
            for slot in order[:affected]:
                self._slot_free[slot] = max(self._slot_free[slot], end_t)


SERVICES = (0.1, 1.0, 10.0, 7.3)
BASES = (0.0, 1e9)


@st.composite
def fifo_runs(draw):
    """A slot-free state, a non-decreasing request sequence and outage
    windows, all on one clock: either near 0 or near 1e9 s."""
    service = draw(st.sampled_from(SERVICES))
    base = draw(st.sampled_from(BASES))

    def clock(max_units):
        # Exactly on a service-time multiple, or anywhere in between.
        if draw(st.booleans()):
            return base + draw(st.integers(0, max_units)) * service
        return base + draw(
            st.floats(0.0, max_units * service, allow_nan=False)
        )

    slots = draw(st.integers(1, 6))
    slot_free = [
        clock(12) if draw(st.booleans()) else base - service
        for _ in range(slots)
    ]
    times = sorted(clock(30) for _ in range(draw(st.integers(1, 40))))
    # Repeat clock values, as a fleet step charges many lanes at one t.
    times = sorted(times + draw(st.lists(st.sampled_from(times), max_size=20)))
    requests = [(t, draw(st.booleans())) for t in times]
    windows = [
        (
            start,
            start + draw(st.integers(1, 5)) * service,
            draw(st.one_of(st.none(), st.integers(1, slots + 1))),
        )
        for start in (clock(30) for _ in range(draw(st.integers(0, 3))))
    ]
    max_pending = draw(st.one_of(st.none(), st.integers(0, 4)))
    return service, slot_free, requests, windows, max_pending


@settings(max_examples=300, deadline=None)
@given(fifo_runs())
def test_cached_counts_equal_the_formula(run):
    service, slot_free, requests, windows, max_pending = run
    queue = ProfilingQueue(
        slots=len(slot_free), service_seconds=service, max_pending=max_pending
    )
    # Any order of the same values is the same state; the heap needs
    # a heap order, and a sorted list is one.
    queue._slot_free = sorted(slot_free)
    oracle = NaiveFifoQueue(slot_free, service, max_pending)
    queue.attach_faults(windows)
    oracle.attach_faults(windows)
    for t, bounded in requests:
        queue.advance_to(t)
        oracle.advance_to(t)
        assert queue.pending_at(t) == oracle.pending_at(t)
        assert queue.depth_at(t) == oracle.depth_at(t)
        grant = queue.request(t, bounded=bounded)
        expected = oracle.request(t, bounded=bounded)
        assert [
            grant.outcome, grant.requested_at, grant.start_at, grant.finish_at
        ] == expected
        assert queue.max_depth == oracle.max_depth
        assert queue.rejected == oracle.rejected
        assert queue.pending_at(t) == oracle.pending_at(t)
        assert queue.depth_at(t) == oracle.depth_at(t)
        assert sorted(queue._slot_free) == sorted(oracle._slot_free)
    assert [
        [g.outcome, g.requested_at, g.start_at, g.finish_at]
        for g in queue.grants
    ] == oracle.grants
    assert queue.revoked == oracle.revoked
    assert queue.busy_seconds == oracle.busy_seconds


def test_tied_outage_windows_apply_the_brownout_first():
    queue = ProfilingQueue(slots=2, service_seconds=10.0)
    queue.attach_faults([(0.0, 5.0, None), (0.0, 5.0, 1)])
    queue.advance_to(0.0)
    assert sorted(queue._slot_free) == [5.0, 5.0]
    assert queue.request(0.0).start_at == 5.0


@pytest.mark.parametrize(
    "kwargs, param",
    [
        (dict(service_seconds=float("nan")), "service_seconds"),
        (dict(service_seconds=float("inf")), "service_seconds"),
        (dict(max_pending=float("nan")), "max_pending"),
        (dict(slots=2.5), "slots"),
        (
            dict(
                queue_policy="priority",
                high_watermark=float("nan"),
                low_watermark=1,
            ),
            "high_watermark",
        ),
        (
            dict(
                queue_policy="priority",
                high_watermark=3,
                low_watermark=float("nan"),
            ),
            "low_watermark",
        ),
    ],
)
def test_bad_numbers_raise_a_config_error_naming_the_parameter(kwargs, param):
    """A NaN service time would fail every request, a NaN bound or
    watermark would never apply, and a fractional slot count failed
    with a bare TypeError."""
    with pytest.raises(QueueConfigError) as raised:
        ProfilingQueue(**kwargs)
    assert param in raised.value.params
    assert param in str(raised.value)


def test_integral_numbers_of_any_int_type_are_accepted():
    queue = ProfilingQueue(
        slots=np.int64(2),
        max_pending=np.int64(3),
        queue_policy="priority",
        high_watermark=np.int64(2),
        low_watermark=0,
    )
    assert (queue.slots, queue.max_pending, queue.high_watermark) == (2, 3, 2)
    assert all(type(v) is int for v in (queue.slots, queue.max_pending))

"""Simulation time: one step grid per run.

All simulation time is expressed in seconds since the start of the run.
The trace-driven experiments in the paper span one week at one-hour load
granularity, while DejaVu's adaptation happens on the order of seconds,
so a run may step coarsely (hourly) or finely (seconds).  Either way its
steps sit on one grid: step ``i`` is at ``start + i * step``, computed
from the index rather than summed, so no step drifts off the grid.

This module is the only code that maps steps to times
(:func:`step_time`, :class:`SimClock`), and :func:`reached` is the one
rule deciding when a scheduled wake time has come.
"""

from __future__ import annotations

import math

import numpy as np

MINUTE = 60
HOUR = 3600
SECONDS_PER_DAY = 24 * HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


def check_step(step_seconds: float) -> float:
    """``step_seconds`` as a float; ValueError unless it is a step width."""
    # Written so NaN fails too: every comparison with it is False.
    if not 0.0 < step_seconds < math.inf:
        raise ValueError(
            f"step_seconds must be positive and finite, got {step_seconds}"
        )
    return float(step_seconds)


def step_time(i, step_seconds: float, start: float = 0.0):
    """Time of step ``i`` (an int or an integer array) on the grid
    ``start + i * step_seconds``."""
    return start + i * step_seconds


def reached(t, at):
    """Whether time ``t`` has reached the wake time ``at``, elementwise
    on numpy arrays too.

    A step up to 1e-9 s short of ``at`` counts: wake times are sums of
    other times (``t + interval``) and may round just above the step
    meant to meet them.
    """
    return t + 1e-9 >= at


class SimClock:
    """The step grid of one run, its arguments validated once.

    Step ``i`` is at :meth:`time` ``(i)``; the run takes the ``n`` grid
    times strictly before ``start + duration_seconds``, so a partial
    last step counts.
    """

    def __init__(
        self, duration_seconds: float, step_seconds: float, start: float = 0.0
    ) -> None:
        # Written so NaN fails too: every comparison with it is False.
        if not 0.0 < duration_seconds < math.inf:
            raise ValueError(
                "duration_seconds must be positive and finite, "
                f"got {duration_seconds}"
            )
        if not 0.0 <= start < math.inf:
            raise ValueError(
                f"start must be non-negative and finite, got {start}"
            )
        self.step_seconds = check_step(step_seconds)
        self.start = float(start)
        # Grid times do not decrease with the index, so the count is the
        # first index at or past the end; the quotient is within a step
        # or two of it.
        end = self.start + duration_seconds
        n = math.ceil(duration_seconds / self.step_seconds)
        while n and self.time(n - 1) >= end:
            n -= 1
        while self.time(n) < end:
            n += 1
        self.n = n

    def time(self, i: int) -> float:
        """Simulation time of step ``i``."""
        return step_time(i, self.step_seconds, self.start)

    def times(self) -> np.ndarray:
        """Every step's time, in step order."""
        return step_time(np.arange(self.n), self.step_seconds, self.start)

    def hour(self, i: int) -> int:
        """Whole hours from the start of the trace to step ``i``."""
        return int(self.time(i) // HOUR)

    def day(self, i: int) -> int:
        """Whole days from the start of the trace to step ``i``."""
        return int(self.time(i) // SECONDS_PER_DAY)

    def __repr__(self) -> str:
        hour = self.hour(0)
        return f"SimClock(day={self.day(0)}, hour_of_day={hour % 24}, n={self.n})"

"""Simulation clock.

All simulation time is expressed in seconds since the start of the run.
The trace-driven experiments in the paper span one week at one-hour load
granularity, while DejaVu's adaptation happens on the order of seconds,
so the clock supports both coarse (hourly) and fine (second) stepping.
"""

from __future__ import annotations

import math

MINUTE = 60
HOUR = 3600
SECONDS_PER_DAY = 24 * HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class SimClock:
    """A monotonically advancing simulation clock.

    Parameters
    ----------
    start:
        Initial time in seconds.  Defaults to 0 (start of the trace).
    """

    def __init__(self, start: float = 0.0) -> None:
        # Written so NaN fails too: every comparison with it is False.
        if not 0.0 <= start < math.inf:
            raise ValueError(
                f"clock cannot start at negative or non-finite time: "
                f"start={start}"
            )
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def hour(self) -> int:
        """Whole hours elapsed since the start of the trace."""
        return int(self._now // HOUR)

    @property
    def hour_of_day(self) -> int:
        """Hour within the current day, in ``[0, 24)``."""
        return self.hour % 24

    @property
    def day(self) -> int:
        """Whole days elapsed since the start of the trace."""
        return int(self._now // SECONDS_PER_DAY)

    def advance(self, seconds: float) -> float:
        """Move the clock forward and return the new time.

        Raises
        ------
        ValueError
            If ``seconds`` is negative (simulation time never rewinds),
            NaN or infinite.
        """
        if not 0.0 <= seconds < math.inf:
            raise ValueError(f"cannot advance clock by seconds={seconds}")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(day={self.day}, hour_of_day={self.hour_of_day}, t={self._now:.0f}s)"


def step_count(duration_seconds: float, step_seconds: float) -> int:
    """Steps a run of ``duration_seconds`` takes at ``step_seconds``.

    Replays the stepping loop of :meth:`repro.sim.fleet.FleetEngine.run`
    — advance a clock from 0 while ``now < duration_seconds`` — with the
    same float accumulation, so a partial last step counts and the
    count always matches the steps the engine records.
    """
    if not (math.isfinite(duration_seconds) and duration_seconds > 0):
        raise ValueError(
            f"duration must be positive and finite: {duration_seconds}"
        )
    if not (math.isfinite(step_seconds) and step_seconds > 0):
        raise ValueError(f"step must be positive and finite: {step_seconds}")
    clock = SimClock()
    steps = 0
    while clock.now < duration_seconds:
        clock.advance(step_seconds)
        steps += 1
    return steps

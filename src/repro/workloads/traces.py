"""Synthetic week-long load traces.

The paper replays HotMail and Windows Live Messenger traces from
September 2009 (Thereska et al., EuroSys'11): hourly load aggregated
over thousands of servers, "proportionally scaled down so that the peak
load corresponds to the maximum number of clients we can successfully
serve at full capacity (10 virtual instances)".

We do not have the Microsoft traces, so we synthesize traces that match
every property the evaluation actually depends on:

* one-hour granularity, seven days (168 samples), normalized to peak 1.0;
* each day is a sequence of a small number of recurring load *plateaus*
  (levels), so that day-1 learning yields **4 classes for Messenger and
  3 for HotMail** (Sec. 4.1) with the peak hour forming a small cluster
  (Fig. 5);
* the plateau *levels* recur day to day (small multiplicative jitter),
  but *when* the day transitions between them wanders by a couple of
  hours, and the evening peak moves and stretches — so a blind
  time-of-day replay (Autopilot) lands on the wrong allocation for a
  substantial fraction of hours while signature-based classification
  (DejaVu) is unaffected;
* weekends follow a different schedule (later mornings, for Messenger
  an evening social peak) with the same levels;
* a day-4 HotMail surge to a level absent from day 1, so DejaVu's
  confidence-based fallback to full capacity triggers (Sec. 4.1).

The generators are deterministic given a seed.  They draw day by day
from one generator, so a trace built for its first ``n_days`` days
holds exactly the first ``24 * n_days`` hours of the full week: a
study that reads only those hours need not synthesize the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.clock import HOUR
from repro.workloads.request_mix import RequestMix, Workload

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7
TRACE_HOURS = HOURS_PER_DAY * DAYS_PER_WEEK


@dataclass(frozen=True)
class LoadTrace:
    """A normalized hourly load trace plus the request mix it carries.

    ``hourly_load[h]`` is the offered load during hour ``h`` as a
    fraction of the peak the service can sustain at full capacity.

    A trace is a workload source: calling it is :meth:`workload_at`.
    Its workload is constant within a trace hour ``int(t // HOUR)``,
    the hour :meth:`~repro.sim.clock.SimClock.hour` gives a step, so a
    :class:`~repro.sim.fleet.FleetEngine` lane whose ``workload_fn`` is
    the trace itself is re-evaluated only on the first step of each
    hour; any other callable is evaluated every step.

    The synthetic generators build a full week by default; fleet
    studies build only the days they simulate (``n_days``), which hold
    the same loads as the week's first days, and a time past the last
    held hour raises ``ValueError``.
    """

    name: str
    hourly_load: np.ndarray
    mix: RequestMix
    peak_clients: float = 1000.0

    def __post_init__(self) -> None:
        load = np.asarray(self.hourly_load, dtype=float)
        if load.ndim != 1 or load.size == 0:
            raise ValueError("hourly_load must be a non-empty 1-D array")
        if np.any(load < 0):
            raise ValueError("trace contains negative load")
        if self.peak_clients <= 0:
            raise ValueError(f"peak_clients must be positive: {self.peak_clients}")
        object.__setattr__(self, "hourly_load", load)
        # Per-hour Workload cache for workload_at; not a dataclass field,
        # so it takes no part in equality, repr or replace().
        object.__setattr__(self, "_workloads", [None] * load.size)

    @property
    def hours(self) -> int:
        return int(self.hourly_load.size)

    @property
    def duration_seconds(self) -> float:
        return self.hours * HOUR

    def _hour_of(self, t_seconds: float) -> int:
        """The trace hour containing ``t_seconds``, validated."""
        if not math.isfinite(t_seconds):
            raise ValueError(f"non-finite trace time: {t_seconds}")
        if t_seconds < 0:
            raise ValueError(f"negative trace time: {t_seconds}")
        hour = int(t_seconds // HOUR)
        if hour >= self.hours:
            raise ValueError(
                f"t={t_seconds:.0f}s is beyond the {self.hours}-hour trace"
            )
        return hour

    def load_at(self, t_seconds: float) -> float:
        """Normalized load during the hour containing ``t_seconds``.

        The trace is piecewise constant per hour, matching the paper's
        1-hour measurement increments.
        """
        return float(self.hourly_load[self._hour_of(t_seconds)])

    def workload_at(self, t_seconds: float) -> Workload:
        """The offered :class:`Workload` at simulation time ``t_seconds``.

        The trace is constant within an hour and both dataclasses are
        frozen, so each hour's workload is built once, on first use, and
        every step inside that hour shares the object.
        """
        hour = self._hour_of(t_seconds)
        workload = self._workloads[hour]
        if workload is None:
            workload = self._workloads[hour] = Workload(
                volume=float(self.hourly_load[hour]) * self.peak_clients,
                mix=self.mix,
            )
        return workload

    def __call__(self, t_seconds: float) -> Workload:
        """The trace as a ``workload_fn``: :meth:`workload_at`."""
        return self.workload_at(t_seconds)

    def day_slice(self, day: int) -> np.ndarray:
        """Hourly loads of one trace day (used for learning-phase setup)."""
        start = day * HOURS_PER_DAY
        if not 0 <= start < self.hours:
            raise ValueError(f"trace has no day {day}")
        return self.hourly_load[start : start + HOURS_PER_DAY]

    def hourly_workloads(self, day: int) -> list[Workload]:
        """The 24 hourly workloads of one day (learning input)."""
        return [
            Workload(volume=load * self.peak_clients, mix=self.mix)
            for load in self.day_slice(day)
        ]


@dataclass(frozen=True)
class DaySchedule:
    """One day as plateau segments.

    ``segments`` is a list of ``(start_hour, level_index)`` pairs in
    increasing start order; each segment runs until the next one (the
    last runs to midnight).
    """

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        starts = [s for s, _ in self.segments]
        if not self.segments or self.segments[0][0] != 0:
            raise ValueError("a day schedule must start at hour 0")
        if starts != sorted(starts):
            raise ValueError(f"segment starts must increase: {starts}")
        if any(not 0 <= s < HOURS_PER_DAY for s in starts):
            raise ValueError(f"segment start outside the day: {starts}")

    def level_indices(self) -> np.ndarray:
        """Per-hour level index array of length 24."""
        out = np.zeros(HOURS_PER_DAY, dtype=int)
        for (start, level), nxt in zip(
            self.segments, list(self.segments[1:]) + [(HOURS_PER_DAY, -1)]
        ):
            out[start : nxt[0]] = level
        return out

    def shifted(self, deltas: dict[int, int]) -> "DaySchedule":
        """Move segment boundaries by per-segment hour deltas.

        ``deltas`` maps segment index (1-based; segment 0 is pinned at
        midnight) to a shift in hours.  Shifts are clamped so starts
        stay strictly increasing.
        """
        starts = [s for s, _ in self.segments]
        levels = [lvl for _, lvl in self.segments]
        for idx, delta in deltas.items():
            if not 1 <= idx < len(starts):
                raise ValueError(f"no shiftable segment {idx}")
            starts[idx] += delta
        # Clamp into a strictly increasing sequence inside the day.
        for idx in range(1, len(starts)):
            starts[idx] = max(starts[idx], starts[idx - 1] + 1)
            starts[idx] = min(starts[idx], HOURS_PER_DAY - (len(starts) - idx))
        return DaySchedule(segments=tuple(zip(starts, levels)))


def _day_loads(
    schedule: DaySchedule,
    levels: np.ndarray,
    jitter: np.ndarray,
) -> np.ndarray:
    """Hourly loads of one day: plateau levels with multiplicative jitter."""
    loads = levels[schedule.level_indices()] * (1.0 + jitter)
    return np.clip(loads, 0.02, 1.0)


def _random_shifts(
    rng: np.random.Generator, n_segments: int, max_shift: int
) -> dict[int, int]:
    """Independent boundary shifts in ``[-max_shift, max_shift]``."""
    return {
        idx: int(rng.integers(-max_shift, max_shift + 1))
        for idx in range(1, n_segments)
    }


#: Messenger plateau levels: four classes (Sec. 4.1 finds 4), the top
#: one the single daily peak hour (the Fig. 5 singleton).
MESSENGER_LEVELS = np.array([0.15, 0.40, 0.60, 1.00])

#: Canonical Messenger weekday: night, morning ramp, working plateau,
#: evening peak hour, wind-down.
_MESSENGER_WEEKDAY = DaySchedule(
    segments=((0, 0), (6, 1), (9, 2), (19, 3), (20, 2), (21, 1), (23, 0))
)

#: Messenger weekend: later start, no midday peak, social evening peak.
_MESSENGER_WEEKEND = DaySchedule(
    segments=((0, 0), (8, 1), (12, 2), (20, 3), (22, 1), (23, 0))
)

#: HotMail plateau levels: three classes (Sec. 4.1 finds 3).
HOTMAIL_LEVELS = np.array([0.15, 0.45, 0.80])

_HOTMAIL_WEEKDAY = DaySchedule(
    segments=((0, 0), (7, 1), (10, 2), (16, 1), (21, 0))
)

_HOTMAIL_WEEKEND = DaySchedule(
    segments=((0, 0), (9, 1), (13, 2), (17, 1), (22, 0))
)

#: Day-4 HotMail surge level: 5% above the full-capacity design point
#: and 31% above the highest learned plateau — far enough outside every
#: learned class that classification certainty collapses.
HOTMAIL_SURGE_LOAD = 1.05


def _check_days(n_days: int) -> None:
    if not 1 <= n_days <= DAYS_PER_WEEK:
        raise ValueError(
            f"a trace holds 1 to {DAYS_PER_WEEK} days: n_days={n_days}"
        )


def _weekly_loads(
    levels: np.ndarray,
    weekday: DaySchedule,
    weekend: DaySchedule,
    rng: np.random.Generator,
    jitter_sd: float,
    max_shift: int,
    n_days: int = DAYS_PER_WEEK,
) -> np.ndarray:
    """Assemble the first ``n_days`` days of a week.  Day 0 (the
    learning day) is canonical.  Each day draws from ``rng`` after the
    days before it, so fewer days are a prefix of the full week."""
    days = []
    for day in range(n_days):
        template = weekend if day in (5, 6) else weekday
        if day == 0:
            schedule = template
        else:
            schedule = template.shifted(
                _random_shifts(rng, len(template.segments), max_shift)
            )
        jitter = rng.normal(0.0, jitter_sd, HOURS_PER_DAY)
        days.append(_day_loads(schedule, levels, jitter))
    return np.concatenate(days)


def synthetic_messenger_trace(
    mix: RequestMix,
    seed: int = 7,
    peak_clients: float = 1000.0,
    jitter_sd: float = 0.03,
    max_shift: int = 3,
    n_days: int = DAYS_PER_WEEK,
) -> LoadTrace:
    """A Windows-Live-Messenger-like week (Fig. 6(a) substitute), or
    its first ``n_days`` days."""
    _check_days(n_days)
    rng = np.random.default_rng(seed)
    load = _weekly_loads(
        MESSENGER_LEVELS,
        _MESSENGER_WEEKDAY,
        _MESSENGER_WEEKEND,
        rng,
        jitter_sd=jitter_sd,
        max_shift=max_shift,
        n_days=n_days,
    )
    return LoadTrace(
        name="messenger-synthetic",
        hourly_load=load,
        mix=mix,
        peak_clients=peak_clients,
    )


def synthetic_hotmail_trace(
    mix: RequestMix,
    seed: int = 11,
    peak_clients: float = 1000.0,
    jitter_sd: float = 0.03,
    max_shift: int = 3,
    anomaly_day: int = 3,
    anomaly_hours: tuple[int, ...] = (11, 12, 13),
    n_days: int = DAYS_PER_WEEK,
) -> LoadTrace:
    """A HotMail-like week with a day-4 surge (Fig. 7(a) substitute).

    ``anomaly_day`` is zero-based; the default 3 is the trace's fourth
    day, where the paper reports a workload "that differs significantly
    from the previously defined workload classes" and forces DejaVu to
    fall back to full capacity.  With ``n_days`` below the full week
    only the first days are built, and the surge is written only if its
    day is among them.
    """
    _check_days(n_days)
    rng = np.random.default_rng(seed)
    load = _weekly_loads(
        HOTMAIL_LEVELS,
        _HOTMAIL_WEEKDAY,
        _HOTMAIL_WEEKEND,
        rng,
        jitter_sd=jitter_sd,
        max_shift=max_shift,
        n_days=n_days,
    )
    if not 0 <= anomaly_day < DAYS_PER_WEEK:
        raise ValueError(f"anomaly day out of range: {anomaly_day}")
    if anomaly_day == 0:
        raise ValueError("the anomaly must not land on the learning day")
    for hour in anomaly_hours:
        if not 0 <= hour < HOURS_PER_DAY:
            raise ValueError(f"anomaly hour out of range: {hour}")
        if anomaly_day < n_days:
            load[anomaly_day * HOURS_PER_DAY + hour] = HOTMAIL_SURGE_LOAD
    return LoadTrace(
        name="hotmail-synthetic",
        hourly_load=load,
        mix=mix,
        peak_clients=peak_clients,
    )

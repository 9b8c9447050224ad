"""Deterministic fault injection: hosts die mid-run, the profiler goes dark.

DejaVu's value proposition (Sec. 3) is that a *cached* allocation
repository keeps serving when fresh profiling is unavailable — which is
only testable if profiling can actually become unavailable and hosts can
actually fail.  This module provides the event vocabulary:

* :class:`HostFaultEvent` — one host's capacity drops to zero at a step
  and is restored ``duration_steps`` later.  The owning
  :class:`~repro.sim.hosts.HostMap` reacts with a failure-triggered
  **evacuation** (tenants re-placed onto surviving hosts, each paying
  the Sec. 3 VM-cloning blackout window through its interference feed)
  or, with ``recovery=False``, leaves every tenant running **degraded**
  at ``residual_rate`` of its capacity until the host returns.
* :class:`ProfilerFaultEvent` — the shared profiling environment
  (:class:`~repro.sim.profiling_queue.ProfilingQueue`) loses slots for
  a window; a full outage revokes every in-flight grant, and
  :class:`~repro.core.manager.DejaVuManager` recovers with bounded
  retry-with-backoff plus a degraded mode that serves the
  last-known-good repository allocation instead of stalling.
* :class:`RandomFaultSpec` — a seeded stochastic generator expanded
  into concrete host events once the run's step/host grid is known
  (``numpy`` Generator, no wall-clock: same seed, same faults).

A :class:`FaultSchedule` bundles events plus the recovery knobs and is
a frozen, picklable value: shard workers receive it through the study
spec and every worker processes the identical global timeline.  Fault
events are keyed by **step index**, not wall time, and commit inside
the host map's theft pass, just before migrations are planned.  Sharded
workers run that pass on the exchanged global demand vector every step,
so scalar, batched and sharded paths apply each fault at its scripted
step, bit for bit.

The spec-string DSL (CLI ``--faults``, scenario ``faults:`` lists)::

    host:1@40+30          # host 1 fails at step 40, recovers at step 70
    profiler@30+18        # every profiling slot offline for steps 30-48
    profiler:2@30+18      # only two slots brown out (no revocation)
    random:3@7            # three seeded random host failures (seed 7)
    recovery=off          # disable evacuation + manager degraded mode
    blackout=300          # evacuation blackout seconds
    blackout_theft=0.6    # capacity fraction stolen during blackout
    residual=0.2          # degraded lanes keep this capacity fraction
    retries=2             # manager retry budget for revoked profiling
    backoff=900           # base seconds between retries (doubles)
    fallback=off          # exhausted retries stall instead of serving
                          # the last-known-good allocation
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.sim.profiling_queue import outage_order

__all__ = [
    "FaultSchedule",
    "HostFaultEvent",
    "ProfilerFaultEvent",
    "RandomFaultSpec",
    "parse_faults",
]


@dataclass(frozen=True)
class HostFaultEvent:
    """One host failure: capacity zero at ``start_step``, restored at
    ``start_step + duration_steps``."""

    host: int
    start_step: int
    duration_steps: int

    def __post_init__(self) -> None:
        if self.host < 0:
            raise ValueError(f"host index cannot be negative: {self.host}")
        if self.start_step < 0:
            raise ValueError(
                f"fault start step cannot be negative: {self.start_step}"
            )
        if self.duration_steps < 1:
            raise ValueError(
                f"fault duration must be >= 1 step: {self.duration_steps}"
            )


@dataclass(frozen=True)
class ProfilerFaultEvent:
    """A profiling-environment outage window, in step units.

    ``slots=None`` takes the whole environment offline (in-flight
    grants are revoked); a partial brownout (``slots=k``) delays the
    queue without killing running collections.
    """

    start_step: int
    duration_steps: int
    slots: int | None = None

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise ValueError(
                f"outage start step cannot be negative: {self.start_step}"
            )
        if self.duration_steps < 1:
            raise ValueError(
                f"outage duration must be >= 1 step: {self.duration_steps}"
            )
        if self.slots is not None and self.slots < 1:
            raise ValueError(
                f"outage must take at least one slot: {self.slots}"
            )


@dataclass(frozen=True)
class RandomFaultSpec:
    """Seeded random host failures, expanded by :meth:`FaultSchedule.resolve`."""

    count: int
    seed: int = 0
    max_duration_steps: int = 12

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"need at least one random fault: {self.count}")
        if self.max_duration_steps < 1:
            raise ValueError(
                f"max duration must be >= 1 step: {self.max_duration_steps}"
            )

    def expand(self, n_steps: int, n_hosts: int) -> tuple[HostFaultEvent, ...]:
        """Concrete events for one run grid — a pure function of the
        seed (``numpy`` Generator, no wall-clock entropy)."""
        if n_hosts < 1:
            raise ValueError(
                "random host faults need shared hosts (n_hosts >= 1)"
            )
        if n_steps < 2:
            raise ValueError(f"need at least two steps: {n_steps}")
        rng = np.random.default_rng(self.seed)
        events = []
        for _ in range(self.count):
            events.append(
                HostFaultEvent(
                    host=int(rng.integers(n_hosts)),
                    start_step=int(rng.integers(1, n_steps)),
                    duration_steps=int(
                        rng.integers(1, self.max_duration_steps + 1)
                    ),
                )
            )
        return tuple(events)


@dataclass(frozen=True)
class FaultSchedule:
    """Every fault a run will suffer, plus the recovery posture.

    ``recovery`` toggles the *response* machinery — evacuation on host
    failure, manager retries and degraded fallback on profiler outage —
    not the events themselves: a failed host still restores its
    capacity when its event window closes, so recovery-on and
    recovery-off arms see identical fault timelines and differ only in
    how gracefully they degrade (the benchmarkable claim).
    """

    host_faults: tuple[HostFaultEvent, ...] = ()
    profiler_faults: tuple[ProfilerFaultEvent, ...] = ()
    generators: tuple[RandomFaultSpec, ...] = ()
    recovery: bool = True
    blackout_seconds: float = 600.0
    blackout_theft: float = 0.5
    residual_rate: float = 0.1
    retry_limit: int = 2
    retry_backoff_seconds: float = 600.0
    degraded_fallback: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "host_faults", tuple(self.host_faults))
        object.__setattr__(
            self, "profiler_faults", tuple(self.profiler_faults)
        )
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.blackout_seconds < 0:
            raise ValueError(
                f"blackout cannot be negative: {self.blackout_seconds}"
            )
        if not 0.0 <= self.blackout_theft <= 1.0:
            raise ValueError(
                f"blackout theft must be in [0, 1]: {self.blackout_theft}"
            )
        if not 0.0 <= self.residual_rate < 1.0:
            raise ValueError(
                f"residual rate must be in [0, 1): {self.residual_rate}"
            )
        if self.retry_limit < 0:
            raise ValueError(
                f"retry limit cannot be negative: {self.retry_limit}"
            )
        if self.retry_backoff_seconds <= 0:
            raise ValueError(
                f"retry backoff must be positive: {self.retry_backoff_seconds}"
            )

    @property
    def any_host_faults(self) -> bool:
        """Whether the schedule can touch shared hosts (so callers can
        fail fast when no hosts exist to fail)."""
        return bool(self.host_faults) or bool(self.generators)

    @property
    def manager_retry_limit(self) -> int:
        """The retry budget managers get — zero when recovery is off."""
        return self.retry_limit if self.recovery else 0

    @property
    def manager_degraded_fallback(self) -> bool:
        """Whether exhausted retries fall back to the last-known-good
        allocation — never when recovery is off."""
        return self.degraded_fallback and self.recovery

    def resolve(self, n_steps: int, n_hosts: int) -> "FaultSchedule":
        """Expand generators and validate events against the run grid.

        Returns a concrete schedule (no generators left) whose host
        events all target hosts in ``[0, n_hosts)`` and whose events all
        start within the run's ``n_steps`` steps — an event that cannot
        fire is an error, not a silent no-fault run.  Idempotent for
        already-concrete schedules.
        """
        events = list(self.host_faults)
        for spec in self.generators:
            events.extend(spec.expand(n_steps, n_hosts))
        for event in events:
            if event.host >= n_hosts:
                raise ValueError(
                    f"faults: an event targets host {event.host} but the "
                    f"fleet has {n_hosts} host(s)"
                )
        for event in (*events, *self.profiler_faults):
            if event.start_step >= n_steps:
                raise ValueError(
                    f"faults: an event starting at step {event.start_step} "
                    f"cannot fire in a {n_steps}-step run: {event}"
                )
        return dataclasses.replace(
            self, host_faults=tuple(events), generators=()
        )

    def host_timeline(self) -> list[tuple[int, int, int]]:
        """Failure/recovery events as ``(step, kind, host)`` sorted by
        step — kind 0 = fail, 1 = recover, so a failure and a recovery
        landing on the same step apply fail-first (the host ends up).

        Overlapping or touching windows for one host are merged into
        their union first: a short event nested inside a longer outage
        must not resurrect the host when its own window closes.
        """
        if self.generators:
            raise ValueError(
                "resolve() the schedule before building its timeline"
            )
        by_host: dict[int, list[tuple[int, int]]] = {}
        for event in self.host_faults:
            by_host.setdefault(event.host, []).append(
                (event.start_step, event.start_step + event.duration_steps)
            )
        timeline: list[tuple[int, int, int]] = []
        for host, windows in by_host.items():
            windows.sort()
            start, end = windows[0]
            for next_start, next_end in windows[1:]:
                if next_start <= end:
                    end = max(end, next_end)
                else:
                    timeline.append((start, 0, host))
                    timeline.append((end, 1, host))
                    start, end = next_start, next_end
            timeline.append((start, 0, host))
            timeline.append((end, 1, host))
        timeline.sort()
        return timeline

    def profiler_windows(
        self, step_seconds: float
    ) -> tuple[tuple[float, float, int | None], ...]:
        """Outage windows in simulation seconds: ``(start_t, end_t,
        slots)`` sorted by start, the shape
        :meth:`~repro.sim.profiling_queue.ProfilingQueue.attach_faults`
        consumes."""
        if step_seconds <= 0:
            raise ValueError(f"step must be positive: {step_seconds}")
        windows = sorted(
            (
                (
                    event.start_step * step_seconds,
                    (event.start_step + event.duration_steps) * step_seconds,
                    event.slots,
                )
                for event in self.profiler_faults
            ),
            key=outage_order,
        )
        return tuple(windows)


def _parse_window(token: str, what: str) -> tuple[int, int]:
    """``S+D`` -> (start_step, duration_steps)."""
    start_text, sep, duration_text = token.partition("+")
    if not sep:
        raise ValueError(
            f"{what} needs a '<start>+<duration>' window, got {token!r}"
        )
    try:
        return int(start_text), int(duration_text)
    except ValueError:
        raise ValueError(
            f"{what} window must be integer steps, got {token!r}"
        ) from None


def _parse_flag(value: str, knob: str) -> bool:
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise ValueError(f"{knob} must be on/off, got {value!r}")


def parse_faults(
    value: "FaultSchedule | str | Iterable[str] | None",
) -> FaultSchedule | None:
    """Build a :class:`FaultSchedule` from spec strings.

    Accepts a ready schedule (returned as-is), ``None`` (no faults), a
    comma-separated spec string, or an iterable of spec strings (each
    of which may itself be comma-separated — the scenario ``faults:``
    list and the CLI ``--faults`` flag share this path).  See the
    module docstring for the token grammar.  Raises :class:`ValueError`
    naming the offending token.
    """
    if value is None or isinstance(value, FaultSchedule):
        return value
    if isinstance(value, str):
        tokens = value.split(",")
    elif isinstance(value, Sequence) or isinstance(value, Iterable):
        tokens = [
            piece
            for item in value
            for piece in str(item).split(",")
        ]
    else:
        raise ValueError(f"cannot parse a fault schedule from {value!r}")
    host_faults: list[HostFaultEvent] = []
    profiler_faults: list[ProfilerFaultEvent] = []
    generators: list[RandomFaultSpec] = []
    knobs: dict = {}
    for raw in tokens:
        token = raw.strip()
        if not token:
            continue
        head, sep, tail = token.partition("@")
        if sep:
            kind, colon, arg = head.partition(":")
            if kind == "host":
                if not colon or not arg:
                    raise ValueError(
                        f"host fault needs an index: 'host:<h>@<start>"
                        f"+<duration>', got {token!r}"
                    )
                try:
                    host = int(arg)
                except ValueError:
                    raise ValueError(
                        f"host index must be an integer, got {token!r}"
                    ) from None
                start, duration = _parse_window(tail, f"host fault {token!r}")
                host_faults.append(HostFaultEvent(host, start, duration))
            elif kind == "profiler":
                slots = None
                if colon:
                    try:
                        slots = int(arg)
                    except ValueError:
                        raise ValueError(
                            f"profiler slot count must be an integer, "
                            f"got {token!r}"
                        ) from None
                start, duration = _parse_window(
                    tail, f"profiler outage {token!r}"
                )
                profiler_faults.append(
                    ProfilerFaultEvent(start, duration, slots)
                )
            elif kind == "random":
                if not colon or not arg:
                    raise ValueError(
                        f"random faults need a count: 'random:<n>@<seed>', "
                        f"got {token!r}"
                    )
                try:
                    generators.append(
                        RandomFaultSpec(count=int(arg), seed=int(tail))
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"bad random fault spec {token!r}: {exc}"
                    ) from None
            else:
                raise ValueError(
                    f"unknown fault kind {head!r} in {token!r}; "
                    "use host:, profiler: or random:"
                )
            continue
        name, eq, value_text = token.partition("=")
        if not eq:
            raise ValueError(
                f"unrecognized fault token {token!r}; events look like "
                "'host:<h>@<start>+<duration>' and knobs like "
                "'recovery=off'"
            )
        try:
            if name == "recovery":
                knobs["recovery"] = _parse_flag(value_text, name)
            elif name == "fallback":
                knobs["degraded_fallback"] = _parse_flag(value_text, name)
            elif name == "blackout":
                knobs["blackout_seconds"] = float(value_text)
            elif name == "blackout_theft":
                knobs["blackout_theft"] = float(value_text)
            elif name == "residual":
                knobs["residual_rate"] = float(value_text)
            elif name == "retries":
                knobs["retry_limit"] = int(value_text)
            elif name == "backoff":
                knobs["retry_backoff_seconds"] = float(value_text)
            else:
                raise ValueError(
                    f"unknown fault knob {name!r}; have recovery, "
                    "fallback, blackout, blackout_theft, residual, "
                    "retries, backoff"
                )
        except ValueError as exc:
            if "fault knob" in str(exc) or "must be" in str(exc):
                raise
            raise ValueError(
                f"bad value for fault knob {name!r}: {value_text!r}"
            ) from None
    if not host_faults and not profiler_faults and not generators:
        raise ValueError(
            "a fault schedule needs at least one event "
            "(host:.../profiler:.../random:...)"
        )
    return FaultSchedule(
        host_faults=tuple(host_faults),
        profiler_faults=tuple(profiler_faults),
        generators=tuple(generators),
        **knobs,
    )

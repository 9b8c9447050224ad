"""Hardware-performance-counter sampling model.

Real HPCs are read "before a VM is scheduled, and right after it is
preempted; the difference gives the exact number of events for which the
VM should be charged" (Sec. 3.3).  We model the end product: per-event
counts accumulated over a sampling window, equal to the event's
workload-coupled rate times the window, with multiplicative reading
noise.  Only four counters can be monitored at once on the X5472; the
sampler honours that register budget and models the accuracy loss of
time-division multiplexing when asked for more events than registers
(Mathur & Cook, cited in Sec. 3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.telemetry.events import EVENT_CATALOGUE, HPCEvent, event_by_name
from repro.telemetry.streams import NoiseStream, SequentialStream, normals_block
from repro.workloads.request_mix import Workload

#: HPC registers available on the profiling server (Intel Xeon X5472).
HARDWARE_REGISTERS = 4

#: Extra relative noise per multiplexed batch beyond the register budget.
MULTIPLEX_NOISE_SD = 0.015


@dataclass(frozen=True)
class CounterReading:
    """One sampled counter: raw count over a window."""

    event: str
    count: float
    duration_seconds: float

    @property
    def rate(self) -> float:
        """Count normalized by sampling time.

        Sec. 3.3: "we normalize the values with the sampling time ...
        it allows us to generalize our signatures across workloads
        regardless of how long the sampling takes."
        """
        check_window(self.duration_seconds)
        return self.count / self.duration_seconds


class HPCSampler:
    """Samples hardware counters for a VM hosting a given workload.

    Parameters
    ----------
    events:
        Event mnemonics to monitor; defaults to the full catalogue
        (time-multiplexed).
    seed:
        Shorthand for ``stream=SequentialStream(seed)``: readings are
        reproducible given (seed, call order).  Ignored when ``stream``
        is given.
    stream:
        The reading-noise stream (see :mod:`repro.telemetry.streams`).
        A :class:`~repro.telemetry.streams.CounterStream` makes the
        noise a pure function of the stream's ``(key, lane, salt)``
        identity and its pass counter, so many lanes' noise can be
        drawn as one block — and a lane's readings do not depend on
        which process or batch samples it.
    """

    def __init__(
        self,
        events: list[str] | None = None,
        seed: int = 0,
        stream: NoiseStream | None = None,
    ) -> None:
        if events is None:
            self._events: list[HPCEvent] = list(EVENT_CATALOGUE)
        else:
            if not events:
                raise ValueError("must monitor at least one event")
            self._events = [event_by_name(name) for name in events]
        self._stream = SequentialStream(seed) if stream is None else stream
        # Hot-path constants: one (n_events, n_dims) weight matrix plus
        # baseline/noise vectors, so a sampling pass is a handful of
        # vectorized operations instead of a per-event Python loop.
        self._weights = np.array([e.weights for e in self._events], dtype=float)
        self._baselines = np.array([e.baseline for e in self._events])
        self._noise_sds = np.array([e.noise_sd for e in self._events])
        self._memory_coupling = np.abs(self._weights[:, 1]) / 10.0
        extra_sd = MULTIPLEX_NOISE_SD if self.multiplexed else 0.0
        self._sds_total = self._noise_sds + extra_sd

    @property
    def monitored(self) -> list[str]:
        return [e.name for e in self._events]

    @property
    def stream(self) -> NoiseStream:
        return self._stream

    @property
    def multiplexed(self) -> bool:
        """True when monitoring more events than hardware registers."""
        return len(self._events) > HARDWARE_REGISTERS

    def sample(
        self,
        workload: Workload,
        duration_seconds: float,
        *,
        interference: float = 0.0,
    ) -> dict[str, CounterReading]:
        """Read all monitored counters over one sampling window.

        ``interference`` models co-located tenants polluting shared
        resources during *production-side* sampling; the DejaVu profiler
        samples in isolation and passes 0 (the default).  Interference
        inflates memory-system events and adds variance — the reason the
        paper profiles on a clone rather than in place (Sec. 3.2.2).
        """
        check_window(duration_seconds)
        if not 0.0 <= interference < 1.0:
            raise ValueError(f"interference out of [0,1): {interference}")
        # The one-row case of sample_rates_matrix (one noise pass).
        rates = self._clean_rates(
            [workload], np.array([interference]), slice(None)
        )[0]
        noise = self._stream.normals(len(self._events)) * self._sds_total
        counts = np.maximum(0.0, rates * (1.0 + noise)) * duration_seconds
        return {
            event.name: CounterReading(
                event=event.name,
                count=count,
                duration_seconds=duration_seconds,
            )
            for event, count in zip(self._events, counts.tolist())
        }

    @staticmethod
    def sample_rates_matrix(
        samplers: list["HPCSampler"],
        workloads: list[Workload],
        duration_seconds: float,
        interferences: np.ndarray,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """All lanes' rate vectors in one vectorized pass.

        Row ``r`` holds the rates of
        ``samplers[r].sample(workloads[r], duration_seconds,
        interference=interferences[r])``, bit for bit: the scalar path
        is this arithmetic's one-row case, and each row draws its
        sampler's next noise pass.  Given ``columns`` (event positions,
        any order, possibly none), only those events' clean rates and
        noise are evaluated and returned, in ``columns`` order; each
        row's stream still advances one whole pass.  Requires samplers
        with one kind of stream and identical event constants (the
        caller groups by :meth:`Monitor.batch_key`).
        """
        lead = samplers[0]
        check_window(duration_seconds)
        check_interferences(interferences)
        streams = [sampler._stream for sampler in samplers]
        n_events = len(lead._events)
        if columns is not None and not columns.size:
            return normals_block(streams, n_events, columns)
        pick = slice(None) if columns is None else columns
        rates = lead._clean_rates(workloads, interferences, pick)
        noise = normals_block(streams, n_events, columns) * lead._sds_total[pick]
        counts = np.maximum(0.0, rates * (1.0 + noise)) * duration_seconds
        return counts / duration_seconds

    def sample_rates_block(
        self, workloads: list[Workload], passes: int, duration_seconds: float
    ) -> np.ndarray:
        """``passes`` isolated sampling windows of every workload.

        Returns ``(len(workloads) * passes, n_events)`` rows, workload
        -major: row ``i * passes + p`` is bit-identical to the
        ``(i * passes + p)``-th of that many successive
        :meth:`sample` calls' rates (``interference=0``), and the noise
        stream ends where those calls would leave it (one pass per
        row).
        """
        check_window(duration_seconds)
        rates = np.repeat(
            self._clean_rates(workloads, np.zeros(len(workloads)), slice(None)),
            passes,
            axis=0,
        )
        noise = self._stream.normals_passes(*rates.shape) * self._sds_total
        counts = np.maximum(0.0, rates * (1.0 + noise)) * duration_seconds
        return counts / duration_seconds

    def _clean_rates(
        self,
        workloads: list[Workload],
        interferences: np.ndarray,
        pick: "np.ndarray | slice",
    ) -> np.ndarray:
        """Noise-free rates of the ``pick``-ed events, one row per
        workload.

        The ``weights · activity`` sum depends only on the request mix,
        so it is computed once per distinct mix and gathered per row.
        """
        weights = self._weights[pick]
        mix_rows: dict[int, int] = {}
        sums: list[np.ndarray] = []
        rows: list[int] = []
        for workload in workloads:
            mix = workload.mix
            row = mix_rows.get(id(mix))
            if row is None:
                row = mix_rows[id(mix)] = len(sums)
                activity = np.asarray(mix.activity_vector())
                sums.append((weights * activity).sum(axis=1))
            rows.append(row)
        intensity = np.array([workload.demand_units for workload in workloads])
        rates = self._baselines[pick] + np.array(sums)[rows] * intensity[:, None]
        hot = interferences > 0
        if np.any(hot):
            rates[hot] = rates[hot] * (
                1.0 + interferences[hot, None] * (0.5 + self._memory_coupling[pick])
            )
        return rates


def check_interferences(interferences: np.ndarray) -> None:
    """Reject any interference outside [0, 1), NaN included, with the
    scalar samplers' message."""
    inside = (interferences >= 0.0) & (interferences < 1.0)
    if not inside.all():
        bad = interferences[~inside][0]
        raise ValueError(f"interference out of [0,1): {bad}")


def check_window(duration_seconds: float) -> None:
    """Reject a sampling window that is not positive and finite, NaN
    included: rates divide counts by it."""
    if not 0.0 < duration_seconds < math.inf:
        raise ValueError(
            f"sampling window must be positive and finite: {duration_seconds}"
        )

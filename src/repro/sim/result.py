"""Recorded series of simulation runs.

Every experiment in the paper is reported as one or more time series over
the trace week (latency, QoS, instance count, instance type) plus scalar
aggregates (cost savings, SLO-violation fraction, adaptation time).  A
:class:`TimeSeries` is one recorded series: a read-only pair of
``(times, values)`` arrays, usually one column of a fleet result's
matrix, with the aggregates the paper's tables quote.  A
:class:`SimulationResult` groups the named series of one run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np


class TimeSeries:
    """An immutable series of ``(time_seconds, value)`` samples.

    ``times`` and ``values`` are contiguous float64 copies of the arrays
    given, marked read-only: a series never writes through into the
    matrix it was sliced from.
    """

    def __init__(self, name: str, times: np.ndarray, values: np.ndarray) -> None:
        times = np.array(times, dtype=np.float64)
        values = np.array(values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 1:
            # A (n, 1) column sliced off a matrix is the classic slip;
            # diagnose it as dimensionality, not as a length mismatch.
            raise ValueError(
                f"series {name!r} needs 1-D arrays; got shapes "
                f"{times.shape} and {values.shape}"
            )
        if times.shape != values.shape:
            raise ValueError(
                f"series {name!r}: shapes differ: {times.shape} vs {values.shape}"
            )
        if np.any(np.diff(times) < 0):
            raise ValueError(f"out-of-order samples for {name!r}")
        times.flags.writeable = False
        values.flags.writeable = False
        self.name = name
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times.tolist(), self.values.tolist()))

    def _check_nonempty(self) -> None:
        if not self.times.size:
            raise ValueError(f"series {self.name!r} is empty")

    def value_at(self, t: float) -> float:
        """Value of the most recent sample at or before ``t`` (step-hold)."""
        self._check_nonempty()
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            raise ValueError(f"no sample at or before t={t} in {self.name!r}")
        return float(self.values[idx])

    def window(self, t_start: float, t_end: float) -> "TimeSeries":
        """Samples with ``t_start <= t < t_end``, as a new series."""
        if t_end < t_start:
            raise ValueError(f"bad window [{t_start}, {t_end})")
        lo, hi = np.searchsorted(self.times, (t_start, t_end))
        return TimeSeries(self.name, self.times[lo:hi], self.values[lo:hi])

    def mean(self) -> float:
        self._check_nonempty()
        return float(np.mean(self.values))

    def max(self) -> float:
        self._check_nonempty()
        return float(np.max(self.values))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold``.

        Used for SLO-violation accounting (e.g. the paper's "Autopilot
        violates the SLO at least 28% of the time").
        """
        self._check_nonempty()
        return float(np.mean(self.values > threshold))

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold`` (QoS-style SLOs)."""
        self._check_nonempty()
        return float(np.mean(self.values < threshold))

    def integrate(self) -> float:
        """Left-Riemann integral of the step function defined by the samples.

        The last sample is held until the final sample time, so a series
        with a single sample integrates to zero.  Used for instance-hour
        cost accounting.  The sum runs left to right from 0.0 (not
        numpy's pairwise sum), so cost figures keep their exact floats.
        """
        total = 0.0
        for area in (self.values[:-1] * np.diff(self.times)).tolist():
            total += area
        return total


@dataclass
class SimulationResult:
    """The named series of one simulation run."""

    label: str
    series: dict[str, TimeSeries] = field(default_factory=dict)

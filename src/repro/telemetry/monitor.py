"""The DejaVu Monitor: periodic/on-demand metric collection.

The Monitor (Sec. 3.3) gathers all candidate metrics — HPC events plus
xentop utilizations — for one sampling window and returns them as a flat
name→value mapping with counter values normalized by sampling time.  It
is deliberately ignorant of which metrics will end up in the signature;
feature selection decides that later (Sec. 3.3's "non-intrusive
monitoring" constraint: no service knowledge required).
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.counters import HPCSampler, check_window
from repro.telemetry.xentop import XENTOP_METRICS, XentopSampler
from repro.workloads.request_mix import Workload

#: Default sampling window; the paper's adaptation time is "about 10
#: seconds ... needed by the profiler to collect the workload signature".
DEFAULT_WINDOW_SECONDS = 10.0

#: Every distinct :meth:`Monitor.batch_key`, keyed by itself.
_BATCH_KEYS: dict[tuple, tuple] = {}


class Monitor:
    """Collects the full candidate metric vector for a workload.

    Parameters
    ----------
    hpc:
        Hardware-counter sampler (defaults to the full 60-event
        catalogue, time-multiplexed).
    xentop:
        Per-VM utilization sampler.
    window_seconds:
        Sampling window; doubles as DejaVu's adaptation latency.
    """

    def __init__(
        self,
        hpc: HPCSampler | None = None,
        xentop: XentopSampler | None = None,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        check_window(window_seconds)
        self.hpc = hpc if hpc is not None else HPCSampler()
        self.xentop = xentop if xentop is not None else XentopSampler()
        self.window_seconds = window_seconds

    def metric_names(self) -> list[str]:
        """All metric names a collection will contain, in stable order."""
        return list(self.hpc.monitored) + list(XENTOP_METRICS)

    def batch_key(self) -> tuple:
        """Compatibility key for fleet-wide matrix collection.

        Monitors with equal keys sample identical metric constants and
        may be collected as rows of one :meth:`collect_matrix` block:
        their samplers' noise streams are of the same kinds and differ
        only in identity.  The fleet engine groups due lanes by this
        key.
        """
        key = getattr(self, "_batch_key", None)
        if key is None:
            key = (
                type(self.hpc.stream),
                type(self.xentop.stream),
                tuple(self.hpc.monitored),
                self.hpc.multiplexed,
                self.xentop.capacity_units,
                self.window_seconds,
            )
            # Equal keys are one object, so matrix collection checks
            # a row's key by identity.
            key = self._batch_key = _BATCH_KEYS.setdefault(key, key)
        return key

    def collect(
        self,
        workload: Workload,
        *,
        interference: float = 0.0,
        window_seconds: float | None = None,
    ) -> dict[str, float]:
        """One monitoring pass: all metrics, time-normalized.

        HPC counts are divided by the sampling window (Sec. 3.3's
        normalization) so signatures are comparable across windows.
        """
        window = self.window_seconds if window_seconds is None else window_seconds
        check_window(window)
        readings = self.hpc.sample(workload, window, interference=interference)
        metrics = {name: reading.rate for name, reading in readings.items()}
        metrics.update(self.xentop.sample(workload, interference=interference))
        return metrics

    def collect_matrix(
        self,
        workloads: list[Workload],
        interferences: "np.ndarray | list[float] | None" = None,
        *,
        monitors: "list[Monitor]",
        window_seconds: float | None = None,
        columns: "np.ndarray | list[int] | None" = None,
    ) -> "np.ndarray":
        """Many lanes' monitoring passes as one ``(n_lanes, n_metrics)``
        matrix, or only its ``columns``.

        Row ``r`` is the collection of ``workloads[r]`` by
        ``monitors[r]``: that monitor's :meth:`collect` in
        :meth:`metric_names` order, bit for bit, with the same stream
        consumption.  A one-row matrix is one lane's collection; under
        counter streams the whole block is produced in one vectorized
        pass (the fleet engine's prepare phase).

        ``columns`` (positions in :meth:`metric_names`, any order, HPC
        and xentop mixed) returns ``matrix[:, columns]`` of that full
        matrix, bit for bit, and evaluates clean rates, noise
        deviations and counter-mode normals for those metrics only —
        a signature collection (``signature_columns()``) costs its
        width, not the monitor's.  Every row's HPC and xentop streams
        still advance exactly one pass each, also when none of that
        sampler's metrics is asked for, so streams sit where a full
        collection leaves them.

        All row monitors must share this monitor's :meth:`batch_key`
        (identical metric constants; only noise streams differ), and no
        monitor may appear twice: one row's pass must see the stream
        where the previous row's pass left it, which one block draw
        cannot do.
        """
        window = self.window_seconds if window_seconds is None else window_seconds
        check_window(window)
        n = len(workloads)
        if n == 0:
            raise ValueError("need at least one workload")
        if len(monitors) != n:
            raise ValueError(
                f"{len(monitors)} monitors for {n} workloads"
            )
        if interferences is None:
            interferences = np.zeros(n, dtype=float)
        else:
            interferences = np.asarray(interferences, dtype=float)
            if interferences.shape != (n,):
                raise ValueError(
                    f"interference shape {interferences.shape} != ({n},)"
                )
        key = self.batch_key()
        for monitor in monitors:
            if monitor.batch_key() is not key:
                raise ValueError(
                    "matrix collection needs compatible monitors; "
                    f"{monitor.batch_key()} != {key}"
                )
        if len(set(map(id, monitors))) != n:
            raise ValueError("matrix collection needs distinct monitors per row")
        n_hpc = len(self.hpc.monitored)
        n_metrics = n_hpc + len(XENTOP_METRICS)
        if columns is None:
            columns = np.arange(n_metrics)
        else:
            columns = _checked_columns(columns, n_metrics)
        from_hpc = columns < n_hpc
        matrix = np.empty((n, columns.size))
        matrix[:, from_hpc] = HPCSampler.sample_rates_matrix(
            [monitor.hpc for monitor in monitors],
            workloads,
            window,
            interferences,
            columns[from_hpc],
        )
        matrix[:, ~from_hpc] = XentopSampler.sample_matrix(
            [monitor.xentop for monitor in monitors],
            workloads,
            interferences,
            columns[~from_hpc] - n_hpc,
        )
        return matrix

    def collect_block(self, workloads: list[Workload], passes: int) -> "np.ndarray":
        """``passes`` isolated monitoring passes of every workload as one
        ``(len(workloads) * passes, n_metrics)`` matrix.

        Rows are workload-major and in :meth:`metric_names` order: row
        ``i * passes + p`` is bit-identical to the matching one of that
        many successive ``collect(workloads[i])`` calls, and
        each sampler's noise stream ends where those calls would leave
        it (one pass per row).  This is the learning day's profiling
        sweep in one pass.
        """
        if self.hpc.stream is self.xentop.stream:
            # One shared stream interleaves the two samplers' passes,
            # which a per-sampler block cannot reproduce.
            raise ValueError("block collection needs separate HPC and xentop streams")
        hpc_rates = self.hpc.sample_rates_block(
            workloads, passes, self.window_seconds
        )
        xentop_values = self.xentop.sample_block(workloads, passes)
        return np.concatenate([hpc_rates, xentop_values], axis=1)


def _checked_columns(columns, n_metrics: int) -> np.ndarray:
    """``columns`` as a non-empty integer vector of positions below
    ``n_metrics``."""
    array = np.asarray(columns)
    if array.ndim != 1 or not array.size or array.dtype.kind not in "iu":
        raise ValueError(f"columns must be a non-empty list of integers: {columns!r}")
    if array.min() < 0 or array.max() >= n_metrics:
        raise ValueError(f"columns out of range for {n_metrics} metrics: {columns!r}")
    return array

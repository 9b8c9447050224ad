"""xentop-style per-VM resource metrics.

"Xen's xentop command reports individual VM resource consumption (CPU,
memory, and I/O)" (Sec. 3.3).  These coarse utilization metrics join the
HPC events in the candidate signature set.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.counters import check_interferences
from repro.telemetry.streams import NoiseStream, SequentialStream, normals_block
from repro.workloads.request_mix import Workload

XENTOP_METRICS: tuple[str, ...] = (
    "xentop_cpu_percent",
    "xentop_memory_percent",
    "xentop_net_rx_kbps",
    "xentop_net_tx_kbps",
    "xentop_vbd_io_ops",
)

#: Every xentop metric's position, in order.
_ALL = np.arange(len(XENTOP_METRICS))


class XentopSampler:
    """Samples xentop metrics for a VM hosting a workload.

    Parameters
    ----------
    capacity_units:
        Capacity of the sampled VM; utilizations are expressed against
        it (a profiling clone is a single instance).
    seed:
        Shorthand for ``stream=SequentialStream(seed)``.  Ignored when
        ``stream`` is given.
    stream:
        The reading-noise stream (see
        :class:`~repro.telemetry.counters.HPCSampler`).
    """

    def __init__(
        self,
        capacity_units: float = 1.0,
        seed: int = 0,
        stream: NoiseStream | None = None,
    ) -> None:
        if capacity_units <= 0:
            raise ValueError(f"capacity must be positive: {capacity_units}")
        self._capacity = capacity_units
        self._stream = SequentialStream(seed) if stream is None else stream

    @property
    def capacity_units(self) -> float:
        return self._capacity

    @property
    def stream(self) -> NoiseStream:
        return self._stream

    #: Relative reading-noise levels, in :data:`XENTOP_METRICS` order.
    _NOISE_SDS = np.array([0.02, 0.02, 0.03, 0.03, 0.03])

    def sample(
        self, workload: Workload, *, interference: float = 0.0
    ) -> dict[str, float]:
        """One xentop snapshot (instantaneous utilizations)."""
        values = self.sample_vector(workload, interference=interference)
        return dict(zip(XENTOP_METRICS, values.tolist()))

    def sample_vector(
        self, workload: Workload, *, interference: float = 0.0
    ) -> np.ndarray:
        """One snapshot as an array in :data:`XENTOP_METRICS` order: the
        one-row case of :meth:`sample_matrix` (one noise pass).

        Same noise consumption and values as :meth:`sample`; the batched
        fleet path concatenates this straight into a signature vector.
        """
        if not 0.0 <= interference < 1.0:
            raise ValueError(f"interference out of [0,1): {interference}")
        clean = self._clean_matrix(
            [workload], np.array([interference]), _ALL
        )[0]
        noise = self._stream.normals(len(XENTOP_METRICS)) * self._NOISE_SDS
        return np.maximum(0.0, clean * (1.0 + noise))

    @staticmethod
    def sample_matrix(
        samplers: list["XentopSampler"],
        workloads: list[Workload],
        interferences: np.ndarray,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """All lanes' xentop snapshots in one vectorized pass.

        Row ``r`` is bit-identical to
        ``samplers[r].sample_vector(workloads[r],
        interference=interferences[r])``: the scalar path is this
        arithmetic's one-row case, and each row draws its sampler's next
        noise pass.  Given ``columns`` (positions in
        :data:`XENTOP_METRICS`, any order, possibly none), only those
        metrics are evaluated and returned, in ``columns`` order; each
        row's stream still advances one whole pass.  Requires samplers
        with one kind of stream and one shared capacity.
        """
        lead = samplers[0]
        check_interferences(interferences)
        streams = [sampler._stream for sampler in samplers]
        n_metrics = len(XENTOP_METRICS)
        if columns is not None and not columns.size:
            return normals_block(streams, n_metrics, columns)
        pick = _ALL if columns is None else columns
        clean = lead._clean_matrix(workloads, interferences, pick)
        noise = normals_block(streams, n_metrics, columns) * lead._NOISE_SDS[pick]
        return np.maximum(0.0, clean * (1.0 + noise))

    def sample_block(self, workloads: list[Workload], passes: int) -> np.ndarray:
        """``passes`` isolated snapshots of every workload.

        Returns ``(len(workloads) * passes, 5)`` rows, workload-major,
        each bit-identical to the matching one of that many successive
        :meth:`sample_vector` calls (``interference=0``), with the same
        noise-stream consumption (see
        :meth:`~repro.telemetry.counters.HPCSampler.sample_rates_block`).
        """
        clean = np.repeat(
            self._clean_matrix(workloads, np.zeros(len(workloads)), _ALL),
            passes,
            axis=0,
        )
        noise = self._stream.normals_passes(*clean.shape) * self._NOISE_SDS
        return np.maximum(0.0, clean * (1.0 + noise))

    def _clean_matrix(
        self,
        workloads: list[Workload],
        interferences: np.ndarray,
        columns: np.ndarray,
    ) -> np.ndarray:
        """Noise-free snapshots of the ``columns`` metrics (positions
        in :data:`XENTOP_METRICS`), one row per workload; only those
        metrics are computed."""
        demand, cpu_i, mem_i, read_f, io_i = np.array(
            [
                (
                    workload.demand_units,
                    workload.mix.cpu_intensity,
                    workload.mix.memory_intensity,
                    workload.mix.read_fraction,
                    workload.mix.io_intensity,
                )
                for workload in workloads
            ],
            dtype=float,
        ).T

        def rho() -> np.ndarray:
            return demand / (self._capacity * (1.0 - interferences))

        metrics = (
            lambda: np.minimum(100.0, 100.0 * rho() * (0.6 + 0.4 * cpu_i)),
            lambda: np.minimum(100.0, 25.0 + 60.0 * rho() * mem_i),
            lambda: 80.0 * demand,
            lambda: 80.0 * demand * (6.0 + 6.0 * read_f),
            lambda: 900.0 * demand * (0.3 + 0.7 * io_i),
        )
        return np.stack([metrics[c]() for c in columns], axis=1)

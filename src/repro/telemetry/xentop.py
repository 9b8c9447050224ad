"""xentop-style per-VM resource metrics.

"Xen's xentop command reports individual VM resource consumption (CPU,
memory, and I/O)" (Sec. 3.3).  These coarse utilization metrics join the
HPC events in the candidate signature set.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.streams import CounterStream, normals_block
from repro.workloads.request_mix import Workload

XENTOP_METRICS: tuple[str, ...] = (
    "xentop_cpu_percent",
    "xentop_memory_percent",
    "xentop_net_rx_kbps",
    "xentop_net_tx_kbps",
    "xentop_vbd_io_ops",
)


class XentopSampler:
    """Samples xentop metrics for a VM hosting a workload.

    Parameters
    ----------
    capacity_units:
        Capacity of the sampled VM; utilizations are expressed against
        it (a profiling clone is a single instance).
    seed:
        RNG seed for reading noise.  Ignored when ``stream`` is given.
    stream:
        Optional counter-mode stream (see
        :class:`~repro.telemetry.counters.HPCSampler`).
    """

    def __init__(
        self,
        capacity_units: float = 1.0,
        seed: int = 0,
        stream: CounterStream | None = None,
    ) -> None:
        if capacity_units <= 0:
            raise ValueError(f"capacity must be positive: {capacity_units}")
        self._capacity = capacity_units
        self._stream = stream
        self._rng = np.random.default_rng(seed) if stream is None else None

    @property
    def capacity_units(self) -> float:
        return self._capacity

    @property
    def rng_mode(self) -> str:
        return "legacy" if self._stream is None else "counter"

    @property
    def stream(self) -> CounterStream | None:
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
        """One snapshot as an array in :data:`XENTOP_METRICS` order.

        Same RNG consumption and values as :meth:`sample`; the batched
        fleet path concatenates this straight into a signature vector.
        """
        if not 0.0 <= interference < 1.0:
            raise ValueError(f"interference out of [0,1): {interference}")
        mix = workload.mix
        demand = workload.demand_units
        rho = demand / (self._capacity * (1.0 - interference))

        cpu = min(100.0, 100.0 * rho * (0.6 + 0.4 * mix.cpu_intensity))
        mem = min(100.0, 25.0 + 60.0 * rho * mix.memory_intensity)
        rx = 80.0 * demand
        tx = rx * (6.0 + 6.0 * mix.read_fraction)
        io_ops = 900.0 * demand * (0.3 + 0.7 * mix.io_intensity)
        clean = np.array([cpu, mem, rx, tx, io_ops])
        if self._stream is None:
            noise = self._rng.normal(0.0, self._NOISE_SDS)
        else:
            noise = self._stream.normals(len(XENTOP_METRICS)) * self._NOISE_SDS
        return np.maximum(0.0, clean * (1.0 + noise))

    @staticmethod
    def sample_matrix(
        samplers: list["XentopSampler"],
        workloads: list[Workload],
        interferences: np.ndarray,
    ) -> np.ndarray:
        """All lanes' xentop snapshots in one vectorized pass.

        Row ``r`` is bit-identical to
        ``samplers[r].sample_vector(workloads[r],
        interference=interferences[r])``: the utilization formulas are
        evaluated with the same per-element operation order, and the
        counter streams reproduce each sampler's scalar noise exactly.
        Requires counter-mode samplers with one shared capacity.
        """
        lead = samplers[0]
        if np.any(interferences < 0.0) or np.any(interferences >= 1.0):
            raise ValueError("interference out of [0,1)")
        streams = []
        for sampler in samplers:
            if sampler._stream is None:
                raise ValueError("matrix sampling needs counter-mode samplers")
            streams.append(sampler._stream)
        clean = lead._clean_matrix(workloads, interferences)
        noise = normals_block(streams, len(XENTOP_METRICS)) * lead._NOISE_SDS
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
            self._clean_matrix(workloads, np.zeros(len(workloads))), passes, axis=0
        )
        if self._stream is None:
            noise = self._rng.normal(0.0, self._NOISE_SDS, size=clean.shape)
        else:
            noise = self._stream.normals_passes(*clean.shape) * self._NOISE_SDS
        return np.maximum(0.0, clean * (1.0 + noise))

    def _clean_matrix(
        self, workloads: list[Workload], interferences: np.ndarray
    ) -> np.ndarray:
        """Noise-free snapshots, one row per workload, with the
        per-element arithmetic of :meth:`sample_vector`."""
        n = len(workloads)
        demand = np.empty(n, dtype=float)
        cpu_i = np.empty(n, dtype=float)
        mem_i = np.empty(n, dtype=float)
        read_f = np.empty(n, dtype=float)
        io_i = np.empty(n, dtype=float)
        for r, workload in enumerate(workloads):
            mix = workload.mix
            demand[r] = workload.demand_units
            cpu_i[r] = mix.cpu_intensity
            mem_i[r] = mix.memory_intensity
            read_f[r] = mix.read_fraction
            io_i[r] = mix.io_intensity
        rho = demand / (self._capacity * (1.0 - interferences))
        cpu = np.minimum(100.0, 100.0 * rho * (0.6 + 0.4 * cpu_i))
        mem = np.minimum(100.0, 25.0 + 60.0 * rho * mem_i)
        rx = 80.0 * demand
        tx = rx * (6.0 + 6.0 * read_f)
        io_ops = 900.0 * demand * (0.3 + 0.7 * io_i)
        return np.stack([cpu, mem, rx, tx, io_ops], axis=1)

"""Cassandra-like key-value store model.

Sec. 4.1 notes two Cassandra behaviours the scale-out plots depend on:

* the update-heavy YCSB workload (95% writes) is CPU- and
  memory-intensive, matching RightScale's default alert profile;
* "Cassandra takes a long time to stabilize (e.g., tens of minutes)
  after DejaVu adjusts the number of running instances ... due to
  Cassandra's re-partitioning".

The model layers an exponentially decaying re-partitioning penalty on
the queueing latency after every allocation change.
"""

from __future__ import annotations

import math

import numpy as np

from repro.services.base import Service
from repro.services.perf_model import QueueingModel
from repro.services.slo import LatencySLO
from repro.workloads.request_mix import Workload

#: The SLO used throughout the scale-out case studies (Sec. 4.1).
DEFAULT_SLO = LatencySLO(bound_ms=60.0)


class CassandraService(Service):
    """Cassandra with a post-resize re-partitioning transient.

    Parameters
    ----------
    repartition_peak_ms:
        Extra latency immediately after a resize while ranges move.
    repartition_tau_seconds:
        Decay constant of the transient; "tens of minutes" in the paper,
        with the visible effect mostly masked by the hourly monitoring
        granularity.
    """

    def __init__(
        self,
        slo: LatencySLO = DEFAULT_SLO,
        model: QueueingModel | None = None,
        repartition_peak_ms: float = 12.0,
        repartition_tau_seconds: float = 600.0,
    ) -> None:
        super().__init__(name="cassandra", slo=slo, model=model)
        if repartition_peak_ms < 0:
            raise ValueError(f"transient peak cannot be negative: {repartition_peak_ms}")
        if repartition_tau_seconds <= 0:
            raise ValueError(f"transient tau must be positive: {repartition_tau_seconds}")
        self._peak_ms = repartition_peak_ms
        self._tau = repartition_tau_seconds
        self._last_resize_at: float | None = None

    def notify_allocation_change(self, now: float) -> None:
        """Record the resize; ranges start re-balancing now."""
        self._last_resize_at = now

    def repartition_penalty_ms(self, now: float | None) -> float:
        """Current re-partitioning latency penalty."""
        if now is None or self._last_resize_at is None:
            return 0.0
        elapsed = now - self._last_resize_at
        if elapsed < 0:
            return 0.0
        return self._peak_ms * math.exp(-elapsed / self._tau)

    @staticmethod
    def latency_penalty_rows(services, now: float) -> np.ndarray:
        """:meth:`repartition_penalty_ms` of every instance at ``now``,
        in one comprehension with the same expressions (bit-identical
        per element)."""
        exp = math.exp
        return np.array(
            [
                0.0
                if (resized := service._last_resize_at) is None
                or (elapsed := now - resized) < 0
                else service._peak_ms * exp(-elapsed / service._tau)
                for service in services
            ]
        )

    def _latency_ms(
        self,
        workload: Workload,
        capacity_units: float,
        interference: float,
        now: float | None,
    ) -> float:
        base = self.model.latency_ms(
            workload.demand_units, capacity_units, interference
        )
        return min(
            base + self.repartition_penalty_ms(now), self.model.max_latency_ms
        )

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


class TransientColumns:
    """Re-partitioning transients of Cassandra instances as columns.

    Row ``j`` is ``members[j]``'s transient: its last resize time
    (``resized_at``; ``inf`` before the first resize, so the elapsed
    time is negative and the penalty 0), its peak (``peak_ms``) and its
    decay constant, stored negated (``neg_tau``: ``elapsed / neg_tau``
    is the scalar path's ``-elapsed / tau`` bit for bit).

    An instance's transient lives in exactly one block, at the row its
    ``_transient`` / ``_row`` name, and
    :meth:`CassandraService.notify_allocation_change` writes it there.
    An instance starts in a block of its own; evaluating a family whose
    instances sit in several blocks moves them into one
    (:meth:`holding`), so a fleet's family observer and its post-deploy
    pre-check, which grades subsets of the observer's lanes, read the
    same columns.  A block whose member moved out has ``members``
    emptied; the rows it still holds stay valid.
    """

    __slots__ = ("members", "resized_at", "peak_ms", "neg_tau")

    def __init__(self, members: list) -> None:
        """A block of ``members``, none resized yet."""
        self.members = members
        self.resized_at = np.array([math.inf] * len(members))
        self.peak_ms = np.array([m._peak_ms for m in members], dtype=float)
        self.neg_tau = np.array([-m._tau for m in members], dtype=float)

    @classmethod
    def holding(
        cls, services: list
    ) -> tuple["TransientColumns", "np.ndarray | None"]:
        """``(block, rows)``: the block holding every instance of
        ``services`` and their rows in it (None when the block's
        members are ``services``, in order)."""
        block = services[0]._transient
        if block.members == services:
            return block, None
        rows = [s._row for s in services if s._transient is block]
        if len(rows) == len(services):
            return block, np.array(rows)
        # The instances sit in several blocks: move them into one.  A
        # block that lost a member is never read whole again; the
        # members it keeps are read by row.
        merged = cls(list(dict.fromkeys(services)))
        for row, service in enumerate(merged.members):
            old, old_row = service._transient, service._row
            merged.resized_at[row] = old.resized_at[old_row]
            old.members = []
            service._transient, service._row = merged, row
        return cls.holding(services)

    def penalties(self, now: float, rows: "np.ndarray | None") -> np.ndarray:
        """:meth:`CassandraService.repartition_penalty_ms` of each row
        (of ``rows``; every row when None) at ``now``, bit for bit: the
        scalar expressions as column operations, except the exponential,
        which stays ``math.exp`` per element (``np.exp`` is not
        bit-identical to it)."""
        resized, peak, neg_tau = self.resized_at, self.peak_ms, self.neg_tau
        if rows is not None:
            resized, peak, neg_tau = resized[rows], peak[rows], neg_tau[rows]
        elapsed = now - resized
        exponent = elapsed / neg_tau
        if elapsed.min() >= 0.0:
            return peak * _exp_rows(exponent)
        # Rows resized after ``now`` (or never) add nothing; only the
        # others are exponentiated (``math.exp`` overflows on the rest).
        live = np.flatnonzero(~(elapsed < 0.0))
        penalty = np.zeros(elapsed.size)
        penalty[live] = peak[live] * _exp_rows(exponent[live])
        return penalty


def _exp_rows(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


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
        self._transient, self._row = TransientColumns([self]), 0

    def notify_allocation_change(self, now: float) -> None:
        """Record the resize; ranges start re-balancing now."""
        self._transient.resized_at[self._row] = now

    def repartition_penalty_ms(self, now: float | None) -> float:
        """Current re-partitioning latency penalty."""
        if now is None:
            return 0.0
        elapsed = now - float(self._transient.resized_at[self._row])
        if elapsed < 0:
            return 0.0
        return self._peak_ms * math.exp(-elapsed / self._tau)

    @staticmethod
    def latency_penalty_rows(services, now: float) -> np.ndarray:
        """:meth:`repartition_penalty_ms` of every instance at ``now``,
        read off the transient columns (bit-identical per element)."""
        block, rows = TransientColumns.holding(services)
        return block.penalties(now, rows)

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

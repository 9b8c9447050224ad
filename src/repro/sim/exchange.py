"""Cross-shard demand exchange: host coupling across worker processes.

Sharded sweeps (:mod:`repro.sim.shard`) historically modeled dedicated
hardware: any placement of shared hosts couples lanes across shard
boundaries, so ``n_hosts`` with ``shards > 1`` was rejected at call
time.  This module closes that gap with the parallel-rollout idiom —
independent shards that synchronize only at exchange points:

* every shard worker rebuilds the *same global*
  :class:`~repro.sim.hosts.HostMap` from the spec (placement is
  resolved once, up front, from deterministic demand estimates);
* each step, every worker writes its lanes' demand contributions into
  one half of a shared float64 block (a ``multiprocessing``
  ``RawArray`` holding two global demand vectors, used by step parity)
  and waits once on a step barrier;
* each worker then copies that now-complete half and runs the *global*
  theft pass locally — the exact ``HostMap.apply_step`` arithmetic
  over all lanes — reading back only its own lanes' theft slots.

Because every worker computes the same global vector, thefts,
migration plans and host statistics are bit-identical across workers
and identical to the single-process run (pinned in
``tests/test_fleet_shard.py`` and ``tests/test_host_exchange.py``).

:class:`DemandExchange` is one shard's handle.  In **process mode**
the sweep creates the barrier and block from the ``spawn`` context and
hands them to every pool worker at process start (the pool's
``initializer``, :func:`install_exchange`); the handle itself pickles
without either and picks up the worker's inherited pair on first use.
In **thread mode** (``workers=0``) it holds the block array and a
``threading.Barrier`` directly.  :class:`ShardHostView` adapts the
global map to the fleet engine's host contract for one lane slice.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.sim.hosts import HostMap

#: Wall-clock bound on one barrier wait; a dead or wedged worker breaks
#: the barrier for everyone within this window instead of hanging the
#: sweep forever.
DEFAULT_BARRIER_TIMEOUT_SECONDS = 120.0


#: The ``(barrier, block)`` pair this worker process inherited from
#: its pool's initializer; ``None`` outside a coupled spawn pool.
_INHERITED: tuple | None = None


def install_exchange(barrier, shared) -> None:
    """Pool initializer of a coupled spawn sweep: keep its step barrier
    and demand block for every process-mode :class:`DemandExchange` of
    this worker."""
    global _INHERITED
    _INHERITED = (barrier, shared)


class DemandExchange:
    """One shard worker's handle on the shared per-lane demand block.

    The block is a float64 array of shape ``(2, n_lanes)``: two global
    demand vectors, step ``s`` using row ``s % 2``; this handle owns
    the ``[lane_lo, lane_hi)`` slice of each.  Pass both
    ``barrier`` and ``block`` (thread mode — shared directly) or
    neither (process mode — the worker's pair from
    :func:`install_exchange` is used, so the handle pickles through the
    spawn pool).  ``barrier`` is a ``threading.Barrier``-shaped object
    whose party count is the shard count.
    """

    def __init__(
        self,
        n_lanes: int,
        lane_lo: int,
        lane_hi: int,
        barrier=None,
        timeout_seconds: float = DEFAULT_BARRIER_TIMEOUT_SECONDS,
        block: np.ndarray | None = None,
    ) -> None:
        if not 0 <= lane_lo < lane_hi <= n_lanes:
            raise ValueError(
                f"lane slice [{lane_lo}, {lane_hi}) out of [0, {n_lanes})"
            )
        if timeout_seconds <= 0:
            raise ValueError(
                f"barrier timeout must be positive: {timeout_seconds}"
            )
        if (barrier is None) != (block is None):
            raise ValueError(
                "pass both barrier and block (thread mode) or neither "
                "(process mode, inherited from the pool initializer)"
            )
        if block is not None and block.shape != (2, n_lanes):
            raise ValueError(
                f"demand block has shape {block.shape}; {n_lanes} lanes "
                f"need (2, {n_lanes})"
            )
        self.n_lanes = n_lanes
        self.lane_lo = lane_lo
        self.lane_hi = lane_hi
        self.timeout_seconds = float(timeout_seconds)
        self.inherited = block is None
        self._barrier = barrier
        self._block = block
        self._step = 0

    def __getstate__(self):
        if not self.inherited:
            raise TypeError(
                "a thread-mode DemandExchange shares its block by "
                "reference and cannot cross a process boundary"
            )
        state = self.__dict__.copy()
        # The barrier and block are per-process; the worker resolves
        # its inherited pair lazily.
        state["_barrier"] = None
        state["_block"] = None
        return state

    @property
    def block(self) -> np.ndarray:
        """Both halves of the global demand block, shape
        ``(2, n_lanes)`` (resolving on first use)."""
        if self._block is None:
            if _INHERITED is None:
                raise RuntimeError(
                    "no demand exchange installed in this process: a "
                    "process-mode handle runs in a pool whose "
                    "initializer is install_exchange"
                )
            self._barrier, shared = _INHERITED
            self._block = np.frombuffer(shared, dtype=np.float64).reshape(
                2, self.n_lanes
            )
        return self._block

    def _wait(self) -> None:
        self._barrier.wait(self.timeout_seconds)

    def exchange(self, local_demands: np.ndarray) -> np.ndarray:
        """Publish this shard's demands; return the global vector.

        Step ``s`` writes this shard's slice into half ``s % 2`` of the
        block, waits once on the barrier (every shard's slice is then
        written) and copies that half.  No second wait is needed: a
        fast shard writes this half again only at step ``s + 2``, after
        passing barrier ``s + 1``, which a slow shard reaches only
        after its copy of step ``s``.  Raises
        ``threading.BrokenBarrierError`` when a peer died or a wait
        timed out (the barrier breaks for every participant, so the
        whole sweep fails fast).
        """
        if len(local_demands) != self.lane_hi - self.lane_lo:
            raise ValueError(
                f"expected {self.lane_hi - self.lane_lo} local demands, "
                f"got {len(local_demands)}"
            )
        half = self.block[self._step % 2]
        self._step += 1
        half[self.lane_lo : self.lane_hi] = local_demands
        self._wait()
        return half.copy()

    def close(self) -> None:
        """Drop the inherited barrier and block (thread mode: no-op)."""
        if self.inherited:
            self._barrier = self._block = None


def make_exchange_handles(
    n_lanes: int,
    ranges: list[range],
    barrier=None,
    block: np.ndarray | None = None,
) -> list[DemandExchange]:
    """One :class:`DemandExchange` handle per shard range, in order."""
    return [
        DemandExchange(
            n_lanes=n_lanes,
            lane_lo=lanes.start,
            lane_hi=lanes.stop,
            barrier=barrier,
            block=block,
        )
        for lanes in ranges
    ]


class ShardHostView:
    """One shard's host-coupled view of the global :class:`HostMap`.

    Implements the fleet engine's host contract (``n_lanes``, ``feed``,
    ``apply_step``) for the slice
    ``[lane_lo, lane_hi)`` of a *global* map every worker rebuilt
    identically.  ``apply_step`` computes the slice's demand
    contributions, synchronizes them through the exchange, and runs the
    global theft pass locally — so feeds, migration plans and host
    statistics come out exactly as the single-process map's would.
    """

    def __init__(
        self,
        host_map: HostMap,
        lane_lo: int,
        lane_hi: int,
        exchange: DemandExchange,
    ) -> None:
        if not 0 <= lane_lo < lane_hi <= host_map.n_lanes:
            raise ValueError(
                f"lane slice [{lane_lo}, {lane_hi}) out of "
                f"[0, {host_map.n_lanes})"
            )
        if (exchange.n_lanes, exchange.lane_lo, exchange.lane_hi) != (
            host_map.n_lanes,
            lane_lo,
            lane_hi,
        ):
            raise ValueError(
                f"exchange covers lanes [{exchange.lane_lo}, "
                f"{exchange.lane_hi}) of {exchange.n_lanes}; the view "
                f"needs [{lane_lo}, {lane_hi}) of {host_map.n_lanes}"
            )
        self.map = host_map
        self.lane_lo = lane_lo
        self.lane_hi = lane_hi
        self.exchange_handle = exchange

    @property
    def n_lanes(self) -> int:
        """Lanes in this shard's slice (the engine's fleet size)."""
        return self.lane_hi - self.lane_lo

    def feed(self, lane: int):
        """The *global* map's feed for a shard-local lane offset."""
        if not 0 <= lane < self.n_lanes:
            raise IndexError(
                f"lane {lane} out of range [0, {self.n_lanes})"
            )
        return self.map.feed(self.lane_lo + lane)

    def apply_step(self, t, offered, capacities=None) -> np.ndarray:
        """Global theft pass fed by this slice's demands + the exchange.

        ``offered`` and ``capacities`` cover the slice's lanes, as in
        :meth:`HostMap.apply_step`.  Every step publishes the slice's
        demands, reads the complete global vector off the barrier and
        runs the global theft pass (migrations and fault events
        included) on it.  Returns the slice's theft fractions.
        """
        if len(offered) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} offered demands, got {len(offered)}"
            )
        demands = self.exchange_handle.exchange(
            self.map._demands(offered, capacities)
        )
        thefts = self.map._apply_demands(t, demands)
        return thefts[self.lane_lo : self.lane_hi]


def make_thread_exchange(
    n_lanes: int, ranges: list[range]
) -> list[DemandExchange]:
    """Thread-mode exchange: one in-process block + barrier, one handle
    per shard.  The ``workers=0`` path of :func:`repro.sim.shard.
    run_sharded` runs shards as threads against these handles."""
    barrier = threading.Barrier(len(ranges))
    block = np.zeros((2, n_lanes), dtype=np.float64)
    return make_exchange_handles(n_lanes, ranges, barrier, block=block)

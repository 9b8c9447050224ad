"""Shared simulated hosts: co-located lanes steal capacity from each other.

The paper's production platform co-locates VMs of *different* services
on shared physical hosts; the interference DejaVu detects (Sec. 3.6) is
other tenants' demand squeezing a service's share of the machine.  The
fleet engine originally modeled that only as per-lane *injected*
interference (:mod:`repro.interference.injector`) — a scripted schedule
with no coupling between lanes.  This module closes the loop:

* :class:`SimHost` — one shared machine with a fixed capacity.
* :class:`HostMap` — the placement of fleet lanes onto hosts.  Each
  step the engine reports every lane's offered demand and deployed
  capacity as two vectors; the map converts per-host overcommitment
  into per-lane capacity-theft fractions in **one vectorized matrix
  pass over all hosts** (``np.bincount`` over the placement), so host
  coupling composes with the batched control plane instead of costing
  a per-host Python loop.
* :class:`HostInterferenceFeed` — one lane's view of that theft,
  implementing the injector contract
  (:meth:`~HostInterferenceFeed.interference_at`) so it plugs straight
  into :class:`~repro.core.profiler.ProductionEnvironment` and the
  existing estimator/band machinery
  (:mod:`repro.core.interference`) sees it as ordinary co-tenant
  interference.

Placement itself lives in :mod:`repro.sim.placement`: policies
(round-robin, block, bin-packing) produce the lane → host assignment
this map enforces, and an optional
:class:`~repro.sim.placement.MigrationPolicy` re-packs the
worst-pressure host online, charging each migrated lane a blackout
window of degraded capacity.

Demand footprint
----------------
A lane presses ``min(offered demand, deployed capacity)`` onto its
host each step: its VMs cannot consume more than DejaVu allocated, so
scale-ups (and interference escalations) grow the footprint and
scale-downs free host headroom for the neighbours.  Without per-lane
capacities (``capacities=None``, or ``math.inf`` for a lane without a
provider) the footprint is the offered demand,
:attr:`~repro.workloads.request_mix.Workload.demand_units`.

Theft model
-----------
For a host of capacity ``C`` whose placed lanes offer demands ``d_i``
(total ``D``), an overcommitted host (``D > C``) squeezes every tenant
proportionally; the *interference* a lane experiences is only the part
of the squeeze its neighbours cause:

    theft_i = (D - C) / D * (D - d_i) / D

so a lane alone on an overloaded host sees zero interference (that is
self-saturation, not co-tenancy), and a lane whose neighbours dominate
the host sees nearly the full overload fraction.  DejaVu never reads
these numbers — it only observes the production/isolation performance
gap, exactly as with injected interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SimHost:
    """One shared physical machine.

    ``capacity_units`` is in the same units as
    :attr:`~repro.workloads.request_mix.Workload.demand_units` and
    instance-type capacities, so host pressure and VM allocations live
    on one scale.
    """

    capacity_units: float
    label: str = "host"

    def __post_init__(self) -> None:
        capacity = self.capacity_units
        if not (math.isfinite(capacity) and capacity > 0):
            raise ValueError(
                f"host capacity must be positive and finite: {capacity}"
            )


#: Upper clip on any lane's theft fraction; keeps the service models'
#: effective capacity strictly positive.
MAX_THEFT = 0.9


class HostInterferenceFeed:
    """One lane's live view of its host-induced capacity theft.

    Implements the injector contract (``interference_at(t)``) expected
    by :class:`~repro.core.profiler.ProductionEnvironment`, so a fleet
    lane's production environment can be constructed with a feed in
    place of a scripted :class:`~repro.interference.injector.InterferenceInjector`.
    The feed reads straight out of slot ``index`` of its map's per-step
    theft vector (one shared array, no per-lane push loop).
    """

    __slots__ = ("_values", "_index")

    def __init__(self, values: np.ndarray, index: int) -> None:
        self._values = values
        self._index = index

    @property
    def source(self) -> tuple[np.ndarray, int]:
        """The ``(theft vector, slot)`` this feed reads.

        Vectorized consumers (the fleet family observers) gather many
        feeds in one fancy-index read per step instead of one
        ``interference_at`` call per lane.
        """
        return self._values, self._index

    @property
    def theft(self) -> float:
        return float(self._values[self._index])

    def interference_at(self, t: float) -> float:
        """Effective capacity fraction stolen by co-located tenants."""
        return self.theft


def feed_gather(
    injectors: Sequence,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """Many lanes' interference as one gather.

    Returns ``(theft vector, lanes, slots)`` when every injector in
    ``injectors`` that is not None is a host feed (it exposes
    :attr:`HostInterferenceFeed.source`) on one shared theft vector:
    lane ``lanes[j]`` then steals ``vector[slots[j]]``, and a lane
    without an injector steals nothing.  None when some injector is of
    another kind or the feeds read different vectors: read those lane
    by lane (``interference_at``).
    """
    lanes = [j for j, injector in enumerate(injectors) if injector is not None]
    sources = [getattr(injectors[j], "source", None) for j in lanes]
    if None in sources or len({id(values) for values, _slot in sources}) > 1:
        return None
    return (
        sources[0][0] if sources else np.zeros(0),
        np.array(lanes, dtype=int),
        np.array([slot for _values, slot in sources], dtype=int),
    )


class HostMap:
    """Placement of fleet lanes onto shared hosts, plus the coupling.

    Parameters
    ----------
    hosts:
        The shared machines.
    placement:
        ``placement[lane]`` is the host index the lane's VMs run on, or
        ``None`` for a lane on dedicated hardware (never coupled).
        Policies in :mod:`repro.sim.placement` produce these.
    migration:
        Optional :class:`~repro.sim.placement.MigrationPolicy` (duck
        typed: ``rebalance_every``, ``blackout_seconds``,
        ``blackout_theft`` and ``plan(placement, demands, hosts,
        capacities=...)`` — the map passes its effective, fault-adjusted
        per-host capacities so planners never pack against a dead
        host's nominal size).  When set, every ``rebalance_every``-th
        step re-packs the worst-pressure host before theft is computed,
        and each migrated lane's feed reports at least
        ``blackout_theft`` until its blackout window closes.
    """

    def __init__(
        self,
        hosts: Sequence[SimHost],
        placement: Sequence[int | None],
        migration=None,
    ) -> None:
        if not hosts:
            raise ValueError("a host map needs at least one host")
        self.hosts = tuple(hosts)
        self._placement = list(placement)
        for lane, host in enumerate(self._placement):
            if host is not None and not 0 <= host < len(self.hosts):
                raise ValueError(
                    f"lane {lane} placed on unknown host {host} "
                    f"(have {len(self.hosts)})"
                )
        self.migration = migration
        n_lanes = len(self._placement)
        self._capacity_arr = np.array(
            [host.capacity_units for host in self.hosts], dtype=float
        )
        # The live theft vector: the feeds read from it directly,
        # apply_step rewrites it in place each step.
        self.last_thefts = np.zeros(n_lanes, dtype=float)
        self._feeds = tuple(
            HostInterferenceFeed(self.last_thefts, index)
            for index in range(n_lanes)
        )
        self._rebuild_placement_cache()
        self._blackout_until = np.zeros(n_lanes, dtype=float)
        # Per-lane blackout severity: migrations write the migration
        # policy's theft, fault evacuations the fault schedule's.
        self._blackout_theft = np.zeros(n_lanes, dtype=float)
        # Fault state (attach_faults arms it; None = hosts never die).
        self.faults = None
        self._fault_timeline: list[tuple[int, int, int]] = []
        self._fault_cursor = 0
        self._host_down = np.zeros(len(self.hosts), dtype=bool)
        self._base_capacity = self._capacity_arr.copy()
        self._degraded = np.zeros(n_lanes, dtype=bool)
        # Coupling statistics, accumulated by apply_step.
        self.steps = 0
        self.overloaded_host_steps = 0
        #: (step, host) samples where the host was powered on — had at
        #: least one tenant and was not felled by a fault.  The energy
        #: axis: a drained host accrues nothing until tenants return.
        self.host_on_steps = 0
        self._theft_sum = 0.0
        self.peak_theft = 0.0
        self.migrations = 0
        self.lane_migrations = np.zeros(n_lanes, dtype=int)
        self.host_failures = 0
        self.host_recoveries = 0
        self.evacuations = 0
        self.unplaced_evacuations = 0
        #: Step indices at which host failures and recoveries committed.
        self.fault_commit_steps: list[int] = []

    def _rebuild_placement_cache(self) -> None:
        """Refresh the vectorized-lookup arrays after (re)placement."""
        self._host_index = np.array(
            [-1 if host is None else host for host in self._placement],
            dtype=int,
        )
        self._placed_idx = np.flatnonzero(self._host_index >= 0)
        self._host_lanes: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                lane
                for lane, placed in enumerate(self._placement)
                if placed == host
            )
            for host in range(len(self.hosts))
        )
        self._placed_lanes = [
            lane for lane, host in enumerate(self._placement) if host is not None
        ]
        self._host_tenants = np.bincount(
            self._host_index[self._placed_idx], minlength=len(self.hosts)
        )

    # -- introspection -------------------------------------------------

    @property
    def placement(self) -> tuple[int | None, ...]:
        """The current lane → host assignment (migrations mutate it)."""
        return tuple(self._placement)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def n_lanes(self) -> int:
        return len(self._placement)

    def host_of(self, lane: int) -> int | None:
        """The host index a lane is placed on (None = dedicated)."""
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.n_lanes})")
        return self._placement[lane]

    def lanes_on(self, host: int) -> tuple[int, ...]:
        """All lane indices placed on one host."""
        if not 0 <= host < self.n_hosts:
            raise IndexError(f"host {host} out of range [0, {self.n_hosts})")
        return self._host_lanes[host]

    def neighbours_of(self, lane: int) -> tuple[int, ...]:
        """Lanes co-located with ``lane`` (excluding itself)."""
        host = self.host_of(lane)
        if host is None:
            return ()
        return tuple(i for i in self._host_lanes[host] if i != lane)

    def feed(self, lane: int) -> HostInterferenceFeed:
        """The injector-compatible interference feed for one lane."""
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.n_lanes})")
        return self._feeds[lane]

    # -- migration ------------------------------------------------------

    def migrate(self, lane: int, host: int, t: float) -> None:
        """Move one lane to another host, charging its blackout window.

        The migrated lane's feed reports at least the migration
        policy's ``blackout_theft`` until ``t + blackout_seconds`` —
        the VM-cloning/move cost landing in the lane's SLO accounting.
        """
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.n_lanes})")
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"cannot migrate to unknown host {host}")
        if self._placement[lane] is None:
            raise ValueError(f"lane {lane} is on dedicated hardware")
        if self._placement[lane] == host:
            return
        self._placement[lane] = host
        self.migrations += 1
        self.lane_migrations[lane] += 1
        if self.migration is not None:
            self._blackout_until[lane] = t + self.migration.blackout_seconds
            self._blackout_theft[lane] = self.migration.blackout_theft
        self._rebuild_placement_cache()

    def _maybe_rebalance(self, t: float, demands: np.ndarray) -> None:
        if self.migration is None or self.steps == 0:
            return
        if self.steps % self.migration.rebalance_every != 0:
            return
        moves = self.migration.plan(
            self.placement, demands, self.hosts,
            capacities=self._capacity_arr,
        )
        for lane, host in moves:
            # The planner packs against the effective (fault-adjusted)
            # capacities, so it never targets a dead host; this veto is
            # defense in depth against duck-typed planners that ignore
            # the capacities argument.
            if self._host_down[host]:
                continue
            self.migrate(lane, host, t)

    # -- fault injection ------------------------------------------------

    def attach_faults(self, schedule) -> None:
        """Arm a :class:`~repro.sim.faults.FaultSchedule`'s host events.

        Events are keyed by step index and processed inside
        :meth:`_apply_demands`, which every worker of a sharded sweep
        runs on the identical exchanged demand vector, so each worker
        commits the identical event at the identical step.  A failed
        host's capacity drops to zero; with ``schedule.recovery`` its
        tenants are evacuated best-fit onto surviving hosts (each
        paying the schedule's blackout window), and tenants that fit
        nowhere run *degraded* at ``residual_rate`` of their capacity
        until the host returns.  With recovery off, every tenant rides
        the dead host degraded.
        """
        if self.faults is not None:
            raise ValueError("a fault schedule is already attached")
        if schedule.generators:
            raise ValueError(
                "resolve() the fault schedule before attaching it"
            )
        for event in schedule.host_faults:
            if event.host >= self.n_hosts:
                raise ValueError(
                    f"fault targets host {event.host} but the map has "
                    f"{self.n_hosts} host(s)"
                )
        self.faults = schedule
        self._fault_timeline = schedule.host_timeline()
        self._fault_cursor = 0

    def _process_fault_events(self, t: float, demands: np.ndarray) -> None:
        """Commit every fault event due at or before the current step."""
        timeline = self._fault_timeline
        cursor = self._fault_cursor
        while cursor < len(timeline) and timeline[cursor][0] <= self.steps:
            _step, kind, host = timeline[cursor]
            cursor += 1
            if kind == 0:
                self._fail_host(host, t, demands)
            else:
                self._recover_host(host)
        self._fault_cursor = cursor

    def _fail_host(self, host: int, t: float, demands: np.ndarray) -> None:
        if self._host_down[host]:
            return  # overlapping fault events: already dead
        self._host_down[host] = True
        self._capacity_arr[host] = 0.0
        self.host_failures += 1
        self.fault_commit_steps.append(self.steps)
        tenants = list(self._host_lanes[host])
        if not tenants:
            return
        if not self.faults.recovery:
            # No evacuation machinery: every tenant rides the dead host
            # at the documented residual rate until recovery.
            self._degraded[tenants] = True
            return
        # Emergency evacuation: biggest tenant first onto the surviving
        # host with the most headroom it *fits* on (ties to the lowest
        # index, matching the placement policies' fallback idiom).  A
        # tenant that fits nowhere stays put and runs degraded — an
        # evacuation that overcommits a survivor would just spread the
        # outage.
        idx = self._placed_idx
        loads = np.bincount(
            self._host_index[idx], weights=demands[idx],
            minlength=self.n_hosts,
        )
        residual = self._capacity_arr - loads
        moved = False
        for lane in sorted(tenants, key=lambda l: (-demands[l], l)):
            fits = np.flatnonzero(
                ~self._host_down & (residual >= demands[lane] - 1e-12)
            )
            if fits.size:
                target = int(fits[np.argmax(residual[fits])])
                self._placement[lane] = target
                residual[target] -= demands[lane]
                self.evacuations += 1
                self._blackout_until[lane] = t + self.faults.blackout_seconds
                self._blackout_theft[lane] = self.faults.blackout_theft
                moved = True
            else:
                self._degraded[lane] = True
                self.unplaced_evacuations += 1
        if moved:
            self._rebuild_placement_cache()

    def _recover_host(self, host: int) -> None:
        if not self._host_down[host]:
            return
        self._host_down[host] = False
        self._capacity_arr[host] = self._base_capacity[host]
        self.host_recoveries += 1
        self.fault_commit_steps.append(self.steps)
        # Tenants that rode out the outage in place resume at full
        # capacity; evacuated lanes stay where they landed (no
        # fail-back — a later migration rebalance may move them).
        still = list(self._host_lanes[host])
        if still:
            self._degraded[still] = False

    # -- the coupling --------------------------------------------------

    @staticmethod
    def _demands(
        offered: Sequence[float], capacities: Sequence[float] | None
    ) -> np.ndarray:
        """Per-lane footprint ``min(offered demand, deployed capacity)``.

        ``capacities=None`` leaves every lane unbounded: the footprint
        is the offered demand.  Shard-slice callers
        (:class:`~repro.sim.exchange.ShardHostView`) pass only their own
        lanes.
        """
        offered = np.asarray(offered, dtype=float)
        if capacities is None:
            return offered
        if len(capacities) != len(offered):
            raise ValueError(
                f"expected {len(offered)} capacities, got {len(capacities)}"
            )
        return np.minimum(offered, np.asarray(capacities, dtype=float))

    def apply_step(
        self,
        t: float,
        offered: Sequence[float],
        capacities: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Recompute every lane's theft from this step's demand.

        Called by the fleet engine once per step, *before* controllers
        act, so adaptations in the same step already see the pressure.
        ``offered`` is each lane's offered demand
        (:attr:`~repro.workloads.request_mix.Workload.demand_units`;
        the engine passes the vector it keeps current as workloads
        change) and ``capacities`` its deployed capacity (``math.inf``
        for lanes without a provider; ``None`` leaves every lane
        unbounded).  Returns the per-lane theft fractions — one
        vectorized pass over all hosts (``np.bincount`` totals, one
        overload division, one theft product), written in place into
        the lanes' feeds and accumulated into the map's statistics.
        """
        if len(offered) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} offered demands, got {len(offered)}"
            )
        return self._apply_demands(t, self._demands(offered, capacities))

    def _apply_demands(self, t: float, demands: np.ndarray) -> np.ndarray:
        """The global theft pass over a full per-lane demand vector.

        Factored out of :meth:`apply_step` so a sharded worker's
        :class:`~repro.sim.exchange.ShardHostView` can run the exact
        same arithmetic on the exchanged global vector.
        """
        if len(demands) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} demands, got {len(demands)}"
            )
        if self.faults is not None:
            self._process_fault_events(t, demands)
        self._maybe_rebalance(t, demands)
        thefts = self.last_thefts
        thefts[:] = 0.0
        idx = self._placed_idx
        if idx.size:
            if idx.size == self.n_lanes:
                # Fully placed fleet (the common case): skip the copies.
                hosts_of = self._host_index
                placed = demands
            else:
                hosts_of = self._host_index[idx]
                placed = demands[idx]
            totals = np.bincount(
                hosts_of, weights=placed, minlength=self.n_hosts
            )
            over = totals > self._capacity_arr
            n_over = int(np.count_nonzero(over))
            if n_over:
                self.overloaded_host_steps += n_over
                overload = np.zeros(self.n_hosts, dtype=float)
                overload[over] = (
                    totals[over] - self._capacity_arr[over]
                ) / totals[over]
                factor = overload[hosts_of]
                hot = factor > 0.0
                if np.any(hot):
                    host_total = totals[hosts_of[hot]]
                    thefts[idx[hot]] = np.minimum(
                        factor[hot] * (host_total - placed[hot]) / host_total,
                        MAX_THEFT,
                    )
        if self.migration is not None or self.faults is not None:
            blacked = t < self._blackout_until
            if np.any(blacked):
                np.maximum(
                    thefts,
                    np.where(
                        blacked,
                        np.minimum(self._blackout_theft, MAX_THEFT),
                        0.0,
                    ),
                    out=thefts,
                )
        if self.faults is not None and np.any(self._degraded):
            # A lane riding a dead host keeps only the schedule's
            # residual rate; the self-saturation exemption in the theft
            # formula (a lone tenant steals nothing from itself) must
            # not mask a host that is simply gone.
            floor = min(1.0 - self.faults.residual_rate, MAX_THEFT)
            np.maximum(
                thefts,
                np.where(self._degraded, floor, 0.0),
                out=thefts,
            )
        self.steps += 1
        self.host_on_steps += int(
            np.count_nonzero((self._host_tenants > 0) & ~self._host_down)
        )
        if idx.size:
            self._theft_sum += float(thefts[idx].sum())
        self.peak_theft = max(self.peak_theft, float(thefts.max(initial=0.0)))
        return thefts

    @property
    def overload_fraction(self) -> float:
        """Fraction of (step, host) samples where demand exceeded capacity."""
        total = self.steps * self.n_hosts
        return self.overloaded_host_steps / total if total else 0.0

    @property
    def mean_theft(self) -> float:
        """Mean theft over all (step, placed lane) samples."""
        total = self.steps * len(self._placed_lanes)
        return self._theft_sum / total if total else 0.0

    @property
    def mean_hosts_on(self) -> float:
        """Mean count of powered-on hosts per step (the energy axis)."""
        return self.host_on_steps / self.steps if self.steps else 0.0

"""Placement policies: which shared host each fleet lane's VMs run on.

The first :class:`~repro.sim.hosts.HostMap` hard-wired two placements
(round-robin and block-wise) and a static offered-demand footprint,
which left the paper-shaped question — *how
much does where you put the VMs change the SLO/cost frontier?* — out of
reach.  This module factors placement out behind one small protocol so
the same fleet can run under different packings:

* :class:`PlacementPolicy` — ``place(demands, hosts) -> host per lane``.
  Policies are pure functions of the per-lane demand estimates and the
  host shapes; the :class:`~repro.sim.hosts.HostMap` they feed stays a
  vectorizable per-step matrix operation, so placement composes with
  the batched (PR 3) and sharded (PR 4) fleet paths.
* :class:`RoundRobinPlacement` / :class:`BlockPlacement` — those two
  original placements, the only way to build them.
* :class:`FirstFitDecreasingPlacement` / :class:`BestFitPlacement` —
  classic bin-packing over demand footprints.  When nothing fits, both
  degrade deterministically to the host with the most headroom, so a
  lane is always placed on exactly one host.
* :class:`MigrationPolicy` — online re-packing: every
  ``rebalance_every`` steps the worst-pressure host evicts a tenant to
  the roomiest host, charging the migrated lane a *blackout window* of
  degraded capacity (the paper's Sec. 3 VM-cloning cost, applied to a
  live move instead of a profiling clone) that lands in the lane's SLO
  accounting through the ordinary interference substrate.  The
  ``consolidate`` mode additionally drains cold hosts — bin-packing
  for fewest hosts powered on — so the study's frontier gains the
  energy axis that justifies overcommit in the first place.

The placement-sensitivity study
(:func:`repro.experiments.placement_study.run_placement_sensitivity_study`)
runs the *same* fleet under each registered policy and emits the
SLO-violation/cost/interference-theft frontier per policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.sim.hosts import HostMap, SimHost


@runtime_checkable
class PlacementPolicy(Protocol):
    """Maps per-lane demand estimates onto hosts, one host per lane."""

    name: str

    def place(
        self, demands: Sequence[float], hosts: Sequence[SimHost]
    ) -> list[int]:
        """Host index for every lane, in lane order.

        ``demands`` are placement-time footprint estimates (the study
        uses each lane's peak offered demand over its learning day);
        ``hosts`` supply the capacities bin-packing packs against.
        Every lane must land on exactly one valid host.
        """
        ...


def _check_inputs(demands: Sequence[float], hosts: Sequence[SimHost]) -> None:
    if not hosts:
        raise ValueError("placement needs at least one host")
    if any(d < 0 for d in demands):
        raise ValueError("lane demand estimates cannot be negative")


class RoundRobinPlacement:
    """Lane ``i`` on host ``i % n_hosts``."""

    name = "round_robin"

    def place(
        self, demands: Sequence[float], hosts: Sequence[SimHost]
    ) -> list[int]:
        _check_inputs(demands, hosts)
        return [lane % len(hosts) for lane in range(len(demands))]


class BlockPlacement:
    """Fill hosts block-wise, ``lanes_per_host`` lanes at a time.

    ``lanes_per_host=None`` derives the block size from the host count
    (``ceil(n_lanes / n_hosts)``).
    """

    name = "block"

    def __init__(self, lanes_per_host: int | None = None) -> None:
        if lanes_per_host is not None and lanes_per_host < 1:
            raise ValueError(
                f"need at least one lane per host: {lanes_per_host}"
            )
        self.lanes_per_host = lanes_per_host

    def place(
        self, demands: Sequence[float], hosts: Sequence[SimHost]
    ) -> list[int]:
        _check_inputs(demands, hosts)
        n_lanes, n_hosts = len(demands), len(hosts)
        block = self.lanes_per_host
        if block is None:
            block = max(1, -(-n_lanes // n_hosts))
        placement = [lane // block for lane in range(n_lanes)]
        if placement and placement[-1] >= n_hosts:
            raise ValueError(
                f"block placement of {n_lanes} lanes at {block} per host "
                f"needs {placement[-1] + 1} hosts; have {n_hosts}"
            )
        return placement


def _fallback_host(residual: np.ndarray) -> int:
    """Deterministic overflow target: most headroom, ties to low index."""
    return int(np.argmax(residual))


class FirstFitDecreasingPlacement:
    """Classic FFD bin packing: biggest demand first, first host it fits.

    A lane that fits nowhere goes to the host with the most remaining
    headroom — placement never drops a lane, it degrades into the
    least-bad overcommit.
    """

    name = "first_fit_decreasing"

    def place(
        self, demands: Sequence[float], hosts: Sequence[SimHost]
    ) -> list[int]:
        _check_inputs(demands, hosts)
        residual = np.array([h.capacity_units for h in hosts], dtype=float)
        placement = [0] * len(demands)
        order = sorted(
            range(len(demands)), key=lambda lane: (-demands[lane], lane)
        )
        for lane in order:
            demand = float(demands[lane])
            fits = np.flatnonzero(residual >= demand - 1e-12)
            host = int(fits[0]) if fits.size else _fallback_host(residual)
            placement[lane] = host
            residual[host] -= demand
        return placement


class BestFitPlacement:
    """Online best fit: each lane, in lane order, onto the fitting host
    it leaves tightest (smallest leftover), ties to the lowest index."""

    name = "best_fit"

    def place(
        self, demands: Sequence[float], hosts: Sequence[SimHost]
    ) -> list[int]:
        _check_inputs(demands, hosts)
        residual = np.array([h.capacity_units for h in hosts], dtype=float)
        placement = [0] * len(demands)
        for lane, demand in enumerate(demands):
            demand = float(demand)
            fits = np.flatnonzero(residual >= demand - 1e-12)
            if fits.size:
                host = int(fits[np.argmin(residual[fits])])
            else:
                host = _fallback_host(residual)
            placement[lane] = host
            residual[host] -= demand
        return placement


#: Registered policies, by CLI/study name.
PLACEMENT_POLICIES: dict[str, type] = {
    "round_robin": RoundRobinPlacement,
    "block": BlockPlacement,
    "first_fit_decreasing": FirstFitDecreasingPlacement,
    "best_fit": BestFitPlacement,
}


def make_policy(policy: "str | PlacementPolicy") -> PlacementPolicy:
    """Resolve a policy name (or pass a policy object through)."""
    if isinstance(policy, str):
        try:
            return PLACEMENT_POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"use one of {sorted(PLACEMENT_POLICIES)}"
            ) from None
    if not isinstance(policy, PlacementPolicy):
        raise TypeError(f"not a placement policy: {policy!r}")
    return policy


# ----------------------------------------------------------------------
# Packing quality helpers (tests, migration planning, studies)
# ----------------------------------------------------------------------


def host_loads(
    placement: Sequence[int | None],
    demands: Sequence[float],
    n_hosts: int,
) -> np.ndarray:
    """Per-host total demand under a placement (``None`` = dedicated)."""
    loads = np.zeros(n_hosts, dtype=float)
    for lane, host in enumerate(placement):
        if host is not None:
            loads[host] += float(demands[lane])
    return loads


def total_overcommit(
    placement: Sequence[int | None],
    demands: Sequence[float],
    hosts: Sequence[SimHost],
    capacities: Sequence[float] | None = None,
) -> float:
    """Summed per-host demand in excess of capacity — the packing-quality
    metric the property tests and the migration planner minimize.

    ``capacities`` overrides the hosts' nominal ``capacity_units`` with
    effective (e.g. fault-adjusted) values, one per host.
    """
    loads = host_loads(placement, demands, len(hosts))
    if capacities is None:
        caps = np.array([h.capacity_units for h in hosts], dtype=float)
    else:
        caps = np.asarray(capacities, dtype=float)
    return float(np.maximum(loads - caps, 0.0).sum())


# ----------------------------------------------------------------------
# Online migration
# ----------------------------------------------------------------------


#: Registered migration modes: pressure relief vs power consolidation.
MIGRATION_MODES = ("pressure", "consolidate")


@dataclass(frozen=True)
class MigrationPolicy:
    """Re-pack the shared hosts every ``rebalance_every`` steps.

    In the default ``pressure`` mode each rebalance moves up to
    ``max_moves`` tenants off the hosts with the largest
    demand-over-capacity excess (worst first), preferring the biggest
    tenant that *fits* elsewhere (falling back to the biggest tenant and
    the roomiest host), and only commits a move that strictly reduces
    the fleet's total overcommit.  An overloaded host with a lone
    tenant is self-saturation — no move can help it — so the planner
    skips it and relieves the next-worst host instead of giving up on
    the whole cycle.

    ``consolidate`` mode relieves pressure exactly the same way, but on
    a cycle where pressure relief has no move to make (no overload, or
    only unfixable self-saturation) it *drains* the coldest
    powered-on host whose tenants all bin-pack (best fit decreasing)
    onto the other powered-on hosts within ``drain_headroom`` of their
    effective capacity.  A drain is atomic — every tenant of the chosen
    host moves in the same rebalance, ``max_moves`` notwithstanding —
    and the emptied host powers off (it stops accruing host-hours-on
    until pressure re-spreads tenants onto it).

    Every migrated lane pays ``blackout_seconds`` of ``blackout_theft``
    capacity loss — the VM is being cloned/moved, so its service
    degrades exactly as if a co-tenant were squeezing it — which flows
    into the lane's SLO accounting through the ordinary interference
    feed.

    Planning is fault-aware: callers pass the *effective* per-host
    ``capacities`` (a dead host's capacity is zero) so the planner
    never targets a host a fault has taken down, and never mistakes a
    dead host for an underloaded one.
    """

    rebalance_every: int = 12
    blackout_seconds: float = 600.0
    blackout_theft: float = 0.5
    max_moves: int = 1
    mode: str = "pressure"
    drain_headroom: float = 0.9

    def __post_init__(self) -> None:
        if self.rebalance_every < 1:
            raise ValueError(
                "rebalance interval must be >= 1 step: "
                f"rebalance_every={self.rebalance_every}"
            )
        if self.blackout_seconds < 0:
            raise ValueError(
                "blackout cannot be negative: "
                f"blackout_seconds={self.blackout_seconds}"
            )
        if not 0.0 <= self.blackout_theft <= 1.0:
            raise ValueError(
                "blackout theft must be in [0, 1]: "
                f"blackout_theft={self.blackout_theft}"
            )
        if self.max_moves < 1:
            raise ValueError(
                f"need at least one move: max_moves={self.max_moves}"
            )
        if self.mode not in MIGRATION_MODES:
            raise ValueError(
                f"unknown migration mode: mode={self.mode!r}; "
                f"use one of {list(MIGRATION_MODES)}"
            )
        if not 0.0 < self.drain_headroom <= 1.0:
            raise ValueError(
                "drain headroom must be in (0, 1]: "
                f"drain_headroom={self.drain_headroom}"
            )

    def plan(
        self,
        placement: Sequence[int | None],
        demands: Sequence[float],
        hosts: Sequence[SimHost],
        capacities: Sequence[float] | None = None,
    ) -> list[tuple[int, int]]:
        """The ``(lane, new host)`` moves one rebalance performs.

        Pure planning — the owning :class:`~repro.sim.hosts.HostMap`
        executes the moves (and charges the blackouts).  ``capacities``
        are the effective per-host capacities (fault-adjusted: a dead
        host is ``0.0``); when omitted the hosts' nominal
        ``capacity_units`` are used.
        """
        placement = list(placement)
        demands = np.asarray(demands, dtype=float)
        if capacities is None:
            caps = np.array([h.capacity_units for h in hosts], dtype=float)
        else:
            caps = np.asarray(capacities, dtype=float)
            if caps.shape != (len(hosts),):
                raise ValueError(
                    f"need one capacity per host: got {caps.shape[0] if caps.ndim == 1 else caps.shape!r} "
                    f"for {len(hosts)} hosts"
                )
        moves = self._relieve_pressure(placement, demands, caps)
        if self.mode == "consolidate" and not moves:
            moves = self._drain_coldest(placement, demands, caps)
        return moves

    def _relieve_pressure(
        self,
        placement: list[int | None],
        demands: np.ndarray,
        caps: np.ndarray,
    ) -> list[tuple[int, int]]:
        n_hosts = len(caps)
        alive = caps > 0.0

        def overcommit(candidate: Sequence[int | None]) -> float:
            loads = host_loads(candidate, demands, n_hosts)
            return float(np.maximum(loads - caps, 0.0).sum())

        moves: list[tuple[int, int]] = []
        for _ in range(self.max_moves):
            loads = host_loads(placement, demands, n_hosts)
            excess = loads - caps
            residual = caps - loads
            overloaded = sorted(
                (h for h in range(n_hosts) if excess[h] > 0.0),
                key=lambda h: (-excess[h], h),
            )
            committed = None
            for worst in overloaded:
                tenants = sorted(
                    (
                        lane
                        for lane, host in enumerate(placement)
                        if host == worst
                    ),
                    key=lambda lane: (-demands[lane], lane),
                )
                if len(tenants) < 2:
                    # A lone tenant's overload is self-saturation: no
                    # move helps *this* host, but the next-worst one
                    # may still be relievable this cycle.
                    continue
                move = None
                for lane in tenants:
                    fits = [
                        h
                        for h in range(n_hosts)
                        if h != worst
                        and alive[h]
                        and residual[h] >= demands[lane] - 1e-12
                    ]
                    if fits:
                        target = max(fits, key=lambda h: (residual[h], -h))
                        move = (lane, target)
                        break
                if move is None:
                    # Nothing fits cleanly; push the biggest tenant to
                    # the roomiest live host if that still helps.
                    lane = tenants[0]
                    others = [
                        h for h in range(n_hosts) if h != worst and alive[h]
                    ]
                    if not others:
                        continue
                    target = max(others, key=lambda h: (residual[h], -h))
                    move = (lane, target)
                before = overcommit(placement)
                candidate = list(placement)
                candidate[move[0]] = move[1]
                if overcommit(candidate) >= before - 1e-12:
                    continue
                placement = candidate
                committed = move
                break
            if committed is None:
                break
            moves.append(committed)
        return moves

    def _drain_coldest(
        self,
        placement: list[int | None],
        demands: np.ndarray,
        caps: np.ndarray,
    ) -> list[tuple[int, int]]:
        """All-tenant drain of the coldest host that packs elsewhere."""
        n_hosts = len(caps)
        loads = host_loads(placement, demands, n_hosts)
        alive = caps > 0.0
        tenants_of: dict[int, list[int]] = {}
        for lane, host in enumerate(placement):
            if host is not None:
                tenants_of.setdefault(host, []).append(lane)
        powered_on = [
            h for h in range(n_hosts) if alive[h] and tenants_of.get(h)
        ]
        if len(powered_on) < 2:
            return []
        for source in sorted(powered_on, key=lambda h: (loads[h], h)):
            targets = [h for h in powered_on if h != source]
            residual = {
                h: self.drain_headroom * caps[h] - loads[h] for h in targets
            }
            drain: list[tuple[int, int]] = []
            feasible = True
            for lane in sorted(
                tenants_of[source], key=lambda lane: (-demands[lane], lane)
            ):
                fits = [
                    h
                    for h in targets
                    if residual[h] >= demands[lane] - 1e-12
                ]
                if not fits:
                    feasible = False
                    break
                target = min(fits, key=lambda h: (residual[h], h))
                residual[target] -= demands[lane]
                drain.append((lane, target))
            if feasible and drain:
                return drain
        return []


def make_hosts(n_hosts: int, capacity_units: float) -> list[SimHost]:
    """``n_hosts`` equal hosts with the canonical ``host-<h>`` labels."""
    if n_hosts < 1:
        raise ValueError(f"need at least one host: {n_hosts}")
    return [
        SimHost(capacity_units=capacity_units, label=f"host-{h}")
        for h in range(n_hosts)
    ]


def resolve_placement(
    policy: "str | PlacementPolicy",
    demands: Sequence[float],
    n_hosts: int,
    capacity_units: float,
) -> tuple[int | None, ...]:
    """The lane→host assignment a policy produces for equal hosts.

    Shared by :func:`build_host_map` and the sharded study path, where
    the parent resolves the *global* placement once (policies see the
    whole fleet's demand estimates, which no single shard holds) and
    ships the assignment to every worker through the spec.
    """
    hosts = make_hosts(n_hosts, capacity_units)
    return tuple(make_policy(policy).place(demands, hosts))


def build_host_map(
    policy: "str | PlacementPolicy",
    demands: Sequence[float],
    n_hosts: int,
    capacity_units: float,
    migration: MigrationPolicy | None = None,
) -> HostMap:
    """Place ``demands`` onto ``n_hosts`` equal hosts under a policy,
    with an optional online ``migration`` policy."""
    hosts = make_hosts(n_hosts, capacity_units)
    placement = make_policy(policy).place(demands, hosts)
    return HostMap(hosts, placement, migration=migration)

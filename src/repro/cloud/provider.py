"""Cloud provider: VM pools and the two EC2 scaling mechanisms.

The paper exercises exactly two provisioning schemes (Sec. 2.1):

* **scale out** — vary the number of identical (large) instances, 1–10;
* **scale up** — vary the instance type (large ↔ extra-large) while the
  instance count stays fixed.

:class:`Allocation` names one point in that two-dimensional space, and
:class:`CloudProvider` enacts allocations against pre-created VM pools,
charging a :class:`~repro.cloud.pricing.CostMeter` for every billable
VM-second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cloud.instance_types import EXTRA_LARGE, LARGE, InstanceType
from repro.cloud.pricing import CostMeter
from repro.cloud.vm import VirtualMachine, VMState


@dataclass(frozen=True, order=True)
class Allocation:
    """A resource allocation: ``count`` instances of ``itype``.

    Ordering is by total capacity, which is what the linear-search Tuner
    iterates over ("each time with an increasing amount of virtual
    resources", Sec. 3.4).
    """

    count: int
    itype: InstanceType = LARGE

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"instance count cannot be negative: {self.count}")

    @property
    def capacity_units(self) -> float:
        """Total service capacity of the allocation."""
        return self.count * self.itype.capacity_units

    @property
    def hourly_cost(self) -> float:
        return self.count * self.itype.price_per_hour

    def __str__(self) -> str:
        return f"{self.count}x{self.itype.name}"


class CloudProvider:
    """Owns pre-created VM pools and enacts allocations.

    Parameters
    ----------
    max_instances:
        Pool size per instance type (the paper uses 10 large instances
        for scale-out, and 5+5 for the scale-up study).
    meter:
        Cost meter charged for billable VM time.  A fresh meter is
        created when omitted.
    """

    def __init__(
        self,
        max_instances: int = 10,
        meter: CostMeter | None = None,
        instance_types: tuple[InstanceType, ...] = (LARGE, EXTRA_LARGE),
    ) -> None:
        if max_instances < 1:
            raise ValueError(f"pool needs at least one instance: {max_instances}")
        self.max_instances = max_instances
        self.meter = meter if meter is not None else CostMeter()
        self._pools: dict[InstanceType, list[VirtualMachine]] = {
            itype: [VirtualMachine(itype=itype) for _ in range(max_instances)]
            for itype in instance_types
        }
        # The VMs that are not stopped are always a prefix of their
        # pool: apply stops the last ones and starts the first stopped
        # ones, so each pool's prefix length is all it needs to find
        # them.
        self._live = dict.fromkeys(self._pools, 0)
        self._current = Allocation(count=0)
        self._last_billed_at = 0.0
        self._last_change_at: float | None = None
        self._capacity_plan: tuple[float, tuple[tuple[float, float], ...], float, float] | None = None
        self._capacity_listeners: list = []

    @property
    def current_allocation(self) -> Allocation:
        return self._current

    @property
    def last_change_at(self) -> float | None:
        """Time of the most recent allocation change, or None if never."""
        return self._last_change_at

    def full_capacity(self, itype: InstanceType = LARGE) -> Allocation:
        """The maximum allocation DejaVu deploys for unknown workloads."""
        return Allocation(count=self.max_instances, itype=itype)

    def apply(self, allocation: Allocation, now: float) -> None:
        """Transition the pools to ``allocation``.

        Billing for the elapsed period at the *old* allocation is settled
        first, then VMs are started/stopped.  Newly started VMs pay their
        warm-up before they serve.

        Raises
        ------
        ValueError
            If the allocation exceeds the pool, or its instance type is
            not one this provider was configured with.
        """
        if allocation.itype not in self._pools:
            raise ValueError(f"provider has no pool for {allocation.itype.name}")
        if allocation.count > self.max_instances:
            raise ValueError(
                f"allocation {allocation} exceeds pool of {self.max_instances}"
            )
        self._settle(now)
        if allocation == self._current:
            return
        live = self._live
        for itype, pool in self._pools.items():
            target = allocation.count if itype == allocation.itype else 0
            running = live[itype]
            if running > target:
                for vm in pool[target:running]:
                    vm.stop()
            elif running < target:
                for vm in pool[running:target]:
                    vm.start(now, pre_created=True)
            live[itype] = target
        self._current = allocation
        self._last_change_at = now
        self._capacity_plan = None
        for listener in self._capacity_listeners:
            listener()

    def tick(self, now: float) -> None:
        """Advance VM lifecycles and billing to time ``now``."""
        self._settle(now)
        for vm in self._live_vms():
            vm.tick(now)

    def _live_vms(self):
        """Every VM that is not stopped, pool by pool in pool order."""
        for itype, pool in self._pools.items():
            yield from pool[: self._live[itype]]

    def serving_capacity(self, now: float) -> float:
        """Capacity units of VMs that are RUNNING at ``now``.

        During warm-up after a scale-out this is lower than the target
        allocation's capacity — the transient the latency plots show.
        """
        self.tick(now)
        return sum(
            vm.itype.capacity_units for vm in self._live_vms() if vm.is_serving
        )

    def _plan(self) -> tuple[float, tuple[tuple[float, float], ...], float, float]:
        """Cached capacity plan: (already-running units, pending starts,
        total pending units, last pending ready time).

        VM lifecycles only change through :meth:`apply` (which drops the
        cache) and :meth:`tick` (which merely promotes VMs whose
        ``ready_at`` has passed — a transition the plan's time
        comparison already accounts for), so the plan stays valid
        between allocation changes and makes capacity queries O(pending)
        instead of a walk over every pooled VM.
        """
        if self._capacity_plan is None:
            base = 0.0
            total_pending = 0.0
            pending: list[tuple[float, float]] = []
            for vm in self._live_vms():
                if vm.state is VMState.RUNNING:
                    base += vm.itype.capacity_units
                elif vm.state in (VMState.BOOTING, VMState.WARMING):
                    pending.append((vm.ready_at, vm.itype.capacity_units))
                    total_pending += vm.itype.capacity_units
            last_ready = max((ready for ready, _u in pending), default=0.0)
            self._capacity_plan = (base, tuple(pending), total_pending, last_ready)
        return self._capacity_plan

    def subscribe_capacity_changes(self, listener) -> None:
        """Call ``listener()`` whenever an allocation change invalidates
        the capacity plan.

        A cached :meth:`capacity_at` value can go stale two ways: an
        allocation change (this notification) or a pending warm-up
        elapsing (time-based — poll ``capacity_settles_at``).
        :class:`CapacityCache` combines the two into a per-provider
        dirty flag for consumers that need every lane's capacity every
        step.
        """
        self._capacity_listeners.append(listener)

    @property
    def capacity_settles_at(self) -> float:
        """Time after which capacity is constant under the current plan."""
        _base, pending, _total, last_ready = self._plan()
        return last_ready if pending else 0.0

    def capacity_at(self, t: float) -> float:
        """Serving capacity at ``t``, with no side effects.

        Equals what :meth:`serving_capacity` would report at ``t`` —
        RUNNING VMs plus pre-created VMs whose warm-up has elapsed —
        but neither settles billing nor mutates VM state, and runs in
        O(1) off the cached plan once every pending warm-up has elapsed.
        Per-step fleet consumers read it through a
        :class:`CapacityCache`, which calls it only after an allocation
        change or while a warm-up is still in progress.
        """
        base, pending, total_pending, last_ready = self._plan()
        if not pending or t >= last_ready:
            return base + total_pending
        return base + sum(units for ready_at, units in pending if t >= ready_at)

    def serving_count(self, now: float) -> int:
        """Number of VMs serving at ``now``."""
        self.tick(now)
        return sum(1 for vm in self._live_vms() if vm.is_serving)

    def _settle(self, now: float) -> None:
        """Charge the meter for the period since the last settlement."""
        elapsed = now - self._last_billed_at
        if elapsed < 0:
            raise ValueError(
                f"billing time went backwards: {now} < {self._last_billed_at}"
            )
        if elapsed > 0 and self._current.count > 0:
            self.meter.charge(self._current, elapsed)
        self._last_billed_at = now


class CapacityCache:
    """Deployed capacity of many providers, re-read only when it moved.

    A provider's :meth:`~CloudProvider.capacity_at` can change only
    after an allocation change (``apply`` notifies subscribers) or
    while a pending warm-up elapses (until ``capacity_settles_at``).
    The cache subscribes a dirty flag per provider, so :meth:`refresh`
    re-reads just the dirty or still-warming entries and the steady
    state costs two vectorized mask operations instead of a call per
    provider.  A ``None`` provider reads as unbounded (``math.inf``)
    forever.
    """

    def __init__(self, providers) -> None:
        self._providers = tuple(providers)
        n = len(self._providers)
        self.values = np.full(n, math.inf)
        self._dirty = np.zeros(n, dtype=bool)
        self._settled = np.zeros(n, dtype=float)
        for j, provider in enumerate(self._providers):
            if provider is not None:
                self._dirty[j] = True
                provider.subscribe_capacity_changes(self._invalidator(j))

    def _invalidator(self, j: int):
        dirty = self._dirty

        def invalidate() -> None:
            dirty[j] = True

        return invalidate

    def refresh(self, t: float) -> np.ndarray:
        """Bring :attr:`values` up to ``t``; returns the re-read indices.

        Each re-read entry's allocation may have changed since the last
        refresh; every other entry is exactly as it was.
        """
        dirty = self._dirty
        settled = self._settled
        stale = np.flatnonzero(dirty | (t < settled))
        values = self.values
        providers = self._providers
        for j in stale.tolist():
            provider = providers[j]
            values[j] = provider.capacity_at(t)
            settled[j] = provider.capacity_settles_at
            # An entry still inside a warm-up window stays dirty: its
            # capacity keeps changing, and the *first* refresh at or
            # past the settle time must re-read the fully warmed value.
            dirty[j] = t < settled[j]
        return stale

"""Profiling and production environments.

The **profiling environment** is DejaVu's private sandbox: a clone VM
fed duplicated requests by the proxy, monitored without interference
from co-located tenants (Sec. 3.2.2).  It provides two things to the
manager: workload signatures, and isolated performance measurements
(the denominator of the interference index).

The **production environment** is the real deployment: the service,
the provider's VM pools, and whatever interference the co-located
tenants inject.  Controllers act on it and observe only externally
visible performance.
"""

from __future__ import annotations

from repro.cloud.provider import Allocation, CloudProvider
from repro.interference.injector import InterferenceInjector
from repro.services.base import PerformanceSample, Service
from repro.telemetry.monitor import Monitor
from repro.workloads.request_mix import Workload


class ProfilingEnvironment:
    """The clone-VM sandbox: signatures and isolated performance.

    Parameters
    ----------
    service:
        Service model (the clone runs the same software).
    monitor:
        Metric collector for the clone VM.
    clone_allocation:
        Resources of the profiling instance; DejaVu "profiles only a
        subset of the service, typically a single server instance".
    """

    def __init__(
        self,
        service: Service,
        monitor: Monitor,
        clone_allocation: Allocation | None = None,
    ) -> None:
        from repro.cloud.instance_types import LARGE

        self.service = service
        self.monitor = monitor
        self.clone_allocation = (
            clone_allocation
            if clone_allocation is not None
            else Allocation(count=1, itype=LARGE)
        )

    @property
    def signature_seconds(self) -> float:
        """Time one signature collection takes — DejaVu's adaptation cost."""
        return self.monitor.window_seconds

    def collect_metrics(self, workload: Workload) -> dict[str, float]:
        """All candidate metrics for the (per-instance share of the)
        workload, sampled in isolation.

        The clone serves the traffic of a single profiled instance, so
        the monitor sees the per-instance workload share; with even load
        balancing the signature scales linearly with service-wide volume
        and remains discriminative.
        """
        return self.monitor.collect(workload, interference=0.0)

    def isolated_performance(
        self, workload: Workload, allocation: Allocation
    ) -> PerformanceSample:
        """Sandboxed performance of an allocation (interference-free)."""
        return self.service.performance(
            workload, allocation.capacity_units, interference=0.0
        )


class ProductionEnvironment:
    """The live deployment a controller provisions.

    Parameters
    ----------
    service:
        The deployed service model.
    provider:
        The cloud provider owning the VM pools.
    injector:
        Optional co-located-tenant interference; None means an
        interference-free platform.
    """

    def __init__(
        self,
        service: Service,
        provider: CloudProvider,
        injector: InterferenceInjector | None = None,
    ) -> None:
        self.service = service
        self.provider = provider
        self.injector = injector

    def interference_at(self, t: float) -> float:
        if self.injector is None:
            return 0.0
        return self.injector.interference_at(t)

    def changes(self, allocation: Allocation) -> bool:
        """Whether deploying ``allocation`` changes what is deployed.

        Identity first: a re-deployed decision usually carries the very
        allocation object already serving, and that skips the equality
        test.  Callers deploying many decisions test this before
        :meth:`apply`, which deploys only on it too.
        """
        current = self.provider.current_allocation
        return allocation is not current and allocation != current

    def apply(self, allocation: Allocation, t: float) -> None:
        """Deploy an allocation and notify the service (re-partitioning)."""
        if self.changes(allocation):
            self.provider.apply(allocation, t)
            self.service.notify_allocation_change(t)

    def performance_at(self, workload: Workload, t: float) -> PerformanceSample:
        """Externally visible performance at time ``t``.

        Uses the capacity actually *serving* (warming VMs excluded), so
        the warm-up transient after a scale-out is visible.
        """
        capacity = self.provider.serving_capacity(t)
        if capacity <= 0:
            # Nothing serving: report the timeout cap at the model's
            # finite saturated utilization (an infinite utilization
            # would contaminate fleet-wide numpy aggregates with
            # inf/NaN).
            return PerformanceSample(
                latency_ms=self.service.model.max_latency_ms,
                qos_percent=50.0,
                utilization=self.service.model.saturated_utilization,
            )
        return self.service.performance(
            workload,
            capacity,
            interference=self.interference_at(t),
            now=t,
        )

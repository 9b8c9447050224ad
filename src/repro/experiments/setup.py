"""Shared experiment assembly.

The paper's two case studies share a skeleton: a week-long trace drives
a service; the controller under test provisions it; day 0 is the
learning day and days 1–6 the reuse window.  These builders wire the
substrates together with the calibration DESIGN.md documents:

* the trace peak is scaled so full capacity serves it at the SLO with
  the tuner's safety margin ("we proportionally scale down the load such
  that the peak load corresponds to the maximum number of clients we can
  successfully serve when operating at full capacity");
* scale-out searches 1–10 large instances; scale-up searches
  {5 x large, 5 x extra-large}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import CapacityCache, CloudProvider
from repro.core.interference import InterferenceEstimator
from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.core.profiler import ProductionEnvironment, ProfilingEnvironment
from repro.core.tuner import (
    LinearSearchTuner,
    scale_out_candidates,
    scale_up_candidates,
)
from repro.interference.injector import InterferenceInjector, InterferenceSchedule
from repro.services.base import Service, performance_rows
from repro.services.cassandra import CassandraService
from repro.services.specweb import SpecWebService
from repro.sim.hosts import feed_gather
from repro.telemetry.counters import HPCSampler
from repro.telemetry.monitor import Monitor
from repro.telemetry.xentop import XentopSampler
from repro.workloads.request_mix import (
    CASSANDRA_UPDATE_HEAVY,
    SPECWEB_SUPPORT,
    RequestMix,
)
from repro.workloads.traces import (
    DAYS_PER_WEEK,
    LoadTrace,
    synthetic_hotmail_trace,
    synthetic_messenger_trace,
)

#: Demand (capacity units) offered at trace peak, calibrated so the
#: linear-search tuner maps the peak class to the full 10-instance
#: allocation at its safety margin.
DEFAULT_PEAK_DEMAND = 5.9

#: Peak demand for the scale-up study, per trace: the extra-large tier
#: (capacity 9.5 units) absorbs the peak below the QoS knee while the
#: large tier saturates at the busy plateaus, so the tuner switches
#: types exactly where the paper's Figs. 9(a)/10(a) do.  The Messenger
#: service is scaled slightly hotter so its wider busy plateau also
#: needs the extra-large tier (its saving is lower than HotMail's, as
#: in the paper: ~35% vs ~45%).
SCALE_UP_PEAK_DEMAND = {"hotmail": 6.0, "messenger": 6.6}

#: Default tuner safety margin on latency SLOs; leaves enough headroom
#: that intra-class workload jitter does not violate the SLO.
DEFAULT_LATENCY_MARGIN = 0.85


def peak_clients_for(mix: RequestMix, peak_demand: float) -> float:
    """Trace peak in clients such that peak demand equals ``peak_demand``."""
    if peak_demand <= 0:
        raise ValueError(f"peak demand must be positive: {peak_demand}")
    return peak_demand / mix.demand_per_client


def make_trace(
    trace_name: str,
    mix: RequestMix,
    peak_demand: float,
    seed: int | None = None,
    n_days: int = DAYS_PER_WEEK,
) -> LoadTrace:
    """Build one of the two synthetic traces by name.

    ``n_days`` builds only the trace's first days (the full week by
    default); they equal the full week's on every hour they hold.
    """
    peak_clients = peak_clients_for(mix, peak_demand)
    seeded = {} if seed is None else {"seed": seed}
    if trace_name == "messenger":
        return synthetic_messenger_trace(
            mix, peak_clients=peak_clients, n_days=n_days, **seeded
        )
    if trace_name == "hotmail":
        return synthetic_hotmail_trace(
            mix, peak_clients=peak_clients, n_days=n_days, **seeded
        )
    raise ValueError(f"unknown trace {trace_name!r}; use 'messenger' or 'hotmail'")


#: Capacity of the profiling environment's clone host.  The paper's
#: profilers are dedicated 8-core Xeon servers; the clone must absorb
#: the duplicated traffic without saturating, otherwise utilization
#: metrics clip at 100% and the upper workload classes become
#: indistinguishable in signature space.
PROFILER_CAPACITY_UNITS = 10.0


def _build_monitor(seed: int) -> Monitor:
    return Monitor(
        hpc=HPCSampler(seed=seed),
        xentop=XentopSampler(capacity_units=PROFILER_CAPACITY_UNITS, seed=seed + 1),
    )


def counter_monitor(streams, lane_key: int) -> Monitor:
    """A profiling monitor riding per-fleet counter-mode streams.

    ``streams`` is the fleet's
    :class:`~repro.telemetry.streams.TelemetryStreams`; the HPC and
    xentop samplers get the ``(lane_key, salt)`` streams 0 and 1, so a
    lane's telemetry noise depends only on the fleet seed and its lane
    key — not on which batch or worker process samples it.  Fleet
    studies pass ``lane_key = lane * lane_seed_stride`` to preserve the
    stride-0 "identical lanes" determinism property.
    """
    return Monitor(
        hpc=HPCSampler(stream=streams.stream(lane_key, salt=0)),
        xentop=XentopSampler(
            capacity_units=PROFILER_CAPACITY_UNITS,
            stream=streams.stream(lane_key, salt=1),
        ),
    )


@dataclass
class ScaleOutSetup:
    """Everything a scale-out experiment needs, pre-wired."""

    trace: LoadTrace
    service: Service
    provider: CloudProvider
    production: ProductionEnvironment
    profiler: ProfilingEnvironment
    tuner: LinearSearchTuner
    manager: DejaVuManager


def build_scaleout_setup(
    trace_name: str = "messenger",
    peak_demand: float = DEFAULT_PEAK_DEMAND,
    latency_margin: float = DEFAULT_LATENCY_MARGIN,
    interference_schedule: InterferenceSchedule | None = None,
    injector=None,
    config: DejaVuConfig | None = None,
    service: Service | None = None,
    classifier_factory=None,
    repository=None,
    trace_seed: int | None = None,
    seed: int = 0,
    monitor: Monitor | None = None,
    trace_days: int = DAYS_PER_WEEK,
) -> ScaleOutSetup:
    """Assemble the Cassandra scale-out case study (Sec. 4.1, Figs. 6-8, 11).

    ``seed`` feeds the telemetry samplers; ``trace_seed`` (None keeps
    the canonical calibrated trace) re-draws the synthetic trace's
    phase wander and jitter — fleet studies use it to give each lane a
    genuinely different workload week.  ``injector`` accepts any object
    with the injector contract (``interference_at(t)``) — host-coupled
    fleets pass a :class:`~repro.sim.hosts.HostInterferenceFeed` here
    so co-located lanes' pressure reaches this lane's production
    environment; it is mutually exclusive with ``interference_schedule``
    (the scripted Fig. 11 regime).  ``monitor`` overrides the profiling
    monitor entirely (counter-mode fleet studies build theirs via
    :func:`counter_monitor`); ``seed`` is then ignored.  ``trace_days``
    builds only the trace's first days (see :func:`make_trace`); fleet
    studies pass the days they simulate, paper experiments keep the
    full week.
    """
    if interference_schedule is not None and injector is not None:
        raise ValueError(
            "pass either an interference schedule or an injector, not both"
        )
    if service is None:
        service = CassandraService()
    trace = make_trace(
        trace_name,
        CASSANDRA_UPDATE_HEAVY,
        peak_demand,
        seed=trace_seed,
        n_days=trace_days,
    )
    provider = CloudProvider(max_instances=10)
    if injector is None and interference_schedule is not None:
        injector = InterferenceInjector(interference_schedule)
    production = ProductionEnvironment(service, provider, injector)
    profiler = ProfilingEnvironment(
        service, monitor if monitor is not None else _build_monitor(seed)
    )
    tuner = LinearSearchTuner(
        service,
        scale_out_candidates(provider.max_instances),
        latency_margin=latency_margin,
    )
    manager_kwargs = {}
    if classifier_factory is not None:
        manager_kwargs["classifier_factory"] = classifier_factory
    if repository is not None:
        manager_kwargs["repository"] = repository
    manager = DejaVuManager(
        profiler=profiler,
        production=production,
        tuner=tuner,
        config=config,
        estimator=InterferenceEstimator(),
        **manager_kwargs,
    )
    return ScaleOutSetup(
        trace=trace,
        service=service,
        provider=provider,
        production=production,
        profiler=profiler,
        tuner=tuner,
        manager=manager,
    )


@dataclass
class ScaleUpSetup:
    """Everything a scale-up experiment needs, pre-wired."""

    trace: LoadTrace
    service: Service
    provider: CloudProvider
    production: ProductionEnvironment
    profiler: ProfilingEnvironment
    tuner: LinearSearchTuner
    manager: DejaVuManager
    fixed_count: int


def build_scaleup_setup(
    trace_name: str = "hotmail",
    peak_demand: float | None = None,
    fixed_count: int = 5,
    config: DejaVuConfig | None = None,
    injector=None,
    repository=None,
    trace_seed: int | None = None,
    seed: int = 0,
    monitor: Monitor | None = None,
    trace_days: int = DAYS_PER_WEEK,
) -> ScaleUpSetup:
    """Assemble the SPECweb scale-up case study (Sec. 4.2, Figs. 9-10).

    "We monitor the SPECweb service with 5 virtual instances serving at
    the front-end, and the same number at the back-end" — we model the
    provisioned tier (the one being switched between large and
    extra-large) with ``fixed_count`` instances.

    ``repository``, ``trace_seed``, ``injector``, ``monitor`` and
    ``trace_days`` mirror the scale-out builder: heterogeneous fleet
    studies share one repository across the scale-up lanes, re-draw
    each lane's trace, couple lanes through shared hosts via an
    injector-compatible :class:`~repro.sim.hosts.HostInterferenceFeed`,
    supply counter-mode monitors for batch-/shard-invariant telemetry,
    and build only the simulated days of the trace.
    """
    if peak_demand is None:
        if trace_name not in SCALE_UP_PEAK_DEMAND:
            raise ValueError(f"no default scale-up demand for {trace_name!r}")
        peak_demand = SCALE_UP_PEAK_DEMAND[trace_name]
    service = SpecWebService()
    trace = make_trace(
        trace_name,
        SPECWEB_SUPPORT,
        peak_demand,
        seed=trace_seed,
        n_days=trace_days,
    )
    provider = CloudProvider(max_instances=fixed_count)
    production = ProductionEnvironment(service, provider, injector)
    profiler = ProfilingEnvironment(
        service, monitor if monitor is not None else _build_monitor(seed)
    )
    tuner = LinearSearchTuner(service, scale_up_candidates(fixed_count))
    manager_kwargs = {}
    if repository is not None:
        manager_kwargs["repository"] = repository
    manager = DejaVuManager(
        profiler=profiler,
        production=production,
        tuner=tuner,
        config=config,
        full_capacity_type=EXTRA_LARGE,
        **manager_kwargs,
    )
    return ScaleUpSetup(
        trace=trace,
        service=service,
        provider=provider,
        production=production,
        profiler=profiler,
        tuner=tuner,
        manager=manager,
        fixed_count=fixed_count,
    )


def observe_scaleout(setup: ScaleOutSetup):
    """Observation function recording the Fig. 6/7 series."""

    def observe(ctx) -> dict[str, float]:
        sample = setup.production.performance_at(ctx.workload, ctx.t)
        allocation = setup.provider.current_allocation
        return {
            "latency_ms": sample.latency_ms,
            "qos_percent": sample.qos_percent,
            "instances": float(allocation.count),
            "hourly_cost": allocation.hourly_cost,
            "load": ctx.workload.volume,
        }

    return observe


def observe_scaleup(setup: ScaleUpSetup):
    """Observation function recording the Fig. 9/10 series."""

    def observe(ctx) -> dict[str, float]:
        sample = setup.production.performance_at(ctx.workload, ctx.t)
        allocation = setup.provider.current_allocation
        is_xl = float(allocation.itype == EXTRA_LARGE)
        return {
            "latency_ms": sample.latency_ms,
            "qos_percent": sample.qos_percent,
            "instance_is_xl": is_xl,
            "hourly_cost": allocation.hourly_cost,
            "load": ctx.workload.volume,
        }

    return observe


class _FleetFamilyObserver:
    """Vectorized observation over a family of same-class lanes.

    The batched fleet engine hands this observer its lanes' offered
    volumes and demand units once per step (read off the engine's
    offered-demand vectors, which change only when a workload does) and
    a writable ``(n_series, n_lanes)`` block (usually a zero-copy view
    of the schema group's recording row).  Capacity comes off each
    provider's cached plan
    (:meth:`~repro.cloud.provider.CloudProvider.capacity_at`) instead of
    walking and billing every pooled VM, and only for lanes a
    :class:`~repro.cloud.provider.CapacityCache` marks as changed (an
    allocation change or a warm-up in progress) — the same lanes whose
    allocation series and cost are re-read.  The performance math runs
    through the service layer's vectorized hooks
    (``utilization_rows`` / ``latency_rows`` / ``_qos_rows``), whose
    elements are bit-identical to the scalar ``observe_*`` closures.
    Billing settles on allocation changes plus one :meth:`finalize` at
    the end of the run, which charges the same totals as the scalar
    path's per-step settlement: the cost meter is linear in time.

    All lanes must share one :meth:`~repro.services.base.Service.row_key`
    (model, SLO and QoS curve; the same setup builder guarantees it);
    the constructor enforces it because the vector math is evaluated
    with the first lane's parameters.
    """

    def __init__(self, setups) -> None:
        if not setups:
            raise ValueError("a family observer needs at least one lane")
        self._setups = list(setups)
        self._providers = [s.provider for s in self._setups]
        self._services = [s.service for s in self._setups]
        self._model = self._services[0].model
        reference = self._services[0].row_key()
        for service in self._services:
            if service.row_key() != reference:
                raise ValueError(
                    "family lanes must share one performance model and "
                    f"QoS curve; got {service.row_key()} != {reference}"
                )
        self._injectors = [s.production.injector for s in self._setups]
        self._any_injector = any(inj is not None for inj in self._injectors)
        # Host-map feeds expose their slot of the map's theft vector;
        # when every injector is such a feed on one shared vector (the
        # host-coupled fleet case), interference is read as a single
        # fancy-index gather per step instead of one Python call per
        # lane.  Any other injector shape keeps the per-lane loop.
        gather = feed_gather(self._injectors) if self._any_injector else None
        self._feed_values, self._feed_rows, self._feed_columns = (
            (None, None, None) if gather is None else gather
        )
        n = len(self._setups)
        # Capacity, allocation series and cost change only on an
        # allocation change or during a warm-up; the cache says which
        # lanes to re-read each step.
        self._capacities = CapacityCache(self._providers)
        self._interference = np.zeros(n)
        self._alloc_series = np.zeros(n)
        self._alloc_cost = np.zeros(n)

    @property
    def n_lanes(self) -> int:
        """How many lanes this observer covers (engine-checked)."""
        return len(self._setups)

    @property
    def providers(self) -> list:
        """Covered providers, in lane-binding order.

        The fleet engine cross-checks these against each carrying
        lane's controller, so an observer built in a different order
        than the fleet's lanes fails at bind time instead of silently
        recording swapped series.
        """
        return list(self._providers)

    def finalize(self, t: float) -> None:
        """Settle every covered provider's billing up to ``t``.

        The per-step fast path reads capacity without billing; the
        engine calls this once at the end of a run so each lane's cost
        meter matches what the scalar path's per-step settlement would
        have charged (the meter is linear in time, so only the final
        settlement point matters).
        """
        for provider in self._providers:
            provider.tick(t)

    def _series_value(self, allocation) -> float:
        raise NotImplementedError

    def fill_rows(self, t: float, volumes, demands, out) -> None:
        providers = self._providers
        for j in self._capacities.refresh(t).tolist():
            allocation = providers[j].current_allocation
            self._alloc_series[j] = self._series_value(allocation)
            self._alloc_cost[j] = allocation.hourly_cost
        caps = self._capacities.values
        out[4, :] = volumes
        if self._any_injector:
            interference = self._interference
            if self._feed_values is not None:
                interference[self._feed_rows] = self._feed_values[
                    self._feed_columns
                ]
            else:
                for j, injector in enumerate(self._injectors):
                    if injector is not None:
                        interference[j] = injector.interference_at(t)
        out[2, :] = self._alloc_series
        out[3, :] = self._alloc_cost
        if caps.min() > 0.0:
            out[0, :], out[1, :] = performance_rows(
                self._services, demands, caps, self._interference, t
            )
            return
        # Some lanes have nothing serving (e.g. their first deployment
        # is still queue-delayed): those report the timeout-cap sample,
        # the rest are computed on the served subset.
        served = np.flatnonzero(caps > 0.0)
        out[0, :] = self._model.max_latency_ms
        out[1, :] = 50.0
        if served.size:
            out[0, served], out[1, served] = performance_rows(
                [self._services[j] for j in served.tolist()],
                demands[served],
                caps[served],
                self._interference[served],
                t,
            )


class ScaleoutFleetObserver(_FleetFamilyObserver):
    """Vectorized counterpart of :func:`observe_scaleout` (Cassandra).

    Each lane's re-partitioning transient is added to the vectorized
    queueing latency by :func:`~repro.services.base.performance_rows`.
    """

    names = ("latency_ms", "qos_percent", "instances", "hourly_cost", "load")

    def _series_value(self, allocation) -> float:
        return float(allocation.count)


class ScaleupFleetObserver(_FleetFamilyObserver):
    """Vectorized counterpart of :func:`observe_scaleup` (SPECweb)."""

    names = ("latency_ms", "qos_percent", "instance_is_xl", "hourly_cost", "load")

    def _series_value(self, allocation) -> float:
        return float(allocation.itype == EXTRA_LARGE)


def fleet_observer_scaleout(setups) -> ScaleoutFleetObserver:
    """One vectorized observer for a family of scale-out lanes."""
    return ScaleoutFleetObserver(setups)


def fleet_observer_scaleup(setups) -> ScaleupFleetObserver:
    """One vectorized observer for a family of scale-up lanes."""
    return ScaleupFleetObserver(setups)


def max_scaleout_allocation():
    """The always-max scale-out allocation (10 large)."""
    from repro.cloud.provider import Allocation

    return Allocation(count=10, itype=LARGE)


def max_scaleup_allocation(fixed_count: int = 5):
    """The always-max scale-up allocation (all extra-large)."""
    from repro.cloud.provider import Allocation

    return Allocation(count=fixed_count, itype=EXTRA_LARGE)

"""Multiplexing studies: registers (Sec. 3.3) and fleets (Sec. 5).

Two senses of *multiplexing* appear in the paper, and this module
quantifies both:

* **Register multiplexing** (Sec. 3.3): "It is possible to monitor a
  large number of events using time-division multiplexing, but this
  causes a loss in accuracy [16]."  :func:`run_multiplexing_study`
  compares signature-reading noise on dedicated registers against a
  fully multiplexed 60-event sweep.
* **System multiplexing** (Sec. 5, "cost of the DejaVu system"): one
  profiling environment and one signature repository are amortized
  across many co-hosted services.  :func:`run_fleet_multiplexing_study`
  reproduces that argument at fleet scale: N service lanes share a
  repository and contend for a bounded profiling queue, and the study
  reports the amortized overhead alongside hit rate and queueing cost.

The fleet study is **heterogeneous and host-coupled**: ``mix`` selects
all-Cassandra scale-out lanes, all-SPECweb scale-up lanes, or an
alternation of the two (each family pays its own learning day and
shares its own repository, but every lane rides the same profiling
queue and clock — the paper's "different services, one DejaVu" shape),
and ``n_hosts`` places the lanes onto shared simulated hosts so
co-located services steal capacity from each other and DejaVu's
interference-band escalation fires across lanes (Sec. 3.6 at fleet
scale) instead of only from scripted per-lane injection.
"""

from __future__ import annotations

import math
import operator
import pickle
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.repository import AllocationRepository
from repro.services.slo import LatencySLO
from repro.sim.clock import HOUR, SimClock
from repro.sim.faults import FaultSchedule, parse_faults
from repro.sim.fleet import FleetEngine, FleetLane, FleetResult
from repro.sim.exchange import DemandExchange, ShardHostView
from repro.sim.forecast import PLACEMENT_DEMANDS, placement_estimate
from repro.sim.hosts import HostMap
from repro.sim.placement import (
    MigrationPolicy,
    PlacementPolicy,
    build_host_map,
    make_hosts,
    make_policy,
    resolve_placement,
)
from repro.sim.profiling_queue import ProfilingQueue, QueueConfigError
from repro.telemetry.counters import HARDWARE_REGISTERS, HPCSampler
from repro.telemetry.events import TABLE1_EVENTS
from repro.telemetry.streams import TelemetryStreams
from repro.workloads.request_mix import (
    CASSANDRA_UPDATE_HEAVY,
    SPECWEB_SUPPORT,
    Workload,
)
from repro.workloads.traces import HOURS_PER_DAY, TRACE_HOURS

#: Lane compositions the fleet study understands.
FLEET_MIXES = ("scaleout", "scaleup", "mixed")


@dataclass(frozen=True)
class MultiplexingStudy:
    """Reading-noise comparison for one event set."""

    events: tuple[str, ...]
    dedicated_cv: float
    """Mean coefficient of variation per event, dedicated registers."""

    multiplexed_cv: float
    """Same metric when the events ride a 60-event multiplex sweep."""

    @property
    def noise_inflation(self) -> float:
        """How much noisier multiplexed readings are (>1 expected)."""
        if self.dedicated_cv == 0.0:
            return float("inf")
        return self.multiplexed_cv / self.dedicated_cv


def run_multiplexing_study(
    volume: float = 300.0,
    trials: int = 40,
    seed: int = 0,
) -> MultiplexingStudy:
    """Measure reading noise with and without register multiplexing."""
    if trials < 2:
        raise ValueError(f"need at least two trials: {trials}")
    # Four positive-rate Table-1 events (busq_empty idles *down* with
    # load and can clip at zero on write-heavy mixes, which would make a
    # coefficient of variation meaningless).
    events = tuple(
        name for name in TABLE1_EVENTS if name != "busq_empty"
    )[:HARDWARE_REGISTERS]
    workload = Workload(volume=volume, mix=CASSANDRA_UPDATE_HEAVY)

    dedicated = HPCSampler(events=list(events), seed=seed)
    assert not dedicated.multiplexed
    multiplexed = HPCSampler(seed=seed)  # full 60-event catalogue
    assert multiplexed.multiplexed

    def cv(sampler: HPCSampler) -> float:
        readings = {name: [] for name in events}
        for _ in range(trials):
            sample = sampler.sample(workload, 10.0)
            for name in events:
                readings[name].append(sample[name].rate)
        cvs = []
        for name in events:
            values = np.asarray(readings[name])
            cvs.append(values.std() / values.mean())
        return float(np.mean(cvs))

    return MultiplexingStudy(
        events=events,
        dedicated_cv=cv(dedicated),
        multiplexed_cv=cv(multiplexed),
    )


# ----------------------------------------------------------------------
# Fleet-scale multiplexing (Sec. 5)
# ----------------------------------------------------------------------

#: The integer :class:`FleetConfig` fields (``None`` passes where the
#: field allows it); each must be a true integer, not a float.
_INTEGER_FIELDS = (
    "n_lanes",
    "profiling_slots",
    "max_pending",
    "queue_high_watermark",
    "queue_low_watermark",
    "lane_seed_stride",
    "seed",
    "n_hosts",
    "shards",
    "workers",
    "wave_workers",
)

#: The :class:`FleetConfig` field behind each :class:`ProfilingQueue`
#: parameter it validates (``service_seconds`` is fixed there).
_QUEUE_FIELDS = {
    "slots": "profiling_slots",
    "max_pending": "max_pending",
    "queue_policy": "queue_policy",
    "high_watermark": "queue_high_watermark",
    "low_watermark": "queue_low_watermark",
}


@dataclass(frozen=True)
class FleetConfig:
    """Everything that configures one fleet study, with every rule
    relating its fields.

    The study, its shard workers, the scenario schema and ``repro.cli
    fleet`` all read this one object.  Construction validates it: a bad
    value or an inconsistent combination raises :class:`ValueError`
    whose message names the fields involved: every integer field must
    be a true integer (``operator.index``) and every float field
    finite.  ``__post_init__`` also normalizes the integer fields to
    ``int`` and ``demand_factors`` to a tuple, resolves an unset
    ``placement``/``placement_demand`` to ``round_robin``/
    ``learning-peak`` when hosts exist, and expands ``faults`` into a
    concrete :class:`~repro.sim.faults.FaultSchedule`, so every shard
    worker replays one identical fault timeline.

    **Exactness.**  One configuration run with the per-lane reference
    (``batched=False``), the batched control plane, overlapped waves
    (``wave_workers``) or cut into shards produces bit-identical
    results when the profiling queue is *uncontended* — no request
    waits for a slot.  Shared hosts add no divergence: host-coupled
    shards exchange their demands every step, so every worker runs the
    single-process theft pass, migrations and fault events.  Under a
    contended queue the paths may order grants differently (the
    per-lane reference charges the queue lane by lane, the batched wave in lane order
    after gating the whole wave, and each shard owns its own queue),
    which gives different, equally valid schedules; this happens with
    and without interference escalation probes in the wave.
    """

    n_lanes: int = 4
    """Co-hosted services (lanes) sharing one DejaVu."""

    hours: float = 48.0
    """Simulated duration, at most the traces' length
    (:data:`~repro.workloads.traces.TRACE_HOURS`, one week)."""

    step_seconds: float = 300.0
    """Engine step.  The default 5-minute step keeps adaptation hourly
    (the managers' check interval) while sampling performance between
    adaptations, so the VM warm-up transient after a reallocation is
    weighted as in the paper's 60-second-step case studies rather than
    dominating every sample."""

    profiling_slots: int = 1
    """Clone VMs of the shared profiling environment (one environment
    per shard); every online signature collection contends for them."""

    max_pending: int | None = None
    """Bound on queued profiling requests (``None`` = unbounded);
    rejected requests defer their lane's adaptation."""

    queue_policy: str = "fifo"
    """Admission discipline of the profiling queue: ``fifo`` (the
    original bounded queue) or ``priority`` — the admission market
    where escalation probes and violation-triggered adaptations outbid
    routine re-signatures and relearn sweeps, and queued low-value work
    is evictable by a higher bidder."""

    queue_high_watermark: int | None = None
    """Pending depth at which the priority queue starts shedding
    low-priority work before the ``max_pending`` cliff (set together
    with ``queue_low_watermark``)."""

    queue_low_watermark: int | None = None
    """Pending depth at which watermark shedding stops."""

    resignature_every_seconds: float | None = None
    """Period of a routine re-signature stream on every lane (lowest
    priority: background traffic for the market to outbid); ``None``
    keeps the original request pattern."""

    lane_seed_stride: int = 1
    """Workload diversity: 0 gives every lane the identical trace and
    telemetry (useful for determinism properties), 1 gives each lane
    its own phase wander and jitter."""

    trace_name: str = "messenger"
    """Load trace every lane replays (``messenger`` or ``hotmail``)."""

    seed: int = 0
    """Seeds the traces and the fleet's counter-mode telemetry streams
    (:mod:`repro.telemetry.streams`).  Streams are keyed per lane by
    ``lane * lane_seed_stride``, so a lane's telemetry does not depend
    on which batch or process samples it."""

    mix: str = "scaleout"
    """Lane composition: ``scaleout`` (Cassandra-style), ``scaleup``
    (SPECweb-style) or ``mixed`` (alternating, with per-lane
    observation schemas).  The first lane of each family pays the
    family's learning day; the others adopt its trained model and
    share its repository."""

    n_hosts: int | None = None
    """Shared simulated hosts the lanes are placed on.  Co-located
    lanes steal capacity from each other at demand peaks — each presses
    ``min(offered demand, deployed capacity)`` onto its host — and
    managers that catch a neighbour red-handed escalate to a higher
    interference band (Sec. 3.6).  ``None`` keeps every lane on
    dedicated hardware."""

    host_capacity_units: float = 12.0
    """Capacity of each shared host."""

    placement: "str | PlacementPolicy | None" = None
    """Policy packing lanes onto the hosts: a name from
    :data:`repro.sim.placement.PLACEMENT_POLICIES` or a
    :class:`~repro.sim.placement.PlacementPolicy`.  Unset resolves to
    ``round_robin`` when hosts exist; setting it needs ``n_hosts``."""

    migration: MigrationPolicy | None = None
    """Online re-packing: every ``rebalance_every`` steps the
    worst-pressure host evicts a tenant, and the migrated lane pays a
    blackout window (the Sec. 3 VM-cloning cost).  In
    ``mode="consolidate"`` the policy also drains the coldest host when
    nothing is under pressure.  Needs ``n_hosts``."""

    placement_demand: str | None = None
    """Demand estimate the placement packs: ``learning-peak`` (each
    lane's realized day-0 peak; what unset resolves to when hosts
    exist) or ``forecast`` (the predicted-peak window of
    :mod:`repro.sim.forecast`).  Both are pure functions of the lane's
    trace.  Setting it needs ``n_hosts``."""

    demand_factors: tuple[float, ...] = ()
    """Per-lane peak-demand multipliers: lane ``i``'s trace peak is
    scaled by ``demand_factors[i % len(demand_factors)]`` and families
    split by (kind, factor), so each size pays its own learning day.
    Empty means uniform lanes."""

    batched: bool = True
    """Run the batched control plane: each adaptation wave classifies
    all same-family lanes as one signature matrix and observation uses
    the dict-free fast path.  ``False`` runs the same step loop with no
    batch candidates or observers: every lane steps its controller and
    records its dict observation, the per-lane reference."""

    shards: int = 1
    """Contiguous global lane ranges the fleet is cut into
    (:mod:`repro.sim.shard`), each with its own profiling environment.
    With hosts, the shards stay coupled through a per-step cross-shard
    demand exchange (:mod:`repro.sim.exchange`)."""

    workers: int | None = None
    """Worker processes executing the shards: ``None`` picks
    :func:`repro.sim.shard.default_workers`, 0 runs the shards on
    threads of this process.  Host-coupled shards all
    run at once, so with ``n_hosts`` a pool smaller than ``shards``
    is rejected.  Unused with one shard."""

    shard_dir: str | None = None
    """Directory keeping each shard's ``.npz`` result (default: a
    temporary directory).  Unused with one shard."""

    wave_workers: int = 0
    """Threads overlapping independent batched-control-plane waves
    (per-family signature collection, per-group classification,
    per-observer recording) inside each engine; 0 is the serial path.
    Needs ``batched``."""

    faults: "FaultSchedule | None" = None
    """Deterministic fault timeline (:mod:`repro.sim.faults`): a
    :class:`~repro.sim.faults.FaultSchedule`, a DSL string
    (``"host:1@40+30,profiler@30+18,retries=2"``) or a list of tokens.
    Host deaths trigger an evacuation onto survivors (each evacuee pays
    the blackout window), profiler outages revoke in-flight grants, and
    managers recover by bounded retry-with-backoff and a last-known-good
    fallback (``recovery=off`` keeps the faults, drops the responses).
    Host faults need ``n_hosts``."""

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"need an integer: {name}={value!r}"
                ) from None
        hosted = self.n_hosts is not None
        factors = tuple(float(f) for f in self.demand_factors or ())
        object.__setattr__(self, "demand_factors", factors)
        if self.n_lanes < 1:
            raise ValueError(f"need at least one lane: n_lanes={self.n_lanes}")
        if not (math.isfinite(self.hours) and self.hours > 0):
            raise ValueError(
                f"need a positive, finite duration: hours={self.hours}"
            )
        if self.hours > TRACE_HOURS:
            raise ValueError(
                f"the load traces end after {TRACE_HOURS} hours: "
                f"hours={self.hours}"
            )
        if not (math.isfinite(self.step_seconds) and self.step_seconds > 0):
            raise ValueError(
                "need a positive, finite step: "
                f"step_seconds={self.step_seconds}"
            )
        if not (
            math.isfinite(self.host_capacity_units)
            and self.host_capacity_units > 0
        ):
            raise ValueError(
                "need a positive, finite host capacity: "
                f"host_capacity_units={self.host_capacity_units}"
            )
        if self.seed < 0:
            raise ValueError(f"need a non-negative seed: seed={self.seed}")
        if self.lane_seed_stride < 0:
            raise ValueError(
                "need a non-negative seed stride: "
                f"lane_seed_stride={self.lane_seed_stride}"
            )
        if hosted and self.n_hosts < 1:
            raise ValueError(f"need at least one host: n_hosts={self.n_hosts}")
        if self.mix not in FLEET_MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r}; use one of {FLEET_MIXES}"
            )
        if self.placement is not None:
            make_policy(self.placement)  # unknown names fail loudly
        if (
            self.placement_demand is not None
            and self.placement_demand not in PLACEMENT_DEMANDS
        ):
            raise ValueError(
                f"unknown placement_demand {self.placement_demand!r}; "
                f"use one of {PLACEMENT_DEMANDS}"
            )
        if self.resignature_every_seconds is not None and not (
            math.isfinite(self.resignature_every_seconds)
            and self.resignature_every_seconds > 0
        ):
            raise ValueError(
                "need a positive, finite re-signature period: "
                f"resignature_every_seconds={self.resignature_every_seconds}"
            )
        # The queue's own validation: a bad policy name or watermark
        # combination fails here, not inside a shard worker.
        try:
            ProfilingQueue(
                slots=self.profiling_slots,
                service_seconds=1.0,
                max_pending=self.max_pending,
                queue_policy=self.queue_policy,
                high_watermark=self.queue_high_watermark,
                low_watermark=self.queue_low_watermark,
            )
        except QueueConfigError as exc:
            fields_at_fault = ", ".join(_QUEUE_FIELDS[p] for p in exc.params)
            raise ValueError(f"{exc} ({fields_at_fault})") from None
        if not all(math.isfinite(f) and f > 0 for f in factors):
            raise ValueError(
                "demand factors must be positive and finite: "
                f"demand_factors={factors}"
            )
        if not hosted:
            if self.placement is not None:
                raise ValueError(
                    "placement policies place lanes onto shared hosts; "
                    "pass n_hosts"
                )
            if self.migration is not None:
                raise ValueError(
                    "migration re-packs shared hosts; pass n_hosts"
                )
            if self.placement_demand is not None:
                raise ValueError(
                    "placement_demand picks the estimate lanes are packed "
                    "onto shared hosts with; pass n_hosts"
                )
        if self.shards < 1:
            raise ValueError(f"need at least one shard: shards={self.shards}")
        if self.shards > self.n_lanes:
            raise ValueError(
                f"cannot cut n_lanes={self.n_lanes} into "
                f"shards={self.shards}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0: workers={self.workers}")
        if self.wave_workers < 0:
            raise ValueError(f"wave_workers must be >= 0: {self.wave_workers}")
        if self.wave_workers and not self.batched:
            raise ValueError(
                "wave_workers overlaps the batched control plane's waves; "
                "it needs batched=True"
            )
        if (
            hosted
            and self.workers is not None
            and 0 < self.workers < self.shards
        ):
            raise ValueError(
                "host-coupled shards meet at a barrier every step, so "
                f"all shards={self.shards} must run at once: "
                f"workers={self.workers} would deadlock at the first "
                f"wait (n_hosts={self.n_hosts}); pass workers >= shards, "
                "or workers=0 to run them as threads"
            )
        faults = parse_faults(self.faults)
        if faults is not None:
            if faults.any_host_faults and not hosted:
                raise ValueError(
                    "host faults kill shared hosts; pass n_hosts"
                )
            faults = faults.resolve(self.n_steps, self.n_hosts or 0)
        object.__setattr__(self, "faults", faults)
        if hosted:
            if self.placement is None:
                object.__setattr__(self, "placement", "round_robin")
            if self.placement_demand is None:
                object.__setattr__(self, "placement_demand", "learning-peak")

    @property
    def n_steps(self) -> int:
        """Engine steps the run takes, a partial last step included."""
        return SimClock(self.hours * HOUR, self.step_seconds).n


#: How a statistic combines across the slice payloads of a sharded
#: sweep, by the name in its field's ``merge`` metadata.  ``host``
#: statistics come from any one payload: every shard rebuilds the
#: identical global host map and runs the identical theft pass.
MERGE_RULES = {
    "sum": sum,
    "max": max,
    "host": lambda values: values[0],
}


def _statistic(merge: str | None = None, default: float = 0):
    """A :class:`FleetMultiplexingStudy` statistic field.

    Each slice payload stores a ``merge`` statistic under the field's
    own name and :func:`_merged_study` combines them by
    :data:`MERGE_RULES`; ``None`` marks a statistic the merge derives
    itself.  A statistic absent from the payloads keeps ``default``.
    """
    return field(default=default, metadata={"merge": merge})


@dataclass(frozen=True)
class FleetMultiplexingStudy:
    """One profiling environment and repository shared by ``n_lanes`` services.

    Every field made by ``_statistic`` is a statistic of the run:
    :data:`STUDY_STATISTICS` lists them, scenario records export them
    and the regression gate matches the integer-valued ones exactly.
    """

    config: FleetConfig
    """The configuration that ran."""

    result: FleetResult

    engine_seconds: float
    """Wall-clock seconds spent inside ``FleetEngine.run`` — the
    denominator of the ``lane_steps_per_second`` headline, excluding
    one-off setup/learning cost that is identical under both paths."""

    workers: int = 1
    """Worker processes that executed the shards (1 = in-process)."""

    lane_events: tuple = ()
    """Per-lane adaptation logs, one tuple of
    ``(t, duration_seconds, cache_hit, workload_class, certainty,
    allocation_count, instance_type)`` records per lane in global lane
    order — comparable across single-process and sharded runs."""

    n_steps: int = _statistic()

    learning_runs: int = _statistic()
    """Learning phases paid by the whole fleet (one per service family
    when amortized)."""

    tuning_invocations: int = _statistic()
    """Tuner runs paid during learning — independent of fleet size."""

    hit_rate: float = _statistic(default=0.0)
    """Shared-repository hit rate across every lane's lookups (combined
    over the per-family repositories in a mixed fleet)."""

    mean_queue_wait_seconds: float = _statistic(default=0.0)
    max_queue_wait_seconds: float = _statistic("max", 0.0)
    max_queue_depth: int = _statistic("max")

    accepted_profiles: int = _statistic("sum")
    """Profiling requests the shared queue accepted (the denominator
    behind ``mean_queue_wait_seconds``)."""

    rejected_profiles: int = _statistic("sum")

    evicted_profiles: int = _statistic("sum")
    """Queued-but-unstarted requests bumped by a higher-priority bidder
    (priority policy only)."""

    shed_profiles: int = _statistic("sum")
    """Low-priority requests shed at the high watermark before the hard
    ``max_pending`` cliff (priority policy only)."""

    revoked_profiles: int = _statistic("sum")
    """In-flight profiling grants destroyed by profiler outages."""

    profiler_utilization: float = _statistic(default=0.0)
    """Fraction of shared profiling slot-time spent collecting."""

    fleet_hourly_cost: float = _statistic(default=0.0)
    """Mean fleet-wide production spend per hour (all lanes summed)."""

    amortized_profiling_fraction: float = _statistic(default=0.0)
    """Profiling-environment cost as a fraction of fleet production
    cost; the paper's multiplexing claim is that this shrinks as the
    fleet grows."""

    violation_fraction: float = _statistic(default=0.0)
    """Fraction of (step, lane) samples violating the lane's own SLO
    (latency bound for scale-out lanes, QoS floor for scale-up)."""

    deferred_adaptations: int = _statistic("sum")
    """Adaptations pushed to a later step because the bounded profiling
    queue rejected the signature collection (queue feedback, not just
    accounting)."""

    profiling_retries: int = _statistic("sum")
    """Revocation retries the managers charged back to the queue
    (bounded retry-with-backoff)."""

    revoked_adaptations: int = _statistic("sum")
    """Adaptations abandoned after a revoked signature exhausted its
    retries with ``recovery=off`` (the no-recovery baseline)."""

    degraded_adaptations: int = _statistic("sum")
    """Adaptations that exhausted retries and fell back to deploying
    the last-known-good repository allocation (degraded mode)."""

    interference_escalations: int = _statistic()
    """Band > 0 repository entries tuned online — each one is a lane
    that blamed co-located tenants for an SLO gap and escalated."""

    host_overload_fraction: float = _statistic("host", 0.0)
    """Fraction of (step, host) samples where co-located demand
    exceeded host capacity."""

    mean_host_theft: float = _statistic("host", 0.0)
    """Mean capacity fraction stolen from a placed lane per step."""

    peak_host_theft: float = _statistic("host", 0.0)

    migrations: int = _statistic("host")
    """Lane migrations the host map's :class:`~repro.sim.placement.MigrationPolicy`
    performed (each charged a blackout window to the migrated lane)."""

    host_failures: int = _statistic("host")
    """Host-death fault events the run committed (``faults=``)."""

    host_recoveries: int = _statistic("host")
    """Host-recovery fault events the run committed."""

    evacuations: int = _statistic("host")
    """Tenants emergency-replaced off a dying host onto survivors (each
    paid the migration blackout window — the Sec. 3 VM-cloning cost)."""

    unplaced_evacuations: int = _statistic("host")
    """Tenants of a dead host no survivor could absorb; they ran
    degraded at the schedule's residual rate until recovery."""

    host_hours_on: float = _statistic(default=0.0)
    """Host-hours any shared host spent powered on (>= 1 tenant and not
    felled by a fault) — the energy axis of the placement frontier.  A
    consolidation policy that drains cold hosts shrinks this without
    touching the fleet's dollar cost."""

    mean_hosts_on: float = _statistic(default=0.0)
    """Mean powered-on host count per step (``host_hours_on`` divided
    by the run's wall duration in hours)."""

    @property
    def n_lanes(self) -> int:
        """Services (lanes) the fleet ran."""
        return self.config.n_lanes

    @property
    def n_hosts(self) -> int:
        """Shared hosts the lanes were placed on (0 = dedicated hardware)."""
        return self.config.n_hosts or 0

    @property
    def shards(self) -> int:
        """How many lane-range shards the sweep was partitioned into."""
        return self.config.shards

    @property
    def lane_steps_per_second(self) -> float:
        """Engine throughput: lane-steps per wall-clock second.

        For sharded sweeps the denominator is the sweep wall-clock
        (dispatch to merge), so the figure reflects real end-to-end
        throughput including per-worker setup.
        """
        if self.engine_seconds <= 0:
            return float("inf")
        return self.n_lanes * self.n_steps / self.engine_seconds

    def statistics(self) -> dict[str, float]:
        """Every statistic of the run by name, in field order."""
        return {name: getattr(self, name) for name in STUDY_STATISTICS}


#: The statistic fields of :class:`FleetMultiplexingStudy`, in order.
STUDY_STATISTICS = tuple(
    f.name for f in fields(FleetMultiplexingStudy) if "merge" in f.metadata
)

#: The integer-valued statistics: counts, which never drift by rounding.
COUNT_STATISTICS = frozenset(
    f.name
    for f in fields(FleetMultiplexingStudy)
    if f.name in STUDY_STATISTICS and f.type == "int"
)


def lane_kinds(n_lanes: int, mix: str) -> tuple[str, ...]:
    """The service family of each lane under a fleet composition.

    ``mixed`` alternates scale-out (even lanes) and scale-up (odd
    lanes).  Under the round-robin host placement an *odd* host count
    co-locates the two families with each other; an even count packs
    each host with one family (both are interesting regimes).
    """
    if mix not in FLEET_MIXES:
        raise ValueError(f"unknown mix {mix!r}; use one of {FLEET_MIXES}")
    return tuple(_lane_kind(lane, mix) for lane in range(n_lanes))


def _lane_kind(lane: int, mix: str) -> str:
    """One lane's service family (see :func:`lane_kinds`)."""
    return ("scaleout", "scaleup")[lane % 2] if mix == "mixed" else mix


def lane_demand_factor(
    lane: int, factors: tuple[float, ...] | None
) -> float:
    """The peak-demand multiplier of one lane (factors cycle by index)."""
    if not factors:
        return 1.0
    return factors[lane % len(factors)]


def lane_families(
    n_lanes: int, mix: str, factors: tuple[float, ...] | None
) -> tuple[str, ...]:
    """Model-sharing family of each lane.

    Lanes share one trained model (leader + ``adopt_trained_state``
    adoptees) only when both their service kind *and* their demand
    factor agree: a classifier learned on a half-size trace would
    misclassify a double-size lane's signatures, so differently-sized
    lanes each pay their own family's learning day.
    """
    kinds = lane_kinds(n_lanes, mix)
    if not factors:
        return kinds
    return tuple(
        f"{kind}@x{lane_demand_factor(lane, factors):g}"
        for lane, kind in enumerate(kinds)
    )


def _lane_peak_demand(kind: str, factor: float, trace_name: str) -> float:
    """One lane's trace peak demand: its service kind's default peak
    scaled by the lane's demand factor (a factor of 1.0 reproduces the
    builders' defaults bit for bit)."""
    from repro.experiments.setup import (
        DEFAULT_PEAK_DEMAND,
        SCALE_UP_PEAK_DEMAND,
    )

    if kind == "scaleout":
        return DEFAULT_PEAK_DEMAND * factor
    base = SCALE_UP_PEAK_DEMAND.get(trace_name)
    if base is None:
        raise ValueError(f"no default scale-up demand for {trace_name!r}")
    return base * factor


def _study_days(config: FleetConfig) -> int:
    """Trace days a study reads: every step time is below
    ``hours * HOUR``, so ``ceil(hours / 24)`` days hold every hour."""
    return math.ceil(config.hours / HOURS_PER_DAY)


def _placement_estimates(config: FleetConfig) -> list[float]:
    """Every lane's placement-time demand estimate, traces only.

    Reproduces exactly the estimate :func:`_run_fleet_slice` computes
    from a built setup — via the shared
    :func:`repro.sim.forecast.placement_estimate` resolver, under the
    same ``placement_demand`` mode — but through
    :func:`~repro.experiments.setup.make_trace` alone (no managers, no
    learning), so the parent of a sharded sweep can resolve the global
    placement in milliseconds before dispatching workers.  Both
    estimates read only the learning day, so each trace is built for
    day 0 alone.
    """
    from repro.experiments.setup import make_trace

    estimates = []
    for lane, kind in enumerate(lane_kinds(config.n_lanes, config.mix)):
        trace = make_trace(
            config.trace_name,
            CASSANDRA_UPDATE_HEAVY if kind == "scaleout" else SPECWEB_SUPPORT,
            _lane_peak_demand(
                kind,
                lane_demand_factor(lane, config.demand_factors),
                config.trace_name,
            ),
            seed=config.seed + lane * config.lane_seed_stride,
            n_days=1,
        )
        estimates.append(placement_estimate(trace, config.placement_demand))
    return estimates


def _event_log(manager) -> tuple:
    """One lane's adaptation events as plain comparable tuples."""
    return tuple(
        (
            event.t,
            event.duration_seconds,
            event.cache_hit,
            event.workload_class,
            event.certainty,
            event.allocation.count,
            event.allocation.itype.name,
        )
        for event in manager.adaptation_events
    )


def _build_lane(
    config: FleetConfig,
    streams: TelemetryStreams,
    repository: AllocationRepository,
    lane: int,
):
    """One lane's setup on its family ``repository``, derived from its
    *global* index so that it builds identically in every process."""
    # Imported here: repro.experiments.setup imports the manager layer,
    # which this module must not pull in at import time for the
    # register-multiplexing study alone.
    from repro.core.manager import DejaVuConfig
    from repro.experiments.setup import (
        build_scaleout_setup,
        build_scaleup_setup,
        counter_monitor,
    )

    kind = _lane_kind(lane, config.mix)
    lane_key = lane * config.lane_seed_stride
    common = dict(
        trace_name=config.trace_name,
        repository=repository,
        trace_seed=config.seed + lane_key,
        trace_days=_study_days(config),
        # Counter monitors key their streams by (fleet seed, lane_key):
        # batch- and shard-invariant.
        monitor=counter_monitor(streams, lane_key),
        peak_demand=_lane_peak_demand(
            kind,
            lane_demand_factor(lane, config.demand_factors),
            config.trace_name,
        ),
    )
    knobs = {}
    if config.resignature_every_seconds is not None:
        knobs["resignature_every_seconds"] = config.resignature_every_seconds
    faults = config.faults
    if faults is not None:
        knobs.update(
            profiling_retry_limit=faults.manager_retry_limit,
            profiling_retry_backoff_seconds=faults.retry_backoff_seconds,
            degraded_fallback=faults.manager_degraded_fallback,
        )
    if knobs:
        # Only override the manager config when a knob is set so
        # default fleets keep the builders' config=None path.
        common["config"] = DejaVuConfig(**knobs)
    if kind == "scaleout":
        return build_scaleout_setup(**common)
    return build_scaleup_setup(**common)


def _train_leaders(config: FleetConfig) -> tuple[dict, int]:
    """Learn each family's leader — its *global* first lane — once.

    Returns ``{family: (lane, setup)}`` and the learning days' tuning
    invocations.  Families split by kind and demand factor: differently
    sized lanes cannot share one trained model.
    """
    streams = TelemetryStreams(config.seed)
    families = lane_families(config.n_lanes, config.mix, config.demand_factors)
    leaders: dict[str, tuple[int, object]] = {}
    tuning_invocations = 0
    for lane, family in enumerate(families):
        if family not in leaders:
            setup = _build_lane(config, streams, AllocationRepository(), lane)
            report = setup.manager.learn(setup.trace.hourly_workloads(day=0))
            tuning_invocations += report.tuning_invocations
            leaders[family] = (lane, setup)
    return leaders, tuning_invocations


def _run_fleet_slice(
    config: FleetConfig,
    lane_lo: int,
    lane_hi: int,
    leaders: dict[str, tuple[int, object]],
    exchange: DemandExchange | None = None,
    host_placement: "tuple[int | None, ...] | None" = None,
) -> tuple[FleetResult, dict]:
    """Build and run global lanes ``[lane_lo, lane_hi)`` of the fleet.

    The single-process study is the full slice ``[0, n_lanes)``; shard
    workers run proper sub-slices.  ``leaders`` are the trained family
    leaders of :func:`_train_leaders`.  The slice never learns: a
    family's leader lane *is* its trained setup, and every other lane
    is rebuilt from its *global* index — trace seed, telemetry stream
    key — on the family's repository and adopts the leader's trained
    state, so a lane's simulation does not depend on which process
    runs it.

    When the config carries hosts, a full-fleet slice builds the
    :class:`~repro.sim.hosts.HostMap` itself: the placement policy
    packs each lane's placement-time demand estimate onto the hosts,
    and the lanes' production environments are wired to the map's
    interference feeds.  A proper sub-slice instead receives a
    :class:`~repro.sim.exchange.DemandExchange` handle plus the
    parent's resolved global ``host_placement``, rebuilds the identical
    *global* map, and couples to the other shards through a
    :class:`~repro.sim.exchange.ShardHostView`.

    Returns the slice's :class:`FleetResult` plus a payload dict that
    :func:`_merged_study` merges: every statistic with a ``merge`` rule
    under its :class:`FleetMultiplexingStudy` field name, plus the raw
    aggregates the derived statistics need (hit/miss counts,
    violations, queue wait sum, per-lane event logs).
    """
    from repro.experiments.setup import (
        fleet_observer_scaleout,
        fleet_observer_scaleup,
        observe_scaleout,
        observe_scaleup,
    )

    kinds_all = lane_kinds(config.n_lanes, config.mix)
    families_all = lane_families(
        config.n_lanes, config.mix, config.demand_factors
    )
    streams = TelemetryStreams(config.seed)
    # Each family's shared repository, taken before the run: a leader
    # that later re-learns detaches onto a private fork, but the
    # accounting below must still recognise the shared object the
    # followers keep using.
    repositories = {
        family: setup.manager.repository
        for family, (_, setup) in leaders.items()
    }
    setups = []
    observers = []
    kind_setups: dict[str, list] = {}
    for lane in range(lane_lo, lane_hi):
        kind = kinds_all[lane]
        family = families_all[lane]
        leader_lane, setup = leaders[family]
        if lane != leader_lane:
            leader = setup.manager
            setup = _build_lane(config, streams, repositories[family], lane)
            setup.manager.adopt_trained_state(leader)
        observe = observe_scaleout if kind == "scaleout" else observe_scaleup
        observers.append(observe(setup))
        setups.append(setup)
        kind_setups.setdefault(kind, []).append(setup)

    # Shared hosts: pack placement-time demand estimates (each lane's
    # realized learning-day peak, or its forecast predicted-peak window
    # under ``placement_demand="forecast"``) under the config's policy,
    # then wire every lane's production environment to its interference
    # feed.  A full-fleet slice builds and packs the map itself; a
    # shard slice rebuilds the *global* map from the parent's resolved
    # placement and wraps it in a ShardHostView, so its lanes' feeds
    # bind to their global slots and per-step demands synchronize
    # through the cross-shard exchange.  Feeds attach *before* the
    # vectorized observers are built — the observers snapshot each
    # production's injector at construction.  ``global_map`` is the
    # map the payload's host statistics come from; ``host_map`` is what
    # the engine steps (the view, on a shard slice).
    global_map = host_map = None
    if config.n_hosts is not None:
        if exchange is not None:
            if host_placement is None:
                raise ValueError(
                    "a sharded host-coupled slice needs the parent's "
                    "resolved host_placement"
                )
            global_map = HostMap(
                make_hosts(config.n_hosts, config.host_capacity_units),
                list(host_placement),
                migration=config.migration,
            )
        else:
            estimates = [
                placement_estimate(setup.trace, config.placement_demand)
                for setup in setups
            ]
            global_map = build_host_map(
                config.placement,
                estimates,
                n_hosts=config.n_hosts,
                capacity_units=config.host_capacity_units,
                migration=config.migration,
            )
        if config.faults is not None and config.faults.any_host_faults:
            global_map.attach_faults(config.faults)
        host_map = (
            global_map
            if exchange is None
            else ShardHostView(global_map, lane_lo, lane_hi, exchange)
        )
        for offset, setup in enumerate(setups):
            setup.production.injector = host_map.feed(offset)

    # One vectorized observer per service *kind* (lanes of one kind
    # share a performance model regardless of demand factor): lanes
    # sharing it are observed in a single fill_rows call per step in
    # batched mode.
    kind_observer = {
        kind: (
            fleet_observer_scaleout(members)
            if kind == "scaleout"
            else fleet_observer_scaleup(members)
        )
        for kind, members in kind_setups.items()
    }

    queue = ProfilingQueue(
        slots=config.profiling_slots,
        service_seconds=setups[0].profiler.signature_seconds,
        max_pending=config.max_pending,
        queue_policy=config.queue_policy,
        high_watermark=config.queue_high_watermark,
        low_watermark=config.queue_low_watermark,
    )
    if config.faults is not None:
        fault_windows = config.faults.profiler_windows(config.step_seconds)
        if fault_windows:
            queue.attach_faults(fault_windows)
    lanes = [
        FleetLane(
            workload_fn=setup.trace,
            controller=setup.manager,
            observe_fn=observers[offset],
            label=f"svc-{lane_lo + offset}",
            observe_batch=kind_observer[kinds_all[lane_lo + offset]],
        )
        for offset, setup in enumerate(setups)
    ]
    engine = FleetEngine(
        lanes,
        step_seconds=config.step_seconds,
        label=f"fleet-{config.n_lanes}",
        profiling_queue=queue,
        host_map=host_map,
        batched=config.batched,
        wave_workers=config.wave_workers,
    )
    duration = config.hours * HOUR
    engine_start = time.perf_counter()
    result = engine.run(duration)
    engine_seconds = time.perf_counter() - engine_start

    # Each lane is judged against its own SLO: the latency bound for
    # scale-out lanes, the QoS floor for scale-up lanes.
    violations = 0
    for offset, setup in enumerate(setups):
        slo = setup.service.slo
        if isinstance(slo, LatencySLO):
            values = result.lane_series("latency_ms", offset).values
            violations += int(np.sum(values > slo.bound_ms))
        else:
            values = result.lane_series("qos_percent", offset).values
            violations += int(np.sum(values < slo.floor_percent))

    # Escalation-tuned entries live at band > 0 (only band 0 is
    # pretuned).  Every shard runs on its own copy of the family-shared
    # repositories, so the same escalated entry can appear in several
    # shards' copies; report those as
    # (family, class, band) keys and let the merge deduplicate, so
    # sharded counts match the single-process run exactly.  Private
    # forks created by a re-learning manager belong to one local lane
    # and count directly.
    shared_ids = {id(repo): family for family, repo in repositories.items()}
    distinct = {id(s.manager.repository): s.manager.repository for s in setups}
    escalated: set[tuple[str, int, int]] = set()
    escalations = 0
    for repo_id, repo in distinct.items():
        family = shared_ids.get(repo_id)
        for entry in repo.entries():
            if entry.interference_band <= 0:
                continue
            if family is None:
                escalations += 1
            else:
                escalated.add(
                    (family, entry.workload_class, entry.interference_band)
                )

    # Online-phase misses, classified for the global merge: a miss a
    # tuning run immediately back-filled (the key exists now) is one
    # fleet-wide event that every shard's repository replica pays
    # locally — the merge deduplicates those by (family, class, band) —
    # while misses on keys nothing ever stored repeat per lookup in
    # every arm and sum exactly.
    missed_stored: list[tuple[str, int, int]] = []
    misses_unstored = 0
    for family, repo in repositories.items():
        for key, count in repo.stats.missed_keys.items():
            if repo.contains(*key):
                missed_stored.append((family, key[0], key[1]))
            else:
                misses_unstored += count

    accepted = queue.accepted_grants
    payload = {
        "engine_seconds": engine_seconds,
        "relearns": sum(s.manager.relearn_count for s in setups),
        "hits": sum(repo.stats.hits for repo in repositories.values()),
        "misses": sum(repo.stats.misses for repo in repositories.values()),
        "missed_stored": sorted(missed_stored),
        "misses_unstored": misses_unstored,
        "violations": violations,
        "escalations": escalations,
        "escalated": sorted(escalated),
        "queue_wait_sum": float(
            sum(grant.wait_seconds for grant in accepted)
        ),
        "queue_utilization": queue.utilization(duration),
        "clone_hourly_cost": setups[0].profiler.clone_allocation.hourly_cost,
        "lane_events": [_event_log(s.manager) for s in setups],
        # Statistics merged by their field's rule, under its name.
        "accepted_profiles": len(accepted),
        "rejected_profiles": queue.rejected,
        "evicted_profiles": queue.evicted,
        "shed_profiles": queue.shed,
        "revoked_profiles": queue.revoked,
        "max_queue_wait_seconds": queue.max_wait_seconds,
        "max_queue_depth": queue.max_depth,
        "deferred_adaptations": sum(
            s.manager.deferred_adaptations for s in setups
        ),
        "profiling_retries": sum(s.manager.profiling_retries for s in setups),
        "revoked_adaptations": sum(
            s.manager.revoked_adaptations for s in setups
        ),
        "degraded_adaptations": sum(
            s.manager.degraded_adaptations for s in setups
        ),
    }
    if global_map is not None:
        payload.update(
            host_overload_fraction=global_map.overload_fraction,
            mean_host_theft=global_map.mean_theft,
            peak_host_theft=global_map.peak_theft,
            migrations=global_map.migrations,
            host_failures=global_map.host_failures,
            host_recoveries=global_map.host_recoveries,
            evacuations=global_map.evacuations,
            unplaced_evacuations=global_map.unplaced_evacuations,
            host_on_steps=global_map.host_on_steps,
        )
    return result, payload


def _shard_worker(
    spec: "tuple[FleetConfig, tuple[int | None, ...] | None, bytes]",
    lane_lo: int,
    lane_hi: int,
    result_path: str,
    exchange: DemandExchange | None = None,
) -> dict:
    """One worker's job: run a slice, persist it, return stats.

    ``spec`` is the study's config, the global lane→host placement the
    parent resolved (``None`` without hosts) and the parent's trained
    family leaders, pickled: pickle carries every piece of state a
    learning day leaves, counter-stream positions included.  Every
    shard unpickles its own copy — its own managers and repository
    replicas — even when the shards run as threads of one process, so
    shards never share mutable state.
    """
    config, host_placement, pickled_leaders = spec
    try:
        leaders = pickle.loads(pickled_leaders)
        result, payload = _run_fleet_slice(
            config, lane_lo, lane_hi, leaders, exchange, host_placement
        )
        result.to_npz(result_path)
        return payload
    finally:
        if exchange is not None:
            exchange.close()


def _merged_study(
    config: FleetConfig,
    result: FleetResult,
    payloads: list[dict],
    engine_seconds: float,
    workers: int,
    families: int,
    tuning_invocations: int,
) -> FleetMultiplexingStudy:
    """Assemble the study dataclass from slice payloads + merged result.

    Statistics with a ``merge`` rule combine by :data:`MERGE_RULES`
    (host statistics exist only when the fleet has hosts); the rest
    are derived here.  ``families`` and ``tuning_invocations`` count
    the learning days the parent ran.
    """
    merged = {
        f.name: MERGE_RULES[f.metadata["merge"]]([p[f.name] for p in payloads])
        for f in fields(FleetMultiplexingStudy)
        if f.metadata.get("merge") and f.name in payloads[0]
    }
    # Global online-phase hit rate.  Lookup *totals* are per-lane
    # deterministic and sum exactly; misses need the shard-replica
    # dedup — a back-filled (stored) miss is one fleet-wide event every
    # replica paid locally, so the union over (family, class, band)
    # keys is the global count, while never-stored misses sum.
    lookups = sum(p["hits"] + p["misses"] for p in payloads)
    missed_stored = {
        tuple(key) for payload in payloads for key in payload["missed_stored"]
    }
    misses = len(missed_stored) + sum(p["misses_unstored"] for p in payloads)
    hits = lookups - misses
    accepted = merged["accepted_profiles"]
    wait_sum = sum(p["queue_wait_sum"] for p in payloads)
    violations = sum(p["violations"] for p in payloads)
    fleet_hourly_cost = result.total("hourly_cost").mean()
    profiling_hourly_cost = (
        config.profiling_slots
        * config.shards
        * payloads[0]["clone_hourly_cost"]
    )
    lane_events = tuple(
        tuple(log) for payload in payloads for log in payload["lane_events"]
    )
    # Family-shared escalations arrive as (family, class, band) keys —
    # shards spanning the same family each carry a copy of its
    # repository, so the union (not the sum) is the fleet-wide count.
    escalated = {
        tuple(key) for payload in payloads for key in payload["escalated"]
    }
    escalations = len(escalated) + sum(p["escalations"] for p in payloads)
    host_on_steps = payloads[0].get("host_on_steps", 0)
    return FleetMultiplexingStudy(
        config=config,
        result=result,
        engine_seconds=engine_seconds,
        workers=workers,
        lane_events=lane_events,
        n_steps=result.n_steps,
        learning_runs=families + sum(p["relearns"] for p in payloads),
        tuning_invocations=tuning_invocations,
        hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        mean_queue_wait_seconds=wait_sum / accepted if accepted else 0.0,
        profiler_utilization=(
            sum(p["queue_utilization"] for p in payloads) / len(payloads)
        ),
        fleet_hourly_cost=fleet_hourly_cost,
        amortized_profiling_fraction=profiling_hourly_cost / fleet_hourly_cost,
        violation_fraction=violations / (result.n_steps * config.n_lanes),
        interference_escalations=escalations,
        host_hours_on=host_on_steps * config.step_seconds / 3600.0,
        mean_hosts_on=(
            host_on_steps / result.n_steps if result.n_steps else 0.0
        ),
        **merged,
    )


def run_fleet_multiplexing_study(
    config: FleetConfig | None = None, /, **fields
) -> FleetMultiplexingStudy:
    """Run ``n_lanes`` co-hosted services against one shared DejaVu.

    Builds a :class:`FleetConfig` from ``fields`` (or applies them to
    ``config``); every setting, its default and its rules are documented
    there.  The first lane of each service family pays that family's
    learning day, once, here, before any lane runs; every other lane
    of the family adopts the trained model and the family's shared
    repository, so the fleet pays one learning phase per family
    regardless of size or shard count.  All lanes — across
    families — ride one :class:`ProfilingQueue`, so each online
    signature collection contends for the shared profiler.

    With ``shards > 1`` the fleet's contiguous global lane ranges run in
    worker processes (``spawn``), each persisting its
    :class:`FleetResult` via ``to_npz`` before this process merges them
    (:mod:`repro.sim.shard`).  Every worker receives a copy of the
    trained leaders and only builds, adopts and simulates.  Host
    coupling crosses shard boundaries: the parent resolves the global
    placement once, every worker rebuilds the identical global
    :class:`~repro.sim.hosts.HostMap`, and each step the workers
    synchronize their lanes' demand through a shared block and
    a step barrier (:mod:`repro.sim.exchange`) before computing the
    global theft pass locally.
    """
    config = (
        FleetConfig(**fields) if config is None else replace(config, **fields)
    )
    leaders, tuning_invocations = _train_leaders(config)
    if config.shards == 1:
        result, payload = _run_fleet_slice(config, 0, config.n_lanes, leaders)
        return _merged_study(
            config,
            result,
            [payload],
            engine_seconds=payload["engine_seconds"],
            workers=1,
            families=len(leaders),
            tuning_invocations=tuning_invocations,
        )

    from repro.sim.shard import default_workers, run_sharded

    # Host coupling crosses shard boundaries: resolve the global
    # placement up front (policies see the whole fleet's demand
    # estimates, which no single shard holds) so every worker rebuilds
    # the identical global map.
    coupled = config.n_hosts is not None
    host_placement = None
    if coupled:
        host_placement = resolve_placement(
            config.placement,
            _placement_estimates(config),
            n_hosts=config.n_hosts,
            capacity_units=config.host_capacity_units,
        )
    # The pool never exceeds the shard count; record the size that ran.
    workers = (
        default_workers(config.shards, coupled)
        if config.workers is None
        else min(config.workers, config.shards)
    )
    merged, payloads, wall_seconds = run_sharded(
        _shard_worker,
        (config, host_placement, pickle.dumps(leaders)),
        n_lanes=config.n_lanes,
        shards=config.shards,
        workers=workers,
        shard_dir=config.shard_dir,
        label=f"fleet-{config.n_lanes}",
        coupled=coupled,
    )
    return _merged_study(
        config,
        merged,
        payloads,
        engine_seconds=wall_seconds,
        workers=workers,
        families=len(leaders),
        tuning_invocations=tuning_invocations,
    )

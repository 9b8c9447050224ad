"""Fleet-scale simulation: many (controller, service, workload) lanes.

The paper's headline economics (Sec. 5, "cost of the DejaVu system")
rest on *multiplexing*: one profiling environment and one workload
signature repository are amortized across many co-hosted services.  The
single-service :class:`~repro.sim.engine.SimulationEngine` cannot
exercise that argument, so this module generalizes it to a **fleet**: N
independent lanes stepped on one shared clock.

Four pieces:

* :class:`FleetLane` — one (workload, controller, observation) triple,
  exactly the contract the single-service engine had.
* a :class:`~repro.sim.profiling_queue.ProfilingQueue` — the shared
  profiling environment (its own module).  Lanes that want to collect
  a signature in the same step contend for its slots; the engine
  applies its outage windows once per step.
* :class:`FleetEngine` / :class:`FleetResult` — the stepped loop and its
  batched recording.  Fleets are **heterogeneous**: each lane's first
  observation fixes *that lane's* series schema, and lanes sharing a
  schema (for example all the Cassandra-style scale-out lanes, or all
  the SPECweb-style scale-up lanes) batch into one growable
  ``(n_steps, n_lanes_in_group)`` numpy block per series.  Per-lane
  series materialize lazily (and, for homogeneous fleets,
  bit-identically to the legacy engine) from buffer columns;
  :meth:`FleetResult.lane_block` is the unified
  ``lane index → (schema, rows)`` accessor.
* an optional :class:`~repro.sim.hosts.HostMap` — shared simulated
  hosts coupling co-located lanes.  Each step the engine feeds every
  lane's offered demand to the map, which converts per-host
  overcommitment into per-lane capacity theft through the existing
  interference substrate, so interference-band escalation fires across
  services instead of only from scripted per-lane injection.

The legacy :meth:`SimulationEngine.run` is a thin wrapper over a 1-lane
fleet, so every existing experiment exercises this code path.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from repro.cloud.provider import CapacityCache
from repro.sim.clock import SimClock
from repro.sim.engine import Controller, StepContext
from repro.sim.hosts import HostMap
# A runtime import, not a TYPE_CHECKING one: perfbench's trace hooks
# patch the queue's methods through ``repro.sim.fleet.ProfilingQueue``.
from repro.sim.profiling_queue import ProfilingQueue
from repro.sim.result import SimulationResult, TimeSeries
from repro.workloads.request_mix import Workload


@dataclass
class FleetLane:
    """One independent service lane in the fleet.

    The contract mirrors the single-service engine: a workload function,
    a controller, and an observation function recording named series.
    A :class:`~repro.workloads.traces.LoadTrace` passed as
    ``workload_fn`` is evaluated once per trace hour; any other callable
    every step.

    ``observe_batch`` optionally provides the same observation as a
    dict-free fast path for the batched engine mode: a
    :class:`BatchObserver` covering this lane (and usually its whole
    service family — lanes sharing one observer object are observed in
    a single vectorized call per step).  It must produce bit-identical
    values to ``observe_fn``; ``batched=False`` never calls it.
    """

    workload_fn: Callable[[float], Workload]
    controller: Controller
    observe_fn: Callable[[StepContext], dict[str, float]]
    label: str = "lane"
    observe_batch: "BatchObserver | None" = None


class BatchObserver(Protocol):
    """Dict-free group observation for the batched engine mode.

    One observer instance covers an ordered set of lanes (the lanes
    constructed with it, in fleet lane order).  Each step the engine
    calls :meth:`fill_rows` once with those lanes' offered volumes
    (:attr:`~repro.workloads.request_mix.Workload.volume`) and demands
    (:attr:`~repro.workloads.request_mix.Workload.demand_units`) and a
    writable ``(len(names), n_lanes)`` block — in the common case a
    zero-copy view of the schema group's recording row.
    """

    names: tuple[str, ...]

    def fill_rows(
        self,
        t: float,
        volumes: np.ndarray,
        demands: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Write every covered lane's observation column into ``out``."""
        ...


# ----------------------------------------------------------------------
# Batched recording
# ----------------------------------------------------------------------


class _RowBuffer:
    """A growable ``(n_steps, n_lanes)`` float buffer (doubling growth)."""

    def __init__(self, n_lanes: int, capacity: int = 256) -> None:
        self._data = np.empty((capacity, n_lanes), dtype=float)
        self._len = 0

    def append(self, row: np.ndarray) -> None:
        if self._len == self._data.shape[0]:
            grown = np.empty(
                (2 * self._data.shape[0], self._data.shape[1]), dtype=float
            )
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len] = row
        self._len += 1

    @property
    def array(self) -> np.ndarray:
        return self._data[: self._len]


class _SchemaGroup:
    """One batch of lanes sharing an observation schema.

    ``names`` keeps the key order of the first lane that exhibited the
    schema; membership is by name *set*, so lanes may emit the same
    series in any order.  Each group owns one reusable
    ``(n_series, n_group_lanes)`` row and one buffer per series.
    """

    __slots__ = ("names", "lanes", "row", "buffers")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.lanes: list[int] = []
        self.row: np.ndarray | None = None
        self.buffers: dict[str, _RowBuffer] = {}

    def allocate(self) -> None:
        """Create the row and buffers once membership is final."""
        self.row = np.empty((len(self.names), len(self.lanes)), dtype=float)
        self.buffers = {name: _RowBuffer(len(self.lanes)) for name in self.names}


@dataclass
class FleetResult:
    """All recorded outputs of one fleet run.

    Values live in one ``(n_steps, n_recording_lanes)`` matrix per
    series name.  In a homogeneous fleet every lane records every
    series, so each matrix spans all lanes in lane order — identical to
    the original single-schema layout.  In a heterogeneous fleet each
    lane records only its own schema's series; a matrix's columns then
    follow :meth:`lanes_recording`.  Per-lane :class:`SimulationResult`
    views, per-lane ``(schema, rows)`` blocks and fleet-wide aggregate
    series are derived on demand.
    """

    label: str
    lane_labels: tuple[str, ...]
    times: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    schemas: tuple[tuple[str, ...], ...] = ()
    lane_schemas: tuple[int, ...] = ()
    series_lanes: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Constructing with matrices only (the pre-heterogeneity shape)
        # means one schema shared by every lane.
        if not self.schemas and self.matrices:
            self.schemas = (tuple(self.matrices),)
        if not self.lane_schemas and self.schemas:
            self.lane_schemas = (0,) * self.n_lanes
        if not self.series_lanes and self.matrices:
            everyone = tuple(range(self.n_lanes))
            self.series_lanes = {name: everyone for name in self.matrices}

    @property
    def n_lanes(self) -> int:
        return len(self.lane_labels)

    @property
    def n_steps(self) -> int:
        return int(self.times.size)

    @property
    def n_schemas(self) -> int:
        return len(self.schemas)

    def series_names(self) -> tuple[str, ...]:
        return tuple(self.matrices)

    def matrix(self, name: str) -> np.ndarray:
        """The raw ``(n_steps, n_recording_lanes)`` matrix of one series.

        Columns follow :meth:`lanes_recording`; in a homogeneous fleet
        that is simply all lanes in lane order.
        """
        if name not in self.matrices:
            raise KeyError(f"no series {name!r}; have {sorted(self.matrices)}")
        return self.matrices[name]

    def lanes_recording(self, name: str) -> tuple[int, ...]:
        """Global lane indices whose schema includes ``name``, in
        column order of :meth:`matrix`."""
        if name not in self.series_lanes:
            raise KeyError(f"no series {name!r}; have {sorted(self.series_lanes)}")
        return self.series_lanes[name]

    def lane_index(self, label: str) -> int:
        try:
            return self.lane_labels.index(label)
        except ValueError:
            raise KeyError(
                f"no lane {label!r}; have {list(self.lane_labels)}"
            ) from None

    def schema_of(self, lane: int) -> tuple[str, ...]:
        """The series names lane ``lane`` records."""
        self._check_lane(lane)
        return self.schemas[self.lane_schemas[lane]]

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.n_lanes:
            raise IndexError(f"lane {lane} out of range [0, {self.n_lanes})")

    def _column_of(self, name: str, lane: int) -> int:
        recording = self.lanes_recording(name)
        try:
            return recording.index(lane)
        except ValueError:
            raise KeyError(
                f"lane {lane} ({self.lane_labels[lane]!r}) does not record "
                f"{name!r}; its schema is {list(self.schema_of(lane))}"
            ) from None

    def lane_series(self, name: str, lane: int) -> TimeSeries:
        """One lane's column of one series, as a :class:`TimeSeries`."""
        self._check_lane(lane)
        column = self._column_of(name, lane)
        return TimeSeries.from_arrays(
            name, self.times, self.matrix(name)[:, column]
        )

    def lane_block(self, lane: int) -> tuple[tuple[str, ...], np.ndarray]:
        """The unified ``lane index → (schema, rows)`` accessor.

        Returns the lane's schema and its recorded values as one
        ``(n_steps, n_series)`` array with columns in schema order —
        the natural shape for feeding one lane's history to analysis
        code regardless of which schema group it batched into.
        """
        schema = self.schema_of(lane)
        if not schema:
            return schema, np.empty((self.n_steps, 0), dtype=float)
        columns = [
            self.matrix(name)[:, self._column_of(name, lane)] for name in schema
        ]
        return schema, np.column_stack(columns)

    def lane_result(self, lane: int) -> SimulationResult:
        """Materialize one lane as a legacy :class:`SimulationResult`."""
        self._check_lane(lane)
        result = SimulationResult(label=self.lane_labels[lane])
        for name in self.schema_of(lane):
            result.series[name] = self.lane_series(name, lane)
        return result

    def total(self, name: str) -> TimeSeries:
        """Per-step sum of one series over the lanes recording it
        (e.g. total hourly cost)."""
        return TimeSeries.from_arrays(
            f"{name}.total", self.times, self.matrix(name).sum(axis=1)
        )

    def mean(self, name: str) -> TimeSeries:
        """Per-step mean of one series over the lanes recording it."""
        return TimeSeries.from_arrays(
            f"{name}.mean", self.times, self.matrix(name).mean(axis=1)
        )

    def to_npz(self, path: "str | Path") -> None:
        """Persist the numpy blocks to one ``.npz`` file.

        The sharded sweep driver writes each worker's shard result this
        way and merges the files in the parent process; see
        :func:`repro.core.persistence.save_fleet_result`.
        """
        from repro.core.persistence import save_fleet_result

        save_fleet_result(self, path)

    @staticmethod
    def from_npz(path: "str | Path") -> "FleetResult":
        """Load a result persisted by :meth:`to_npz`."""
        from repro.core.persistence import load_fleet_result

        return load_fleet_result(path)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

#: Everything the batched adaptation wave calls on a controller.  A
#: controller offering only part of the surface is not a batch
#: candidate and keeps the scalar ``on_step`` path instead of crashing
#: mid-wave.
_BATCH_ADAPT_PROTOCOL = (
    "supports_batched_adapt",
    "adaptation_due",
    "begin_batched_adapt",
    "signature_row",
    "batch_group_key",
    "batch_classifier",
    "complete_batched_adapt",
    "poll_pending_deployment",
    "land_pending_deployment",
    "post_deploy_slo_met",
    "finish_landing",
    "batched_wake_at",
)


class FleetEngine:
    """Steps N independent lanes on one shared clock.

    Parameters
    ----------
    lanes:
        The fleet; at least one lane.  Lanes may observe different
        series schemas (mixed scale-out/scale-up fleets); lanes sharing
        a schema batch into one numpy block.  A lane's schema is fixed
        by its first observation and may not drift mid-run.
    step_seconds:
        Shared step width, as in the single-service engine.
    profiling_queue:
        Optional shared profiling environment, attached to every
        controller through ``attach_profiling_queue`` so each charges
        its own profiling with real feedback.  Every controller must
        accept it: a controller without ``attach_profiling_queue``
        raises :class:`ValueError` when a queue is given.
    host_map:
        Optional shared-host placement.  When given, the engine reports
        every lane's offered demand and deployed capacity (read off its
        provider's cached plan; ``math.inf`` for a provider-less lane)
        to the map at the start of each step, and the map charges each
        lane ``min(offered, capacity)`` — so co-located lanes on an
        overcommitted host experience capacity theft through their
        :class:`~repro.sim.hosts.HostInterferenceFeed`, which the
        experiment wires into each lane's production environment.  The
        map runs any attached
        :class:`~repro.sim.placement.MigrationPolicy` inside the same
        per-step call, so online re-packing (and its blackout cost)
        needs no extra engine hook.
    batched:
        Select the batched control plane (the default).  Both settings
        run one step loop; ``False`` registers no batch candidates and
        no batch observers, so every lane runs its controller's
        ``on_step`` and records through ``observe_fn`` — the per-lane
        reference.  When batched, each step, lanes whose (trained,
        queue-gated) DejaVu managers are due a periodic adaptation are
        classified as one signature matrix per shared-model group — one
        vectorized
        ``standardize → classify → novelty`` pass plus one batched
        band-0 repository lookup — and lanes carrying an
        ``observe_batch`` fast path record without building dicts.
        Per-step work scales with the lanes that have something to
        do.  The engine keeps one wake time per batch candidate
        (``batched_wake_at``) and the wave visits only candidates whose
        wake time has come: a lane sleeps between its periodic checks,
        and a lane whose FIFO-queued deployment no outage can touch
        sleeps until that deployment lands.  Visited lanes that are not
        due an adaptation go through one landing pass per step
        (``_land_deployments``): every due deployment on an accepted,
        unrevised grant is deployed in lane order, their post-deploy
        SLO checks run as one vectorized pre-check per service family,
        and only lanes failing it run the scalar check; every other
        idle lane is polled (``poll_pending_deployment``).  A lane
        replaying a
        :class:`~repro.workloads.traces.LoadTrace` re-evaluates its
        workload only when the clock enters a new trace hour (the
        trace's own ``int(t // HOUR)``), and the engine's per-lane
        offered-volume and offered-demand vectors, which the host map
        and the batch observers read, change only for lanes whose
        workload was re-evaluated.  One dirty-flag
        :class:`~repro.cloud.provider.CapacityCache` pattern serves
        both the host footprints and the family observers, so capacity
        and allocation are re-read only for lanes that changed
        allocation or are still warming up.
        Results are bit-identical to ``batched=False`` (pinned by
        ``tests/test_fleet_equivalence.py`` and
        ``tests/test_fleet_quiet_lanes.py``): shared state is consulted
        once per batch instead of once per lane.  Documented boundaries
        where the two produce different (equally valid) FIFO schedules
        on a *contended* queue — any profiling that the per-lane
        ``on_step`` interleaves with other lanes' signature requests but
        the wave orders around them: interference-escalation probes,
        ``adapt_on_violation`` DejaVu lanes (per-lane fallback, stepped
        after the wave),
        auto-relearn sweeps and post-relearn re-classifications
        (charged in the wave's finish phase), routine re-signature
        traffic on steps where only some candidates are due
        (``resignature_every_seconds``).  With an uncontended queue
        (or none) all of these coincide and the bit-identical guarantee
        holds unconditionally.
    wave_workers:
        Overlap independent batched-control-plane waves on a thread
        pool of this size (0, the default, keeps the serial reference
        path).  Three per-step sections fan out, each joining before
        the next phase: per-family signature collection (disjoint
        monitor families), per-group ``classify_matrix`` passes (pure
        snapshot classification; the shared-repository lookups stay
        serial in group order), and per-observer ``fill_rows`` blocks
        (disjoint observers writing disjoint columns).  Results are
        bit-identical to serial stepping (pinned in
        ``tests/test_fleet_equivalence.py``): every parallel unit
        touches only its own state and outputs land in submission
        order.
    """

    def __init__(
        self,
        lanes: list[FleetLane],
        step_seconds: float = 60.0,
        label: str = "fleet",
        profiling_queue: ProfilingQueue | None = None,
        host_map: HostMap | None = None,
        batched: bool = True,
        wave_workers: int = 0,
    ) -> None:
        if not lanes:
            raise ValueError("a fleet needs at least one lane")
        if step_seconds <= 0:
            raise ValueError(f"step must be positive, got {step_seconds}")
        if wave_workers < 0:
            raise ValueError(f"wave_workers must be >= 0: {wave_workers}")
        if host_map is not None and host_map.n_lanes != len(lanes):
            raise ValueError(
                f"host map places {host_map.n_lanes} lanes but the fleet "
                f"has {len(lanes)}"
            )
        self._lanes = list(lanes)
        self._step = float(step_seconds)
        self._label = label
        self.profiling_queue = profiling_queue
        self.host_map = host_map
        self.batched = bool(batched)
        self.wave_workers = int(wave_workers)
        self._wave_pool = None
        # Every controller is handed the shared profiler directly, so
        # every profiling burst is charged with feedback.
        self.controllers: list[Controller] = [
            lane.controller for lane in self._lanes
        ]
        if profiling_queue is not None:
            for lane in self._lanes:
                if not hasattr(lane.controller, "attach_profiling_queue"):
                    raise ValueError(
                        f"lane {lane.label!r}: a profiling_queue needs a "
                        "controller with attach_profiling_queue"
                    )
            for controller in self.controllers:
                controller.attach_profiling_queue(profiling_queue)
        # Lanes whose controller implements the batched-adaptation
        # contract (structurally a DejaVuManager): every method the
        # wave calls must be present, or the lane stays on the scalar
        # on_step path.  Whether a candidate actually batches is
        # re-checked each step (training status and adapt_on_violation
        # can change).
        self._batch_candidates: tuple[int, ...] = tuple(
            i
            for i, controller in enumerate(self.controllers)
            if self.batched
            and all(
                hasattr(controller, name) for name in _BATCH_ADAPT_PROTOCOL
            )
        )
        # (index, controller) pairs, pre-zipped, in lane order.
        self._batch_pairs: tuple = tuple(
            (i, self.controllers[i]) for i in self._batch_candidates
        )
        # One wake time per candidate (batched_wake_at): the wave visits
        # only candidates whose wake time has come, so a quiet lane
        # costs nothing between its periodic checks.  Reset to -inf
        # (visit everyone) at the start of every run.
        self._wake = np.full(len(self._batch_candidates), -math.inf)
        # Lanes that never batch: their on_step runs every step.
        candidates = set(self._batch_candidates)
        self._scalar_lanes: tuple[int, ...] = tuple(
            i for i in range(len(self._lanes)) if i not in candidates
        )
        # lane index -> the controller's profiling monitor (fixed at
        # construction, like the candidate set itself); None when a
        # protocol-compliant controller carries no profiler, in which
        # case the wave raises a clear error if that lane ever gates.
        self._batch_monitors: dict[int, object] = {
            i: getattr(
                getattr(self.controllers[i], "profiler", None), "monitor", None
            )
            for i in self._batch_candidates
        }
        # Lanes replaying a LoadTrace re-evaluate their workload only on
        # the first step of each trace hour; every other workload
        # source runs every step.  The offered volume and demand
        # vectors follow the re-evaluated lanes.  (A local import:
        # repro.workloads.traces imports the repro.sim package.)
        from repro.workloads.traces import LoadTrace

        self._all_lanes: tuple[int, ...] = tuple(range(len(self._lanes)))
        self._per_step_lanes: tuple[int, ...] = tuple(
            i
            for i, lane in enumerate(self._lanes)
            if not isinstance(lane.workload_fn, LoadTrace)
        )
        self._volumes = np.zeros(len(self._lanes))
        self._offered = np.zeros(len(self._lanes))
        # Distinct batch observers in first-appearance order, each with
        # the lane indices it covers.
        self._observer_lanes: list[tuple[BatchObserver, list[int]]] = []
        if self.batched:
            seen: dict[int, int] = {}
            for i, lane in enumerate(self._lanes):
                observer = lane.observe_batch
                if observer is None:
                    continue
                index = seen.get(id(observer))
                if index is None:
                    seen[id(observer)] = len(self._observer_lanes)
                    self._observer_lanes.append((observer, [i]))
                else:
                    self._observer_lanes[index][1].append(i)
        self._dict_lanes: tuple[int, ...] = tuple(
            i
            for i, lane in enumerate(self._lanes)
            if not (self.batched and lane.observe_batch is not None)
        )
        # Per-lane deployed capacity for the host footprints, behind a
        # dirty-flag cache: the per-step refresh touches only lanes
        # that changed allocation or are still inside a warm-up
        # window.  Lanes whose controller exposes no provider read as
        # unbounded (their footprint is the offered demand).
        self._capacities = (
            CapacityCache(
                getattr(
                    getattr(lane.controller, "production", None),
                    "provider",
                    None,
                )
                for lane in self._lanes
            )
            if self.host_map is not None
            else None
        )

    def _lane_capacities(self, t: float) -> np.ndarray:
        """Every lane's deployed capacity at ``t`` (host-coupled fleets)."""
        self._capacities.refresh(t)
        return self._capacities.values

    @property
    def n_lanes(self) -> int:
        return len(self._lanes)

    @staticmethod
    def _schema_error(
        lane: FleetLane, observation: dict[str, float], names: tuple[str, ...]
    ) -> ValueError:
        missing = sorted(set(names) - set(observation))
        extra = sorted(set(observation) - set(names))
        return ValueError(
            f"lane {lane.label!r} observation does not match the schema its "
            f"first observation fixed: missing {missing}, unexpected {extra}"
        )

    def _build_groups(
        self, first_observations: list[dict[str, float]]
    ) -> tuple[list[_SchemaGroup], list[tuple[int, int]]]:
        """Fix every lane's schema from its first observation.

        Lanes whose observations carry the same name *set* share a
        group (key order follows the group's first lane); each lane is
        assigned a (group, column) slot for the rest of the run.
        """
        groups: list[_SchemaGroup] = []
        by_key: dict[frozenset[str], int] = {}
        slots: list[tuple[int, int]] = []
        for i, observation in enumerate(first_observations):
            key = frozenset(observation)
            index = by_key.get(key)
            if index is None:
                index = len(groups)
                by_key[key] = index
                groups.append(_SchemaGroup(tuple(observation)))
            group = groups[index]
            slots.append((index, len(group.lanes)))
            group.lanes.append(i)
        for group in groups:
            group.allocate()
        return groups, slots

    def _fill_row(
        self,
        group: _SchemaGroup,
        column: int,
        lane: FleetLane,
        observation: dict[str, float],
    ) -> None:
        if len(observation) != len(group.names):
            raise self._schema_error(lane, observation, group.names)
        try:
            for j, name in enumerate(group.names):
                group.row[j, column] = observation[name]
        except KeyError:
            raise self._schema_error(lane, observation, group.names) from None

    @staticmethod
    def _assemble_matrices(
        groups: list[_SchemaGroup],
    ) -> tuple[dict[str, np.ndarray], dict[str, tuple[int, ...]]]:
        """Merge per-group blocks into per-series matrices.

        A series recorded by a single group keeps its buffer array
        as-is (zero copy; group lanes are already in ascending order).
        A series shared by several schemas — latency in a mixed
        scale-out/scale-up fleet, say — is column-merged so its matrix
        columns follow global lane order.
        """
        owners: dict[str, list[_SchemaGroup]] = {}
        for group in groups:
            for name in group.names:
                owners.setdefault(name, []).append(group)
        matrices: dict[str, np.ndarray] = {}
        series_lanes: dict[str, tuple[int, ...]] = {}
        for name, owning in owners.items():
            if len(owning) == 1:
                group = owning[0]
                matrices[name] = group.buffers[name].array
                series_lanes[name] = tuple(group.lanes)
                continue
            columns = [
                (lane, group.buffers[name].array[:, col])
                for group in owning
                for col, lane in enumerate(group.lanes)
            ]
            columns.sort(key=lambda pair: pair[0])
            series_lanes[name] = tuple(lane for lane, _ in columns)
            matrices[name] = np.column_stack([values for _, values in columns])
        return matrices, series_lanes

    # -- batched control plane -----------------------------------------

    def _wave_map(self, thunks: list) -> list:
        """Run independent wave thunks; results in submission order.

        Serial (the reference path) when no wave pool is live or there
        is nothing to overlap; otherwise submit-all + join, which
        preserves output order regardless of completion order — the
        per-step barrier the overlapped waves synchronize on.
        """
        if self._wave_pool is None or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        futures = [self._wave_pool.submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]

    def _batched_adapt_wave(
        self, t: float, hour: int, day: int, workloads: list[Workload]
    ):
        """Run this step's due periodic adaptations as batched waves.

        Phase order preserves per-lane scalar semantics exactly:
        *prepare* gates lanes (queue charge) in global lane order and
        then collects all gated signatures batched by monitor family —
        one vectorized ``Monitor.collect_matrix`` pass per family under
        counter-mode streams, a per-lane loop consuming each lane's own
        generator under legacy streams — then each shared-model group
        classifies its stacked signature matrix and resolves band-0
        entries in one batched repository lookup, then *finish*
        (deploy, escalate, record) walks lanes in global lane order
        again.  Lanes are independent across those phases
        except through the queue and the shared repository, both of
        which see the same per-lane sequence the scalar path produces.

        Only candidates whose wake time (``batched_wake_at``) has come
        are visited, in lane order; the rest have nothing to do this
        step.  A visited batchable lane is either due (adapted, or
        deferred by queue rejection and retried next step, exactly like
        a scalar rejected adaptation) or idle, and the idle lanes'
        per-step duties (landing a queue-delayed deployment, swapping
        in a relearn-staged model, routine re-signatures) run in the
        landing pass (:meth:`_land_deployments`) before the due lanes
        gate.  Every visited lane's wake time is then re-read.

        Returns the lanes whose ``on_step`` the engine must still run
        this step, in lane order: the lanes that never batch plus any
        visited candidate that cannot batch right now.
        """
        wake = self._wake
        visit = np.flatnonzero(t + 1e-9 >= wake).tolist()
        pairs = self._batch_pairs
        unbatched: list[int] = []
        due: list[tuple[int, StepContext]] = []
        idle = []
        for k in visit:
            i, controller = pairs[k]
            if not controller.supports_batched_adapt:
                unbatched.append(i)
            elif controller.adaptation_due(t):
                due.append(
                    (
                        i,
                        StepContext(
                            t=t, workload=workloads[i], hour=hour, day=day
                        ),
                    )
                )
            else:
                idle.append(controller)
        if idle:
            self._land_deployments(t, idle)
        if due:
            self._adapt_due(due)
        for k in visit:
            wake[k] = pairs[k][1].batched_wake_at()
        if unbatched:
            return sorted(self._scalar_lanes + tuple(unbatched))
        return self._scalar_lanes

    def _land_deployments(self, t: float, idle: list) -> None:
        """The landing pass: the per-step duties of the visited lanes
        that are not due an adaptation, in lane order.

        Every lane whose queue-delayed deployment is due and whose
        grant is accepted and unrevised is deployed first
        (``land_pending_deployment``; no queue traffic).  The landed
        decisions' post-deploy SLO checks then run as one vectorized
        pre-check (``post_deploy_slo_met``, one vector per service
        family).  Last, lane by lane: a landed lane that failed the
        pre-check runs the scalar check (probes, escalation) and every
        landed lane its re-signature (``finish_landing``), while any
        other idle lane — a revoked, evicted or revised grant, a
        staged model, a decision not yet due, a re-signature owed —
        runs ``poll_pending_deployment``.  So the queue sees the same
        request sequence as one poll per idle lane: deploying and
        pre-checking charge nothing and touch only their own lane.
        """
        landed = [controller.land_pending_deployment(t) for controller in idle]
        checks = [
            k
            for k, decision in enumerate(landed)
            if decision is not None and decision.owes_check
        ]
        failed = [False] * len(idle)
        if checks:
            met = idle[checks[0]].post_deploy_slo_met(
                t, [(idle[k], landed[k]) for k in checks]
            )
            for k, ok in zip(checks, met):
                failed[k] = not ok
        for controller, decision, fail in zip(idle, landed, failed):
            if decision is None:
                controller.poll_pending_deployment(t)
            else:
                controller.finish_landing(t, decision if fail else None)

    def _adapt_due(self, due: list[tuple[int, StepContext]]) -> None:
        """Gate, collect, classify and finish this step's due lanes."""
        # Phase 1a — gate every due lane in lane order: the queue sees
        # the same per-lane request sequence the scalar path produces.
        gated = [
            (i, ctx)
            for i, ctx in due
            if self.controllers[i].begin_batched_adapt(ctx)
        ]
        if gated:
            # Phase 1b — collect all gated lanes' signatures, batched
            # per compatible monitor family (one vectorized
            # collect_matrix pass under counter-mode streams).
            rows = self._collect_wave_signatures(gated)
            by_key: dict = {}
            for (i, _ctx), row in zip(gated, rows):
                key = self.controllers[i].batch_group_key()
                by_key.setdefault(key, []).append((i, row))
            # Classification is a pure snapshot pass per shared-model
            # group, so groups may overlap (wave_workers); repository
            # lookups mutate shared stats and stay serial, resolved in
            # group insertion order either way.
            group_list = list(by_key.values())
            results = self._wave_map(
                [
                    functools.partial(self._classify_matrix, members)
                    for members in group_list
                ]
            )
            finish: dict[int, tuple] = {}
            for members, result in zip(group_list, results):
                self._resolve_group(members, result, finish)
            for i, ctx in gated:
                label, certainty, entry = finish[i]
                self.controllers[i].complete_batched_adapt(
                    ctx, label, certainty, entry
                )

    def _collect_wave_signatures(
        self, gated: list[tuple[int, StepContext]]
    ) -> list[np.ndarray]:
        """Signature rows for every gated lane, in ``gated`` order.

        Lanes whose monitors share a
        :meth:`~repro.telemetry.monitor.Monitor.batch_key` are collected
        as one matrix; counter-mode groups draw all their noise in a
        single vectorized pass, while legacy groups loop per lane inside
        ``collect_matrix`` (each consuming its own sampler generator
        exactly as the scalar path would).
        """
        monitors = []
        for i, _ctx in gated:
            monitor = self._batch_monitors[i]
            if monitor is None:
                raise ValueError(
                    f"lane {self._lanes[i].label!r} batch-adapts but its "
                    "controller has no profiler.monitor to collect with"
                )
            monitors.append(monitor)
        groups: dict[tuple, list[int]] = {}
        for position, monitor in enumerate(monitors):
            groups.setdefault(monitor.batch_key(), []).append(position)
        rows: list[np.ndarray | None] = [None] * len(gated)

        def collect_family(positions: list[int]) -> None:
            # One monitor family: disjoint monitors, disjoint output
            # slots — families may overlap under wave_workers.
            group_monitors = [monitors[p] for p in positions]
            matrix = group_monitors[0].collect_matrix(
                [gated[p][1].workload for p in positions],
                monitors=group_monitors,
            )
            for r, p in enumerate(positions):
                rows[p] = self.controllers[gated[p][0]].signature_row(matrix[r])

        self._wave_map(
            [
                functools.partial(collect_family, positions)
                for positions in groups.values()
            ]
        )
        return rows

    def _classify_matrix(self, members: list[tuple[int, np.ndarray]]):
        """One shared-model group's stacked classification pass.

        Pure with respect to shared state (the classifier snapshots its
        trained model), so groups can run concurrently; each group's
        leader controller belongs to exactly that group, keeping the
        lazily-built batch classifier single-threaded.
        """
        leader = self.controllers[members[0][0]]
        batch = leader.batch_classifier()
        X = np.vstack([row for _i, row in members])
        return batch.classify_matrix(X)

    def _resolve_group(
        self,
        members: list[tuple[int, np.ndarray]],
        result,
        finish: dict[int, tuple],
    ) -> None:
        """Prefetch band-0 entries for the group's certain lanes.

        Serial: ``lookup_batch`` accumulates repository statistics, and
        repositories may be shared across groups.
        """
        leader = self.controllers[members[0][0]]
        hits = [
            j
            for j, (i, _row) in enumerate(members)
            if float(result.certainties[j])
            >= self.controllers[i].config.certainty_threshold
        ]
        entries = leader.repository.lookup_batch(
            [int(result.labels[j]) for j in hits], 0
        )
        entry_for = dict(zip(hits, entries))
        for j, (i, _row) in enumerate(members):
            finish[i] = (
                int(result.labels[j]),
                float(result.certainties[j]),
                entry_for.get(j),
            )

    def _fix_schemas(
        self,
        t: float,
        hour: int,
        day: int,
        workloads: list[Workload],
        contexts: dict[int, StepContext],
    ) -> tuple[list[_SchemaGroup], list[tuple[int, int]], list[tuple]]:
        """Fix every lane's schema from its first observation and record it.

        Batch-observed lanes synthesize the dict from their observer and
        are cross-checked once against their own ``observe_fn``: a
        mispaired observer would otherwise silently record another
        lane's series.  Returns the groups, the lanes' (group, column)
        slots and the observer batches bound onto the groups' rows.
        """
        observed: dict[int, dict[str, float]] = {}
        for observer, lane_indices in self._observer_lanes:
            names = tuple(observer.names)
            block = np.empty((len(names), len(lane_indices)), dtype=float)
            observer.fill_rows(
                t,
                self._volumes[lane_indices],
                self._offered[lane_indices],
                block,
            )
            for column, i in enumerate(lane_indices):
                observed[i] = dict(zip(names, block[:, column].tolist()))
        first_observations: list[dict[str, float]] = []
        for i, lane in enumerate(self._lanes):
            ctx = contexts.get(i) or StepContext(
                t=t, workload=workloads[i], hour=hour, day=day
            )
            expected = lane.observe_fn(ctx)
            observation = observed.get(i, expected)
            if observation != expected:
                diverging = sorted(
                    name
                    for name in expected
                    if observation.get(name) != expected[name]
                )
                raise ValueError(
                    f"lane {lane.label!r}: batch observer disagrees with "
                    f"observe_fn on the first step (series {diverging}); "
                    "check the lane order the observer was built with"
                )
            first_observations.append(observation)
        groups, slots = self._build_groups(first_observations)
        for i, observation in enumerate(first_observations):
            index, column = slots[i]
            self._fill_row(groups[index], column, self._lanes[i], observation)
        return groups, slots, self._bind_observer_batches(groups, slots)

    def _bind_observer_batches(
        self, groups: list[_SchemaGroup], slots: list[tuple[int, int]]
    ) -> list[tuple]:
        """Resolve each batch observer onto its schema group's row.

        An observer covering exactly one whole group, in group order and
        with matching series order, writes straight into the group's
        recording row (zero copy) — the homogeneous-family case.  Any
        other shape goes through a scratch block scattered into the
        group columns.
        """
        batches: list[tuple] = []
        for observer, lane_indices in self._observer_lanes:
            names = tuple(observer.names)
            expected = getattr(observer, "n_lanes", None)
            if expected is not None and expected != len(lane_indices):
                raise ValueError(
                    f"batch observer covers {expected} lanes but "
                    f"{len(lane_indices)} fleet lanes carry it"
                )
            # Positional-pairing guard: when both sides expose their
            # provider, the observer's j-th lane must be the j-th fleet
            # lane carrying it — otherwise one lane's demand would be
            # graded against another lane's capacity.
            providers = getattr(observer, "providers", None)
            if providers is not None:
                for position, i in enumerate(lane_indices):
                    production = getattr(
                        self._lanes[i].controller, "production", None
                    )
                    provider = getattr(production, "provider", None)
                    if provider is not None and provider is not providers[position]:
                        raise ValueError(
                            f"lane {self._lanes[i].label!r} is the batch "
                            f"observer's lane #{position}, but its "
                            "controller provisions a different provider; "
                            "build the observer in fleet lane order"
                        )
            group_indices = {slots[i][0] for i in lane_indices}
            if len(group_indices) != 1:
                raise ValueError(
                    "a batch observer must cover lanes of one schema "
                    f"group; got groups {sorted(group_indices)}"
                )
            group = groups[group_indices.pop()]
            if set(names) != set(group.names):
                raise self._schema_error(
                    self._lanes[lane_indices[0]],
                    dict.fromkeys(names, 0.0),
                    group.names,
                )
            columns = [slots[i][1] for i in lane_indices]
            perm = (
                None
                if names == group.names
                else np.array([names.index(n) for n in group.names])
            )
            whole_group = (
                perm is None
                and columns == list(range(len(group.lanes)))
            )
            lanes = np.asarray(lane_indices, dtype=int)
            if whole_group:
                batches.append((observer, lanes, group.row, None))
            else:
                scratch = np.empty((len(names), len(columns)), dtype=float)
                scatter = (group.row, np.asarray(columns, dtype=int), perm)
                batches.append((observer, lanes, scratch, scatter))
        return batches

    def run(self, duration_seconds: float, start: float = 0.0) -> FleetResult:
        """Run all lanes to ``start + duration_seconds`` and return the result."""
        if duration_seconds <= 0:
            raise ValueError(f"duration must be positive, got {duration_seconds}")
        self._wake.fill(-math.inf)
        pool = (
            ThreadPoolExecutor(
                max_workers=self.wave_workers,
                thread_name_prefix=f"{self._label}-wave",
            )
            if self.wave_workers > 0 and self.batched
            else None
        )
        self._wave_pool = pool
        try:
            return self._run_loop(SimClock(start), start + duration_seconds)
        finally:
            self._wave_pool = None
            if pool is not None:
                pool.shutdown(wait=True)

    def _step_controllers(
        self, lanes, t: float, hour: int, day: int, workloads: list[Workload]
    ) -> dict[int, StepContext]:
        """Run ``on_step`` for ``lanes`` in order; returns their contexts."""
        contexts: dict[int, StepContext] = {}
        for i in lanes:
            ctx = contexts[i] = StepContext(
                t=t, workload=workloads[i], hour=hour, day=day
            )
            self.controllers[i].on_step(ctx)
        return contexts

    def _refresh_workloads(
        self, t: float, lanes: tuple[int, ...], workloads: list
    ) -> None:
        """Re-evaluate ``lanes``' workloads at ``t``, and their entries
        of the offered-volume and offered-demand vectors."""
        volumes, offered = self._volumes, self._offered
        for i in lanes:
            workload = workloads[i] = self._lanes[i].workload_fn(t)
            volumes[i] = workload.volume
            offered[i] = workload.demand_units

    def _observe_batch(self, t: float, entry: tuple) -> None:
        """One batch observer's ``fill_rows`` into its group's row."""
        observer, lanes, target, scatter = entry
        observer.fill_rows(
            t, self._volumes[lanes], self._offered[lanes], target
        )
        if scatter is not None:
            row, columns, perm = scatter
            row[:, columns] = target if perm is None else target[perm]

    def _run_loop(self, clock: SimClock, end: float) -> FleetResult:
        """Step every lane to ``end``, one sequence per step: workload
        refresh, host pass, queue ``advance_to``, adapt wave, the
        remaining ``on_step`` calls, then observation (batch observers,
        then dict lanes)."""
        groups: list[_SchemaGroup] = []
        slots: list[tuple[int, int]] = []
        observer_batches: list[tuple] = []
        times: list[float] = []
        workloads: list = [None] * len(self._lanes)
        trace_hour = None
        while clock.now < end:
            t, hour, day = clock.now, clock.hour, clock.day
            # The clock's hour is the trace's own int(t // HOUR): trace
            # lanes need a new workload exactly when it changes.
            self._refresh_workloads(
                t,
                self._per_step_lanes if hour == trace_hour else self._all_lanes,
                workloads,
            )
            trace_hour = hour
            if self.host_map is not None:
                # Host pressure is recomputed before controllers act, so
                # adaptations this step already see the co-tenant theft;
                # each lane's deployed capacity comes from its
                # provider's cached plan (math.inf for provider-less
                # lanes).
                self.host_map.apply_step(
                    t, self._offered, capacities=self._lane_capacities(t)
                )
            if self.profiling_queue is not None:
                # Profiler-outage windows commit here, before any
                # controller can observe or charge the queue this step.
                self.profiling_queue.advance_to(t)
            to_step = (
                self._batched_adapt_wave(t, hour, day, workloads)
                if self._batch_candidates
                else self._scalar_lanes
            )
            contexts = self._step_controllers(to_step, t, hour, day, workloads)
            if not times:
                groups, slots, observer_batches = self._fix_schemas(
                    t, hour, day, workloads, contexts
                )
            else:
                # Observers are disjoint (distinct objects, distinct
                # lane columns), so their fill_rows blocks may overlap
                # under wave_workers.
                self._wave_map(
                    [
                        functools.partial(self._observe_batch, t, entry)
                        for entry in observer_batches
                    ]
                )
                for i in self._dict_lanes:
                    ctx = contexts.get(i) or StepContext(
                        t=t, workload=workloads[i], hour=hour, day=day
                    )
                    index, column = slots[i]
                    self._fill_row(
                        groups[index], column, self._lanes[i],
                        self._lanes[i].observe_fn(ctx),
                    )
            for group in groups:
                for j, name in enumerate(group.names):
                    group.buffers[name].append(group.row[j])
            times.append(t)
            clock.advance(self._step)
        # Fast-path observers read capacity without settling billing;
        # give each one a final settlement at the last step time so
        # cost meters match the dict path's per-step settlement.
        if times:
            for observer, _lanes in self._observer_lanes:
                finalize = getattr(observer, "finalize", None)
                if finalize is not None:
                    finalize(times[-1])
        matrices, series_lanes = self._assemble_matrices(groups)
        return FleetResult(
            label=self._label,
            lane_labels=tuple(lane.label for lane in self._lanes),
            times=np.asarray(times, dtype=float),
            matrices=matrices,
            schemas=tuple(group.names for group in groups),
            lane_schemas=tuple(index for index, _column in slots),
            series_lanes=series_lanes,
        )

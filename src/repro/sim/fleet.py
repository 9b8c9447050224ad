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
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from repro.cloud.provider import CapacityCache
from repro.services.base import slo_met_rows
from repro.sim.clock import SimClock
from repro.sim.engine import Controller, StepContext
from repro.sim.hosts import HostMap, feed_gather
# A runtime import, not a TYPE_CHECKING one: perfbench's trace hooks
# patch the queue's methods through ``repro.sim.fleet.ProfilingQueue``.
from repro.sim.profiling_queue import ProfilingQueue
from repro.sim.result import SimulationResult, TimeSeries
from repro.workloads.request_mix import Workload
from repro.workloads.traces import LoadTrace


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


#: Version of the ``.npz`` layout :meth:`FleetResult.to_npz` writes.
NPZ_FORMAT_VERSION = 1


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
        way and merges the files in the parent process; sweeps too large
        for one process can archive per-shard blocks the same way.  The
        matrices are stored as raw numpy blocks (one array per series,
        indexed to dodge series-name/file-key collisions); everything
        non-numeric travels in a JSON header.  Empty (zero-step) and
        single-step results round-trip exactly — the shard-merge edge
        cases.
        """
        series = list(self.matrices)
        meta = {
            "version": NPZ_FORMAT_VERSION,
            "label": self.label,
            "lane_labels": list(self.lane_labels),
            "schemas": [list(schema) for schema in self.schemas],
            "lane_schemas": list(self.lane_schemas),
            "series": series,
            "series_lanes": {
                name: list(self.series_lanes[name]) for name in series
            },
        }
        arrays: dict[str, np.ndarray] = {
            "meta_json": np.array(json.dumps(meta)),
            "times": np.asarray(self.times, dtype=float),
        }
        for index, name in enumerate(series):
            arrays[f"matrix_{index}"] = np.asarray(
                self.matrices[name], dtype=float
            )
        # Through a file handle: np.savez given a *name* appends ".npz",
        # which would break round-tripping suffix-less paths.
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

    @staticmethod
    def from_npz(path: "str | Path") -> "FleetResult":
        """Load a result persisted by :meth:`to_npz`."""
        with np.load(str(path)) as data:
            meta = json.loads(data["meta_json"].item())
            version = meta.get("version")
            if version != NPZ_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported fleet-result version {version!r}; "
                    f"expected {NPZ_FORMAT_VERSION}"
                )
            times = np.asarray(data["times"], dtype=float)
            matrices = {
                name: np.asarray(data[f"matrix_{index}"], dtype=float)
                for index, name in enumerate(meta["series"])
            }
        return FleetResult(
            label=meta["label"],
            lane_labels=tuple(meta["lane_labels"]),
            times=times,
            matrices=matrices,
            schemas=tuple(tuple(schema) for schema in meta["schemas"]),
            lane_schemas=tuple(int(i) for i in meta["lane_schemas"]),
            series_lanes={
                name: tuple(int(lane) for lane in lanes)
                for name, lanes in meta["series_lanes"].items()
            },
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

#: Everything the batched adaptation wave calls on a controller, and
#: the state its lane table reads (structurally a
#: :class:`~repro.core.manager.DejaVuManager`).  A controller offering
#: only part of the surface is not a batch candidate and keeps the
#: scalar ``on_step`` path instead of crashing mid-wave.
_BATCH_ADAPT_PROTOCOL = (
    "begin_batched_adapt",
    "signature_columns",
    "batch_group_key",
    "batch_classifier",
    "complete_batched_adapt",
    "at_once_deployment",
    "mark_deployed",
    "poll_pending_deployment",
    "finish_landing",
    "_next_check",
    "_next_resignature",
    "pending_deployment",
    "_staged_model",
    "model",
    "repository",
    "config",
    "estimator",
    "production",
)


class _LaneTable:
    """The batched wave's per-lane state: one row per batch candidate,
    in lane order, as a struct of arrays.

    State columns mirror each lane's manager: ``next_check``
    (``_next_check``), ``next_resignature`` (``_next_resignature``) and
    ``apply_at`` (the pending deployment's; ``inf`` when none is
    pending) are float64 arrays; ``pending_ok`` (no re-learned model is
    staged, and the pending decision's grant, if any, is accepted and
    unrevised) is a mask; ``grants`` holds each pending decision's
    grant.

    Per-row constants, read when a run starts (training and the
    configuration change only between runs): the ``batchable`` mask
    (trained and not ``adapt_on_violation``: the wave drives the lane,
    not its ``on_step``), ``productions`` (each lane's production
    environment), ``family`` (one id per service
    :meth:`~repro.services.base.Service.row_key` and settle delay:
    rows whose post-deploy checks grade as one vector),
    ``settle`` (the settle delay), ``multi_band`` (``n_bands >= 2``: a
    post-deploy check can escalate), ``threshold`` (the certainty
    threshold), ``monitor_group`` (one id per
    :meth:`~repro.telemetry.monitor.Monitor.batch_key`; -1 without a
    monitor) and ``feeds`` (:func:`~repro.sim.hosts.feed_gather` over
    the rows' injectors: how :meth:`thefts` reads interference).  ``model_group`` (one id per ``batch_group_key``) is
    re-derived whenever a lane's model or repository object changes:
    a manager replaces the model object whenever it learns, adopts,
    restores or swaps in a staged one.

    Only a manager's own methods change the state a row mirrors, and
    the engine calls them only on lanes it visits, so a row is re-read
    (:meth:`reread`) after every visit that may have changed it; a
    landing is written in place (:meth:`landed`).  A run starts by
    re-reading every row (:meth:`reset`): callers may change any lane
    between runs.  The queue alone changes a grant behind its lane's
    back (a revision or eviction on the priority market, a revocation
    when an outage opens); a lane whose grant it can still touch is
    visited every step (``grants_stable_until``), and the landing pass
    re-checks the grant of every lane it lands (:meth:`landable`).
    """

    __slots__ = (
        "controllers",
        "lanes",
        "monitors",
        "next_check",
        "next_resignature",
        "apply_at",
        "batchable",
        "pending_ok",
        "grants",
        "productions",
        "feeds",
        "family",
        "settle",
        "multi_band",
        "threshold",
        "monitor_group",
        "model_group",
        "_models",
        "_model_ids",
    )

    def __init__(self, controllers: list, lanes: list[int]) -> None:
        n = len(controllers)
        self.controllers = controllers
        self.lanes = lanes
        # The profiling monitor each lane collects signatures with
        # (None when a protocol-compliant controller carries no
        # profiler; the wave raises if such a lane ever gates).
        self.monitors = [
            getattr(getattr(c, "profiler", None), "monitor", None)
            for c in controllers
        ]
        self.next_check = np.empty(n)
        self.next_resignature = np.empty(n)
        self.apply_at = np.empty(n)
        self.batchable = np.zeros(n, dtype=bool)
        self.pending_ok = np.zeros(n, dtype=bool)
        self.grants: list = [None] * n
        self.productions: list = [None] * n
        self.feeds = None
        self.family: list[int] = [0] * n
        self.settle: list[float] = [0.0] * n
        self.multi_band: list[bool] = [False] * n
        self.threshold = np.empty(n)
        self.monitor_group: list[int] = [-1] * n
        self.model_group: list[int] = [-1] * n
        self._models: list = [None] * n
        self._model_ids: dict = {}

    def reset(self) -> None:
        """Re-read every row: constants and state."""
        controllers = self.controllers
        families: dict = {}
        monitor_ids: dict = {}
        productions = self.productions = [c.production for c in controllers]
        self.feeds = feed_gather([p.injector for p in productions])
        for k, controller in enumerate(controllers):
            config = controller.config
            self.settle[k] = config.settle_delay_seconds
            self.family[k] = families.setdefault(
                (productions[k].service.row_key(), self.settle[k]),
                len(families),
            )
            self.multi_band[k] = controller.estimator.n_bands >= 2
            self.threshold[k] = config.certainty_threshold
            monitor = self.monitors[k]
            self.monitor_group[k] = (
                -1
                if monitor is None
                else monitor_ids.setdefault(monitor.batch_key(), len(monitor_ids))
            )
        self.batchable[:] = [
            c.model is not None and not c.config.adapt_on_violation
            for c in controllers
        ]
        self._models = [None] * len(controllers)
        self._model_ids = {}
        self.reread(list(range(len(controllers))))

    def reread(self, rows: list[int]) -> None:
        """Re-read ``rows``' state from their managers."""
        if not rows:
            return
        index = np.array(rows)
        controllers = [self.controllers[k] for k in rows]
        self.next_check[index] = [c._next_check for c in controllers]
        self.next_resignature[index] = [
            c._next_resignature for c in controllers
        ]
        pendings = [c.pending_deployment for c in controllers]
        self.apply_at[index] = [
            math.inf if p is None else p.apply_at for p in pendings
        ]
        grants = [None if p is None else p.grant for p in pendings]
        for k, grant in zip(rows, grants):
            self.grants[k] = grant
        self.pending_ok[index] = [
            c._staged_model is None
            and (g is None or (g.outcome == "accepted" and not g.revised))
            for c, g in zip(controllers, grants)
        ]

    def landed(self, rows: list[int]) -> None:
        """Record that ``rows`` deployed their pending decisions."""
        if rows:
            self.apply_at[rows] = math.inf
            self.pending_ok[rows] = True
            for k in rows:
                self.grants[k] = None

    def wake(self, stable: float) -> np.ndarray:
        """Each row's wake time: the earliest step time the wave must
        visit it.

        Between visits nothing can change for a row: no periodic check
        is due and no re-signature is owed.  A pending deployment on an
        accepted, unrevised grant lands at its ``apply_at`` unless the
        queue changes the grant first, so the row also wakes at
        ``stable``, the queue's ``grants_stable_until`` (the next
        profiler outage on a FIFO queue; ``-inf`` on the priority
        market, whose projections move on any step).  A row that
        cannot batch (its ``on_step`` must run), whose grant was
        revoked (a retry is in progress), evicted or revised, or whose
        re-learned model is staged wakes at ``-inf``: every step.
        """
        apply_at = self.apply_at
        wake = np.minimum(
            np.minimum(self.next_check, self.next_resignature), apply_at
        )
        if stable < math.inf:
            wake = np.where(apply_at < math.inf, np.minimum(wake, stable), wake)
        return np.where(self.batchable & self.pending_ok, wake, -math.inf)

    def visit(
        self, t: float, stable: float
    ) -> tuple[list[int], list[int], list[int]]:
        """The rows the wave visits at ``t`` (those whose :meth:`wake`
        time has come): ``(due, idle, masked)``.

        Visited batchable rows are *due* a periodic adaptation or
        *idle*; *masked* rows (not batchable) run ``on_step``.  Times
        compare with the ``1e-9`` tolerance of the managers' own
        schedule.
        """
        now = t + 1e-9
        rows = np.flatnonzero(now >= self.wake(stable))
        if not rows.size:
            return [], [], []
        batch = self.batchable[rows]
        due = batch & (now >= self.next_check[rows])
        return (
            rows[due].tolist(),
            rows[batch ^ due].tolist(),
            rows[~batch].tolist(),
        )

    def landable(self, t: float, rows: list[int]) -> list[int]:
        """The ``rows`` whose pending decision lands at ``t``: due, no
        re-learned model staged, and the grant (re-checked now: the
        queue may have changed it since the row was read) absent or
        accepted and unrevised."""
        now = t + 1e-9
        apply_at = self.apply_at[rows].tolist()
        ok = self.pending_ok[rows].tolist()
        grants = self.grants
        return [
            k
            for k, at, fine in zip(rows, apply_at, ok)
            if fine
            and now >= at
            and (
                (grant := grants[k]) is None
                or (grant.outcome == "accepted" and not grant.revised)
            )
        ]

    def thefts(self, rows: list[int], t: float) -> np.ndarray:
        """``rows``' interference (capacity theft) at ``t``:
        ``production.interference_at``, read as one gather when every
        injector is a host feed on one theft vector (a host-coupled
        fleet, whose theft is fixed for the step) or there is none."""
        feeds = self.feeds
        if feeds is None:
            productions = self.productions
            return np.array([productions[k].interference_at(t) for k in rows])
        values, lanes, slots = feeds
        theft = np.zeros(len(self.productions))
        theft[lanes] = values[slots]
        return theft[rows]

    def model_groups(self, rows: list[int]) -> list[int]:
        """Each row's shared-model group id (equal ids: equal
        ``batch_group_key``), re-derived where the lane's model or
        repository object changed since it was last read."""
        controllers = self.controllers
        models = self._models
        groups = self.model_group
        for k in rows:
            controller = controllers[k]
            model = models[k]
            if (
                model is None
                or controller.model is not model[0]
                or controller.repository is not model[1]
            ):
                models[k] = (controller.model, controller.repository)
                groups[k] = self._model_ids.setdefault(
                    controller.batch_group_key(), len(self._model_ids)
                )
        return [groups[k] for k in rows]


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
        do.  The batch candidates' state lives in one struct-of-arrays
        lane table (:class:`_LaneTable`: next check, next
        re-signature, pending ``apply_at``, batchable and pending-grant
        masks, per-row family and signature-group ids), and the wave
        picks the lanes to visit, adapt, land and step through
        ``on_step`` with mask operations over it: a lane sleeps
        between its periodic checks, and a lane whose FIFO-queued
        deployment no outage can touch sleeps until that deployment
        lands.  Visited lanes that are not due an adaptation go
        through one landing pass per step (``_land_deployments``):
        every due deployment on an accepted, unrevised grant lands,
        and every other idle lane is polled
        (``poll_pending_deployment``).  Landed and at-once decisions
        alike reach production through one deploy pass
        (``_deploy``), which skips allocations already deployed and
        runs their post-deploy SLO checks as one vectorized pre-check
        per service family; only lanes failing it run the scalar
        check.  A lane replaying a
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
        if not 0.0 < step_seconds < math.inf:
            raise ValueError(
                f"step_seconds must be positive and finite, got {step_seconds}"
            )
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
        # on_step path.  The candidates' state lives in one lane table,
        # re-read at the start of every run; whether a candidate
        # actually batches is one of its masks.
        candidates = [
            i
            for i, controller in enumerate(self.controllers)
            if self.batched
            and all(
                hasattr(controller, name) for name in _BATCH_ADAPT_PROTOCOL
            )
        ]
        self._table: _LaneTable | None = (
            _LaneTable([self.controllers[i] for i in candidates], candidates)
            if candidates
            else None
        )
        # Lanes that never batch: their on_step runs every step.
        self._scalar_lanes: tuple[int, ...] = tuple(
            sorted(set(range(len(self._lanes))) - set(candidates))
        )
        # Lanes replaying a LoadTrace re-evaluate their workload only on
        # the first step of each trace hour; every other workload
        # source runs every step.  The offered volume and demand
        # vectors follow the re-evaluated lanes.
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
        self, t: float, stable: float, workloads: list[Workload]
    ) -> list[int]:
        """Run this step's due periodic adaptations as batched waves.

        The lane table (:class:`_LaneTable`) picks the rows to visit
        with mask operations: rows whose wake time (next check, next
        re-signature, pending ``apply_at``, and ``stable``, the queue's
        ``grants_stable_until`` read once per step before this step's
        outages apply) has come, plus every row that cannot sleep.
        Visited batchable rows are either due (adapted, or deferred by
        queue rejection and retried next step, exactly like a scalar
        rejected adaptation) or idle, and the idle rows' per-step
        duties (landing a queue-delayed deployment, swapping in a
        relearn-staged model, routine re-signatures) run in the landing
        pass (:meth:`_land_deployments`) before the due rows gate.

        Phase order preserves per-lane scalar semantics exactly:
        *prepare* gates due lanes (queue charge) in global lane order
        and then collects the gated signatures — one
        ``Monitor.collect_matrix`` pass per shared-model group that
        samples only the group's signature columns (one vectorized
        noise draw of that width under counter streams) — then each
        shared-model group classifies its signature matrix and resolves
        band-0 entries in one batched repository lookup, then the
        decisions that deploy at once go through the deploy pass
        (:meth:`_deploy`), and *finish* (decide, escalate where the
        pre-check failed, record) walks lanes in global lane order
        again.  Lanes are independent across those phases except
        through the queue and the shared repository, both of which see
        the same per-lane sequence the scalar path produces.  The rows
        the wave touched are then re-read.

        Returns the visited rows that cannot batch (masked rows): the
        engine runs their ``on_step`` this step.
        """
        table = self._table
        due, idle, masked = table.visit(t, stable)
        if idle:
            self._land_deployments(t, idle)
        if due:
            self._adapt_due(t, due, workloads)
            table.reread(due)
        return masked

    def _land_deployments(self, t: float, idle: list[int]) -> None:
        """The landing pass: the per-step duties of the visited rows
        that are not due an adaptation, in lane order.

        Every row whose queue-delayed deployment is due on an accepted,
        unrevised grant (:meth:`_LaneTable.landable`) lands through the
        deploy pass (:meth:`_deploy`), which deploys it at its
        ``apply_at`` and pre-checks the post-deploy SLO of all of them
        at once.  Then, lane by lane: a landed lane that failed the
        pre-check runs the scalar check (probes, escalation) and a
        landed lane owing a re-signature charges it
        (``finish_landing``), while any other idle lane — a revoked,
        evicted or revised grant, a staged model, a decision not yet
        due, a re-signature owed — runs ``poll_pending_deployment``.
        So the queue sees the same request sequence as one poll per
        idle lane: deploying and pre-checking charge nothing and touch
        only their own lane.
        """
        table = self._table
        controllers = table.controllers
        land = table.landable(t, idle)
        decisions = [controllers[k].pending_deployment for k in land]
        failed = self._deploy(t, land, decisions) if land else ()
        table.landed(land)
        landed = dict(zip(land, decisions))
        owed = set(np.flatnonzero(t + 1e-9 >= table.next_resignature).tolist())
        touched = []
        for k in idle:
            decision = landed.get(k)
            if decision is None:
                controllers[k].poll_pending_deployment(t)
            elif k in failed:
                controllers[k].finish_landing(t, decision)
            elif k in owed:
                controllers[k].finish_landing(t, None)
            else:
                continue
            touched.append(k)
        table.reread(touched)

    def _deploy(self, t: float, rows: list[int], decisions: list) -> set[int]:
        """The batched wave's one deploy pass: put each row's decision
        in production at its ``apply_at``, then pre-check them
        (:meth:`_precheck_landed`); returns the rows failing it.

        Every deployment the wave makes comes through here, in one
        column pass per step: the queue-delayed decisions the landing
        pass lands, and the finish's at-once decisions
        (``at_once_deployment``: their grant quoted no wait), deployed
        before the lane-order finish walk.  A row whose allocation is
        the one its provider already runs — most of them: a lane that
        re-classifies into its class re-deploys its allocation —
        skips ``ProductionEnvironment.apply`` (which would change
        nothing) and does only the manager's bookkeeping
        (``mark_deployed``).

        Deploying early is exact for the reason the landing pass is:
        a deployment charges no queue and touches only its own lane's
        provider and service, and host theft is fixed when the step
        starts, so no other lane's finish can see it, and the lane's
        own finish never reads its provider before its check.
        """
        table = self._table
        controllers, productions = table.controllers, table.productions
        for k, decision in zip(rows, decisions):
            production = productions[k]
            allocation = decision.allocation
            current = production.provider.current_allocation
            if allocation is not current and allocation != current:
                production.apply(allocation, decision.apply_at)
            controllers[k].mark_deployed(decision)
        return self._precheck_landed(t, rows, decisions)

    def _precheck_landed(
        self, t: float, rows: list[int], decisions: list
    ) -> set[int]:
        """The first attempt of the deployed decisions' post-deploy SLO
        checks, at once; returns the rows failing it.

        A row passes when the scalar check (``_interference_check``)
        would stop at its first attempt having changed nothing: the
        decision owes no check, there is no band to escalate to,
        nothing serves at the check time, or the SLO is met there.
        Each row's demand, check-time capacity and interference are
        gathered as vectors, and the SLO test runs as one
        :func:`~repro.services.base.slo_met_rows` call per service
        family (the table's ``family``: one ``row_key`` and one settle
        delay, so one check time), so every element equals
        ``service.slo_met(service.performance(...))``.  Only a failing
        row needs the scalar check, which its lane runs at its place in
        lane order: it repeats that first attempt and goes on to probe
        and escalate.
        """
        table = self._table
        multi_band, family = table.multi_band, table.family
        # Per family: the rows owing a check, and their demands.
        families: dict[int, tuple[list[int], list[float]]] = {}
        for k, decision in zip(rows, decisions):
            if decision.owes_check and multi_band[k]:
                members = families.get(family[k])
                if members is None:
                    members = families[family[k]] = ([], [])
                members[0].append(k)
                members[1].append(decision.workload.demand_units)
        failed: set[int] = set()
        productions, settle = table.productions, table.settle
        for checked, demands in families.values():
            check_t = t + settle[checked[0]]
            capacity = [
                productions[k].provider.capacity_at(check_t) for k in checked
            ]
            if min(capacity) <= 0.0:
                # Nothing serving at the check time: the check stops
                # there; grade the rest.
                serving = [j for j, units in enumerate(capacity) if units > 0.0]
                if not serving:
                    continue
                checked = [checked[j] for j in serving]
                demands = [demands[j] for j in serving]
                capacity = [capacity[j] for j in serving]
            met = slo_met_rows(
                [productions[k].service for k in checked],
                np.array(demands),
                np.array(capacity),
                table.thefts(checked, check_t),
                check_t,
            )
            if not met.all():
                failed.update(checked[j] for j in np.flatnonzero(~met).tolist())
        return failed

    def _adapt_due(
        self, t: float, due: list[int], workloads: list[Workload]
    ) -> None:
        """Gate, collect, classify and finish this step's due rows."""
        table = self._table
        controllers, lanes = table.controllers, table.lanes
        # Phase 1a — gate every due lane in lane order: the queue sees
        # the same per-lane request sequence the scalar path produces.
        grants = {}
        for k in due:
            grant = controllers[k].begin_batched_adapt(t, workloads[lanes[k]])
            if grant is not None:
                grants[k] = grant
        if not grants:
            return
        # Phase 1b — collect all gated lanes' signatures: one
        # collect_matrix pass over the signature columns per
        # shared-model group.
        groups = self._collect_wave_signatures(list(grants), workloads)
        # Classification is a pure snapshot pass per shared-model
        # group, so groups may overlap (wave_workers); repository
        # lookups mutate shared stats and stay serial, resolved in
        # group order either way.
        results = self._wave_map(
            [
                functools.partial(self._classify_matrix, rows, X)
                for rows, X in groups
            ]
        )
        finish: dict[int, tuple] = {}
        for (rows, _X), result in zip(groups, results):
            self._resolve_group(rows, result, finish)
        # Phase 2a — the deploy pass makes and pre-checks every
        # decision that deploys at once (its grant quoted no wait).
        at_once, decisions = [], []
        for k, grant in grants.items():
            if grant.quoted_wait > 0.0:
                continue
            decision = controllers[k].at_once_deployment(
                t, workloads[lanes[k]], *finish[k], grant
            )
            if decision is not None:
                at_once.append(k)
                decisions.append(decision)
        failed = self._deploy(t, at_once, decisions) if at_once else ()
        deployed = dict(zip(at_once, decisions))
        # Phase 2b — finish in lane order; a deployment that failed the
        # pre-check runs its scalar check here.
        for k, grant in grants.items():
            label, certainty, entry = finish[k]
            controllers[k].complete_batched_adapt(
                t,
                workloads[lanes[k]],
                label,
                certainty,
                entry,
                grant,
                deployed.get(k),
                k in failed,
            )

    def _collect_wave_signatures(
        self, gated: list[int], workloads: list[Workload]
    ) -> list[tuple[list[int], np.ndarray]]:
        """Every gated row's signature, as ``(rows, X)`` per
        shared-model group (first-appearance order; ``X`` row ``j`` is
        ``rows[j]``'s signature).

        Each group is collected with one
        :meth:`~repro.telemetry.monitor.Monitor.collect_matrix` pass
        over its signature columns — one per monitor family when a
        model spans several — so the wave samples only the
        metrics a signature reads.  Each row consumes its samplers'
        noise streams exactly as the scalar path would (one pass per
        sampler), and groups touch disjoint monitors, so they may
        overlap under ``wave_workers``.
        """
        table = self._table
        controllers, lanes, monitors = (
            table.controllers,
            table.lanes,
            table.monitors,
        )
        monitor_group = table.monitor_group
        for k in gated:
            if monitor_group[k] == -1:
                raise ValueError(
                    f"lane {self._lanes[lanes[k]].label!r} batch-adapts but "
                    "its controller has no profiler.monitor to collect with"
                )
        models: dict[int, list[int]] = {}
        for k, group in zip(gated, table.model_groups(gated)):
            models.setdefault(group, []).append(k)

        def collect_part(picked: list[int]) -> np.ndarray:
            return monitors[picked[0]].collect_matrix(
                [workloads[lanes[k]] for k in picked],
                monitors=[monitors[k] for k in picked],
                columns=controllers[picked[0]].signature_columns(),
            )

        def collect(rows: list[int]) -> np.ndarray:
            # Rows of one monitor family share a pass.
            keys = [monitor_group[k] for k in rows]
            if keys.count(keys[0]) == len(keys):
                return collect_part(rows)
            parts: dict[tuple, list[int]] = {}
            for j, key in enumerate(keys):
                parts.setdefault(key, []).append(j)
            X = None
            for members in parts.values():
                part = collect_part([rows[j] for j in members])
                if X is None:
                    X = np.empty((len(rows), part.shape[1]))
                X[members] = part
            return X

        return list(
            zip(
                models.values(),
                self._wave_map(
                    [functools.partial(collect, rows) for rows in models.values()]
                ),
            )
        )

    def _classify_matrix(self, rows: list[int], X: np.ndarray):
        """One shared-model group's stacked classification pass.

        Pure with respect to shared state (the classifier snapshots its
        trained model), so groups can run concurrently; each group's
        leader controller belongs to exactly that group, keeping the
        lazily-built batch classifier single-threaded.
        """
        leader = self._table.controllers[rows[0]]
        return leader.batch_classifier().classify_matrix(X)

    def _resolve_group(
        self, rows: list[int], result, finish: dict[int, tuple]
    ) -> None:
        """Prefetch band-0 entries for the group's certain rows.

        Serial: each ``lookup`` charges repository statistics, and
        repositories may be shared across groups.
        """
        table = self._table
        leader = table.controllers[rows[0]]
        labels = result.labels.tolist()
        certainties = result.certainties.tolist()
        hits = np.flatnonzero(
            result.certainties >= table.threshold[rows]
        ).tolist()
        lookup = leader.repository.lookup
        entry_for = {j: lookup(labels[j], 0) for j in hits}
        for j, k in enumerate(rows):
            finish[k] = (labels[j], certainties[j], entry_for.get(j))

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
        # Written so NaN fails too: every comparison with it is False.
        if not 0.0 < duration_seconds < math.inf:
            raise ValueError(
                "duration_seconds must be positive and finite, "
                f"got {duration_seconds}"
            )
        if not 0.0 <= start < math.inf:
            raise ValueError(f"start must be non-negative and finite, got {start}")
        if self._table is not None:
            self._table.reset()
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
            stable = math.inf
            if self.profiling_queue is not None:
                # Profiler-outage windows commit here, before any
                # controller can observe or charge the queue this step;
                # a lane waiting on a grant the window may touch wakes.
                stable = self.profiling_queue.grants_stable_until()
                self.profiling_queue.advance_to(t)
            masked = (
                self._batched_adapt_wave(t, stable, workloads)
                if self._table is not None
                else None
            )
            if masked:
                lanes = self._table.lanes
                to_step = sorted(
                    self._scalar_lanes + tuple(lanes[k] for k in masked)
                )
            else:
                to_step = self._scalar_lanes
            contexts = self._step_controllers(to_step, t, hour, day, workloads)
            if masked:
                self._table.reread(masked)
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

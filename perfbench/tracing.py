"""Outside-in layer trace for the fleet simulator.

The simulator carries no timers of its own, so this module times it
from the outside: :func:`hooked` swaps each layer's entry point (a
method or module function named in :data:`HOOKS`) for a wrapper that
records a span around the call, and puts the originals back on exit.
Spans nest through one stack per process, so every layer's *self* time
is its span's duration minus the time its child spans cover.

Spans are aggregated as they close — per (parent layer, layer) edge: a
call count, the total time and the self time — instead of being kept
one by one: a 200-lane day evaluates ~58k workloads, and an aggregate
per edge is what the per-layer metrics and the written trace need.

Shard workers of a spawned sweep are separate processes that start
from a fresh import, so the parent's wrappers do not reach them.
:func:`hooked` therefore also replaces the study's shard worker with
:func:`traced_shard_worker`, which installs the same hooks inside the
worker and returns its aggregate in the shard payload; the parent adds
it to its own.  A target a later version of the simulator renames or
removes is skipped (its layer reads 0) rather than failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: (module, class or None for a module function, attribute, layer).
#: Several entry points may feed one layer.
HOOKS: tuple[tuple[str, str | None, str, str], ...] = (
    # Fleet set-up: lane construction, learning day, placement.
    ("repro.experiments.setup", None, "build_scaleout_setup", "build_lanes"),
    ("repro.experiments.setup", None, "build_scaleup_setup", "build_lanes"),
    ("repro.core.manager", "DejaVuManager", "learn", "learn"),
    ("repro.experiments.multiplexing_study", None, "build_host_map", "placement"),
    (
        "repro.experiments.multiplexing_study",
        None,
        "_placement_estimates",
        "placement",
    ),
    # One engine step, in loop order.
    ("repro.sim.fleet", "FleetEngine", "_run_loop", "engine_loop"),
    ("repro.workloads.traces", "LoadTrace", "workload_at", "workload_eval"),
    ("repro.sim.fleet", "FleetEngine", "_lane_capacities", "lane_capacities"),
    ("repro.sim.hosts", "HostMap", "apply_step", "host_step"),
    ("repro.sim.exchange", "ShardHostView", "apply_step", "host_step"),
    ("repro.sim.hosts", "HostMap", "_apply_demands", "host_theft"),
    ("repro.sim.hosts", "HostMap", "_process_fault_events", "fault_events"),
    ("repro.sim.placement", "MigrationPolicy", "plan", "migration_plan"),
    ("repro.sim.fleet", "ProfilingQueue", "advance_to", "queue_advance"),
    ("repro.sim.fleet", "ProfilingQueue", "request", "queue_request"),
    ("repro.sim.fleet", "FleetEngine", "_batched_adapt_wave", "adapt_wave"),
    ("repro.core.manager", "DejaVuManager", "poll_pending_deployment", "wave_poll"),
    ("repro.core.manager", "DejaVuManager", "begin_batched_adapt", "wave_gate"),
    ("repro.sim.fleet", "FleetEngine", "_collect_wave_signatures", "wave_collect"),
    ("repro.sim.fleet", "FleetEngine", "_classify_matrix", "wave_classify"),
    ("repro.sim.fleet", "FleetEngine", "_resolve_group", "wave_lookup"),
    ("repro.core.manager", "DejaVuManager", "complete_batched_adapt", "wave_finish"),
    ("repro.core.manager", "DejaVuManager", "on_step", "controller_step"),
    ("repro.experiments.setup", "_FleetFamilyObserver", "fill_rows", "observe_fill"),
    ("repro.sim.fleet", "FleetEngine", "_fill_row", "dict_observe"),
    ("repro.sim.fleet", "_RowBuffer", "append", "row_buffer"),
    # Sharded sweeps: the parent's dispatch-and-wait, the exchange
    # barrier, persistence, merge.
    ("repro.sim.shard", None, "run_sharded", "sharded_sweep"),
    ("repro.sim.exchange", "DemandExchange", "_wait", "barrier_wait"),
    ("repro.sim.fleet", "FleetResult", "to_npz", "npz_persist"),
    ("repro.sim.fleet", "FleetResult", "from_npz", "npz_load"),
    ("repro.sim.shard", None, "merge_fleet_results", "merge"),
)

#: Every layer the trace reports, in step order (``study`` is the
#: benchmark's own span around one study call; ``shard_worker`` the
#: worker-side span around one shard).
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        ("study",) + tuple(layer for *_target, layer in HOOKS) + ("shard_worker",)
    )
)


class Tracer:
    """Span stack plus per-edge aggregates for one process."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.edges: dict[tuple[str | None, str], list[float]] = {}

    def span(self, layer: str, fn):
        """``fn`` wrapped to record a ``layer`` span around each call."""
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, layer)
                entry = edges.get(key)
                if entry is None:
                    entry = edges[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

        return traced

    def take(self) -> dict[tuple[str | None, str], list[float]]:
        """The edges recorded since the last call, then start afresh."""
        # Cleared in place: the installed wrappers hold this dict.
        edges = dict(self.edges)
        self.edges.clear()
        return edges


def add_edges(into: dict, edges: dict) -> None:
    """Accumulate the edge aggregates ``edges`` into ``into``."""
    for key, (count, total, own) in edges.items():
        entry = into.setdefault(key, [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += total
        entry[2] += own


def layer_totals(edges: dict) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds), summed over its parents."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for (_parent, layer), (count, _total, own) in edges.items():
        entry = totals.setdefault(layer, [0, 0.0])
        entry[0] += count
        entry[1] += own
    return {layer: (int(c), s) for layer, (c, s) in totals.items()}


def _resolve(module_name: str, owner_name: str | None):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if owner_name is None:
        return module
    return getattr(module, owner_name, None)


@contextlib.contextmanager
def hooked(tracer: Tracer):
    """Install the :data:`HOOKS` spans on ``tracer``; restore on exit."""
    from repro.experiments import multiplexing_study

    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, layer in HOOKS:
            owner = _resolve(module_name, owner_name)
            raw = (
                vars(owner).get(attr) if owner is not None else None
            )
            if raw is None:
                print(
                    f"perfbench: no {module_name}:{owner_name or ''}."
                    f"{attr}; layer {layer!r} not traced",
                    file=sys.stderr,
                )
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.span(layer, raw.__func__))
            else:
                wrapped = tracer.span(layer, raw)
            restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        # Spawned shard workers import the package afresh: hand them a
        # worker that installs the hooks on their side.
        inner = vars(multiplexing_study).get("_shard_worker")
        if inner is not None:
            restore.append((multiplexing_study, "_shard_worker", inner))
            multiplexing_study._shard_worker = traced_shard_worker
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def traced_shard_worker(spec, lane_lo, lane_hi, result_path, exchange=None):
    """A shard worker that traces its own process.

    Runs the study's own shard worker under :func:`hooked` and adds the
    worker's trace to the payload: ``perfbench_entry`` (the monotonic
    clock on entry, which on Linux is shared by every process, so the
    parent can time the spawn) and ``perfbench_edges``.
    """
    entry = time.monotonic()
    from repro.experiments import multiplexing_study

    inner = multiplexing_study._shard_worker
    tracer = Tracer()
    with hooked(tracer):
        payload = tracer.span("shard_worker", inner)(
            spec, lane_lo, lane_hi, result_path, exchange
        )
    payload["perfbench_entry"] = entry
    payload["perfbench_edges"] = tracer.take()
    return payload

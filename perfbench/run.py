"""Fleet-simulator benchmark: one workload, one seed, one JSON line.

Run from the repository root (no build step; the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload batched --seed 1 --seconds 15 --trace 0

A run builds ``PANEL`` study configurations of the workload from
``--seed`` (see ``perfbench/workloads.py``), runs one study untimed so
imports and lazy initialisation are paid, then cycles through the
configurations for ``--seconds`` seconds (at least ``MIN_REPS``
studies).  Every repetition of a configuration must reproduce its
first bit for bit and pass the workload's invariants; afterwards a
reference run of each configuration in another execution mode must
reproduce it too.

Each metric is the median of one configuration's studies, averaged
over the configurations.  A configuration gets 2–10 studies in a run,
so no higher percentile has ten studies beyond it; the sample count
is the result's ``attempted``, and the studies per configuration go
to standard error.  Times are host seconds *at reference speed*: on a
shared machine the CPU's speed wanders by ±15–40% over minutes, which
no run length averages out, so before each study the run times
:func:`yardstick`, a fixed interpreter-and-numpy kernel that no change
to the simulator touches, and scales every time it reports by
``YARDSTICK_REF_S`` over the run's median yardstick (printed to
standard error with the studies' simulated counts, which are checked,
not reported).  A faster simulator lowers the scaled times exactly as
it lowers the raw ones.

``--trace 0`` reports the end-to-end metrics:

* ``study_s`` — time of one study call, set-up included: what a user
  of ``run_fleet_multiplexing_study`` waits for;
* ``lane_steps_per_s`` — simulated lane-steps per second of stepping
  (the study's ``lane_steps_per_second``; for a sharded sweep the
  denominator is the sweep from dispatch to merge);
* ``setup_s`` — study time minus the time inside the engine's stepping
  (for a sharded sweep, the slowest shard's): building lanes, the
  learning day, placement, payload assembly, and for shards also spawn,
  persistence and merge.

``--trace 1`` repeats the study with every layer's entry point wrapped
(``perfbench/tracing.py``) and reports, per study, each layer's self
time as ``<layer>_self_s``, call counts of the layers whose counts tell
how much work reached them, ``traced_study_s`` (compare with
``study_s`` for the tracing overhead) and ``spawn_s``.
The aggregated span tree is written to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is the result object; problems go to
standard error.  Without ``src/repro`` next to this directory the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Study configurations per run.  The seed changes how much work a
#: study does (learning-day tuning, adaptations, migrations), so a run
#: averages over several seeds derived from its own rather than
#: reporting one configuration's luck.
PANEL = 6
MIN_REPS = 2 * PANEL

#: The yardstick's nominal duration: times are scaled to the machine
#: speed at which :func:`yardstick` takes this long.
YARDSTICK_REF_S = 0.05

#: Layers whose call counts are reported alongside their self time.
COUNTED_LAYERS = (
    "learn",
    "wave_gate",
    "wave_classify",
    "controller_step",
    "dict_observe",
    "queue_request",
    "migration_plan",
    "barrier_wait",
)


def yardstick() -> float:
    """Seconds a fixed piece of work takes now: small numpy operations
    driven from an interpreted loop, with dict and tuple churn — the
    simulator's idiom."""
    start = time.perf_counter()
    base = np.linspace(0.0, 1.0, 64)
    total = 0.0
    table: dict[int, tuple] = {}
    for i in range(20000):
        row = base * 1.01 + 0.5
        total += float(row.sum())
        table[i % 97] = (i, total, str(i))
    return time.perf_counter() - start


@dataclass
class Sample:
    """One timed study, in measured (unscaled) seconds."""

    study: object
    wall: float
    engine: float
    spawn: float
    edges: dict
    yardstick: float
    """The yardstick's time, measured just before the study."""


@contextlib.contextmanager
def captured_sweeps():
    """Record ``(dispatch time, shard payloads)`` of each sharded sweep.

    The study folds the payloads into its result; the benchmark needs
    each shard's time inside the engine (for ``setup_s``) and, when
    tracing, each worker's trace.
    """
    from repro.sim import shard

    inner = shard.run_sharded
    sweeps: list[tuple[float, list[dict]]] = []

    def capture(*args, **kwargs):
        start = time.monotonic()
        merged, payloads, wall = inner(*args, **kwargs)
        sweeps.append((start, payloads))
        return merged, payloads, wall

    shard.run_sharded = capture
    try:
        yield sweeps
    finally:
        shard.run_sharded = inner


def run_once(run, kwargs, sweeps, tracer) -> Sample:
    """Time the yardstick, then one study call."""
    from perfbench.tracing import add_edges

    sweeps.clear()
    call = run if tracer is None else tracer.span("study", run)
    gc.collect()
    yard = yardstick()
    start = time.perf_counter()
    study = call(**kwargs)
    wall = time.perf_counter() - start
    edges = tracer.take() if tracer is not None else {}
    engine = study.engine_seconds
    spawn = 0.0
    if sweeps:
        dispatched, payloads = sweeps[-1]
        engine = max(payload["engine_seconds"] for payload in payloads)
        for payload in payloads:
            if "perfbench_entry" in payload:
                spawn = max(spawn, payload["perfbench_entry"] - dispatched)
                add_edges(edges, payload["perfbench_edges"])
    return Sample(study, wall, engine, spawn, edges, yard)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import tracing
    from perfbench.workloads import fingerprint, invariants
    from repro.experiments.multiplexing_study import (
        run_fleet_multiplexing_study as run,
    )

    panel = [workload.kwargs(seed * PANEL + k) for k in range(PANEL)]
    tracer = tracing.Tracer() if trace else None
    problems: list[str] = []
    expected: list[str | None] = [None] * PANEL
    samples: list[list[Sample]] = [[] for _ in range(PANEL)]
    attempted = failed = 0
    with contextlib.ExitStack() as stack:
        sweeps = stack.enter_context(captured_sweeps())
        if tracer is not None:
            stack.enter_context(tracing.hooked(tracer))
        run_once(run, panel[0], sweeps, tracer)
        start = time.perf_counter()
        while attempted < MIN_REPS or time.perf_counter() - start < seconds:
            k = attempted % PANEL
            attempted += 1
            try:
                sample = run_once(run, panel[k], sweeps, tracer)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            bad = invariants(workload, sample.study, panel[k])
            digest = fingerprint(sample.study)
            if expected[k] is None:
                expected[k] = digest
            elif digest != expected[k]:
                bad.append("repetition differs from the first run")
            if bad:
                problems += bad
                failed += 1
                continue
            samples[k].append(sample)
    for kwargs, digest in zip(panel, expected):
        reference = run(**{**kwargs, **workload.reference})
        if fingerprint(reference) != digest:
            problems.append(
                f"seed {kwargs['seed']}: reference run "
                f"{workload.reference} differs"
            )
    for problem in dict.fromkeys(problems):
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    if not all(samples):
        raise RuntimeError(
            f"a configuration of {workload.name!r} never succeeded"
        )
    yard = statistics.median(
        sample.yardstick for group in samples for sample in group
    )
    scale = YARDSTICK_REF_S / yard
    _print_run_info(workload.name, panel, samples, yard)
    if trace:
        metrics = _panel_metrics(samples, scale, _layer_values, "per_layer")
        _write_trace(samples, scale, workload.name, seed)
    else:
        metrics = _panel_metrics(
            samples, scale, _end_to_end_values, "end_to_end"
        )
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_run_info(
    workload_name: str,
    panel: list[dict],
    samples: list[list[Sample]],
    yard: float,
) -> None:
    """Run metadata on standard error: the sample counts, the machine
    speed and the simulated outcomes of each configuration."""
    print(
        f"perfbench: {workload_name}: studies per configuration "
        f"{[len(group) for group in samples]}; median yardstick "
        f"{yard:.4f} s (reference {YARDSTICK_REF_S} s)",
        file=sys.stderr,
    )
    for kwargs, group in zip(panel, samples):
        study = group[0].study
        print(
            f"perfbench: {workload_name}: seed {kwargs['seed']}: "
            f"{sum(len(log) for log in study.lane_events)} adaptations, "
            f"{study.accepted_profiles} profiles, hit rate "
            f"{study.hit_rate:.4f}, {study.migrations} migrations, "
            f"{study.evacuations} evacuations, "
            f"{study.host_hours_on:.1f} host-h on",
            file=sys.stderr,
        )


def _panel_metrics(
    samples: list[list[Sample]], scale: float, values, kind: str
) -> dict:
    """Each metric's median over one configuration's studies, averaged
    over the panel's configurations; times scaled by ``scale``.  Names
    and units are the ``kind`` metrics declared in
    ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {metric["name"]: metric["unit"] for metric in declared}
    per_config = []
    for group in samples:
        rows = [values(sample, scale) for sample in group]
        if set(rows[0]) != set(units):
            raise RuntimeError(
                f"measured {sorted(rows[0])}, but BENCHMARK.json declares "
                f"{sorted(units)} as {kind} metrics"
            )
        per_config.append(
            {
                name: statistics.median(row[name] for row in rows)
                for name in units
            }
        )
    return {
        name: {
            "value": statistics.fmean(config[name] for config in per_config),
            "unit": unit,
        }
        for name, unit in units.items()
    }


def _end_to_end_values(sample: Sample, scale: float) -> dict[str, float]:
    return {
        "study_s": sample.wall * scale,
        "lane_steps_per_s": sample.study.lane_steps_per_second / scale,
        "setup_s": (sample.wall - sample.engine) * scale,
    }


def _layer_values(sample: Sample, scale: float) -> dict[str, float]:
    from perfbench.tracing import LAYERS, layer_totals

    totals = layer_totals(sample.edges)
    values = {
        "traced_study_s": sample.wall * scale,
        "spawn_s": sample.spawn * scale,
    }
    for layer in LAYERS:
        values[f"{layer}_self_s"] = totals[layer][1] * scale
    for layer in COUNTED_LAYERS:
        values[f"{layer}_calls"] = float(totals[layer][0])
    return values


def _write_trace(
    samples: list[list[Sample]], scale: float, workload_name: str, seed: int
) -> None:
    """Write the span tree, aggregated per (parent, layer) edge."""
    from perfbench.tracing import add_edges

    combined: dict = {}
    for group in samples:
        for sample in group:
            add_edges(combined, sample.edges)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload_name}-{seed}.json").write_text(
        json.dumps(
            {
                "workload": workload_name,
                "seed": seed,
                "studies": sum(len(group) for group in samples),
                "time_unit": "reference-speed seconds, summed over studies",
                "edges": [
                    {
                        "parent": parent,
                        "layer": layer,
                        "calls": count,
                        "total_s": total * scale,
                        "self_s": own * scale,
                    }
                    for (parent, layer), (count, total, own) in sorted(
                        combined.items(), key=lambda item: -item[1][2]
                    )
                ],
            },
            indent=1,
        )
    )


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if a sweep started it,
    so the run leaves no process behind."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(
        getattr(tracker_module, "_resource_tracker", None), "_stop", None
    )
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive: {args.seconds}")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; use one of {list(WORKLOADS)}"
        )
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sharded multiprocess fleet sweeps: partition, execute, persist, merge.

A 200+-lane fleet fits one process, but the multiplexing economics the
paper argues for (Sec. 5) are worth sweeping at scales and parameter
grids that do not.  This module cuts a fleet into contiguous **shards**
of global lane indices, runs each shard in a worker process
(``ProcessPoolExecutor`` with the ``spawn`` start method, so workers
re-import the package instead of inheriting simulator state; or, with
``workers=0``, on threads of the calling process), persists
every shard's :class:`~repro.sim.fleet.FleetResult` numpy blocks to an
``.npz`` file (:meth:`FleetResult.to_npz`), and merges the shard files
back into one fleet-wide result.

The merge is exact, not approximate: lane simulations in this codebase
interact only through the profiling queue and shared hosts.  The
profiling queue is scoped to the shard (one profiling environment per
shard); shared hosts couple lanes *across* shards, so host-coupled
sweeps pass ``coupled=True`` and every worker synchronizes its lanes'
demand contributions through a shared block and a barrier every step
before computing the global theft pass locally (spawned workers
inherit that pair through the pool's initializer).  Either way, with
counter-mode telemetry streams the merged result is bit-identical to
the single-process run (pinned in ``tests/test_fleet_shard.py``).

The module is deliberately generic: it knows how to partition, execute,
persist and merge, while the *worker* callable (a module-level function
so ``spawn`` can pickle it by reference) owns fleet construction — see
:func:`repro.experiments.multiplexing_study.run_fleet_multiplexing_study`
``(shards=, workers=)`` and ``repro.cli fleet --shards/--workers``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.sim.exchange import (
    install_exchange,
    make_exchange_handles,
    make_thread_exchange,
)
from repro.sim.fleet import FleetResult


def partition_lanes(n_lanes: int, shards: int) -> list[range]:
    """Cut ``n_lanes`` global lane indices into contiguous shard ranges.

    Sizes differ by at most one (the first ``n_lanes % shards`` shards
    take the extra lane); every shard is non-empty.
    """
    if n_lanes < 1:
        raise ValueError(f"need at least one lane: {n_lanes}")
    if shards < 1:
        raise ValueError(f"need at least one shard: {shards}")
    if shards > n_lanes:
        raise ValueError(f"cannot cut {n_lanes} lanes into {shards} shards")
    base, extra = divmod(n_lanes, shards)
    ranges = []
    start = 0
    for shard in range(shards):
        stop = start + base + (1 if shard < extra else 0)
        ranges.append(range(start, stop))
        start = stop
    return ranges


def _check_shard_order(parts: list[FleetResult]) -> None:
    """Reject shard results passed out of ascending global-lane order.

    The merge concatenates columns in the order the parts arrive, so a
    swapped pair would silently misalign every per-lane series.  Lane
    labels of the fleet engine's ``<prefix>-<global index>`` form carry
    the global order; when every label across every part has a numeric
    suffix, the flattened sequence must be strictly increasing.  Parts
    with free-form labels skip the check (only the duplicate-label guard
    applies).
    """
    indices: list[int] = []
    for part in parts:
        for label in part.lane_labels:
            prefix, _, suffix = label.rpartition("-")
            if not prefix or not suffix.isdigit():
                return
            indices.append(int(suffix))
    for previous, current in zip(indices, indices[1:]):
        if current <= previous:
            raise ValueError(
                f"shard results are out of global lane order (lane "
                f"{current} follows lane {previous}); pass parts in "
                "ascending shard order, shard 0 first"
            )


def merge_fleet_results(
    parts: list[FleetResult], label: str = "fleet"
) -> FleetResult:
    """Merge contiguous shard results back into one fleet-wide result.

    ``parts`` must be in ascending global-lane order (shard 0 first);
    all shards must have recorded the same step times.  Schemas are
    deduplicated across shards, per-series matrices are column-merged
    in global lane order, and per-lane rows come out exactly where the
    single-process engine would have put them.
    """
    if not parts:
        raise ValueError("need at least one shard result")
    times = parts[0].times
    for part in parts[1:]:
        if not np.array_equal(part.times, times):
            raise ValueError(
                f"shard results disagree on step times ({part.label!r} "
                f"recorded {part.n_steps} step(s) vs {parts[0].label!r} "
                f"with {len(times)}); they must come from one sweep"
            )
    lane_labels = tuple(
        lane_label for part in parts for lane_label in part.lane_labels
    )
    if len(set(lane_labels)) != len(lane_labels):
        counts = Counter(lane_labels)
        duplicates = sorted(label for label, n in counts.items() if n > 1)
        raise ValueError(
            f"duplicate lane labels across shard results: {duplicates}; "
            "the same shard was passed twice or the parts overlap"
        )
    _check_shard_order(parts)
    schemas: list[tuple[str, ...]] = []
    schema_index: dict[tuple[str, ...], int] = {}
    lane_schemas: list[int] = []
    for part in parts:
        for local_schema in part.lane_schemas:
            schema = part.schemas[local_schema]
            index = schema_index.get(schema)
            if index is None:
                index = schema_index[schema] = len(schemas)
                schemas.append(schema)
            lane_schemas.append(index)
    # Per-series column merge.  Shards are contiguous and each part's
    # recording lanes are ascending, so concatenation in shard order
    # already yields ascending global lane order.
    offsets = []
    offset = 0
    for part in parts:
        offsets.append(offset)
        offset += part.n_lanes
    order: list[str] = []
    columns: dict[str, list[np.ndarray]] = {}
    recording: dict[str, list[int]] = {}
    for part, part_offset in zip(parts, offsets):
        for name in part.matrices:
            if name not in columns:
                order.append(name)
                columns[name] = []
                recording[name] = []
            columns[name].append(part.matrix(name))
            recording[name].extend(
                part_offset + lane for lane in part.lanes_recording(name)
            )
    matrices = {
        name: (
            columns[name][0]
            if len(columns[name]) == 1
            else np.hstack(columns[name])
        )
        for name in order
    }
    return FleetResult(
        label=label,
        lane_labels=lane_labels,
        times=times,
        matrices=matrices,
        schemas=tuple(schemas),
        lane_schemas=tuple(lane_schemas),
        series_lanes={name: tuple(recording[name]) for name in order},
    )


def _submit_shards(pool, worker, jobs: list, coupled_processes: bool) -> list:
    """Submit every shard's job; returns the futures in shard order.

    ``ProcessPoolExecutor.submit`` wakes the pool's manager thread
    *before* it spawns the worker for that job, so the manager may wait
    without the last worker's sentinel and never see that worker die
    while its coupled peers block at the barrier for good.  One more
    submit (a no-op queued behind the shards) wakes the manager once
    every worker exists.
    """
    futures = [pool.submit(worker, *job) for job in jobs]
    if coupled_processes:
        pool.submit(int)
    return futures


def _drain_exchange_futures(futures: list, barrier=None) -> list[dict]:
    """Collect shard results in shard order, failing fast on a crash.

    On the first failure, shards still queued are cancelled and, when
    a coupled shard *raised*, the exchange ``barrier`` is aborted so
    its peers fail fast instead of timing out.  A worker process that
    died outright (``BrokenProcessPool``: the pool has terminated its
    peers) may hold the barrier's lock, so the barrier is left alone.
    The first *root-cause* exception (anything that is not the
    induced ``BrokenBarrierError``) is re-raised.
    """
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    failures = [f.exception() for f in done if f.exception() is not None]
    if not_done and failures:
        for future in not_done:
            future.cancel()
        if barrier is not None and not any(
            isinstance(error, BrokenProcessPool) for error in failures
        ):
            barrier.abort()
    wait(futures)
    errors = [
        f.exception()
        for f in futures
        if not f.cancelled() and f.exception() is not None
    ]
    if not errors:
        return [future.result() for future in futures]
    root = next(
        (e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
        errors[0],
    )
    # No local may lead back to the raised error: without a cycle the
    # barrier's named semaphores go as soon as the caller drops it.
    del futures, done, not_done, failures, errors
    try:
        raise root
    finally:
        del root


def default_workers(shards: int, coupled: bool) -> int:
    """Pool size of a sweep that names none.

    Shards coupled by a demand exchange must all run at once (each step
    ends at a barrier), so they get one worker each; independent shards
    get at most one worker per CPU.
    """
    return shards if coupled else min(shards, os.cpu_count() or 1)


def run_sharded(
    worker: Callable[..., dict],
    spec: Any,
    n_lanes: int,
    shards: int,
    workers: int | None = None,
    shard_dir: str | Path | None = None,
    label: str = "fleet",
    coupled: bool = False,
) -> tuple[FleetResult, list[dict], float]:
    """Execute a sharded sweep and merge the persisted shard results.

    ``worker`` must be a module-level callable (``spawn`` pickles it by
    reference) with signature ``worker(spec, lane_lo, lane_hi,
    result_path) -> payload``: it simulates global lanes
    ``[lane_lo, lane_hi)``, persists the shard's
    :class:`~repro.sim.fleet.FleetResult` to ``result_path`` via
    ``to_npz``, and returns a small picklable stats payload.

    ``workers`` sizes the spawn process pool (default
    :func:`default_workers`); ``workers=0`` runs the shards on threads
    of this process instead — one thread in turn for independent
    shards, one thread per shard when coupled — the exact shard code
    path, deterministic and debuggable, with no spawn.  ``shard_dir``
    keeps the per-shard ``.npz`` files (for archival or out-of-band merging); by default a
    temporary directory is used and cleaned up.

    ``coupled`` couples the shards through a cross-shard demand
    exchange (shared hosts): the worker gains a fifth positional
    argument, a :class:`~repro.sim.exchange.DemandExchange` handle on
    one shared demand block, and every shard must run
    *concurrently* because each step ends at a barrier.  Consequently
    ``workers`` defaults to ``shards`` (not the CPU count — an
    undersized pool would deadlock at the first barrier, so ``0 <
    workers < shards`` is rejected) and ``workers=0`` runs them as
    concurrent threads sharing an in-process block.  A failed shard
    aborts the barrier.  Spawned workers inherit the barrier and the
    block at process start, through the pool's ``initializer``; the
    block is an anonymous mapping, so once the pool has joined — on any
    exit, worker crashes and barrier timeouts included — nothing of
    the exchange outlives the sweep.

    Returns ``(merged_result, payloads_in_shard_order, wall_seconds)``
    where ``wall_seconds`` covers dispatch through merge.
    """
    ranges = partition_lanes(n_lanes, shards)
    if workers is None:
        workers = default_workers(shards, coupled)
    if workers < 0:
        raise ValueError(f"workers must be >= 0: {workers}")
    if coupled and 0 < workers < shards:
        raise ValueError(
            f"a demand exchange synchronizes all {shards} shard(s) at a "
            f"step barrier; a pool of {workers} worker(s) would deadlock "
            f"at the first wait — pass workers >= {shards}, or workers=0 "
            "to run the shards as threads"
        )
    own_tmp = None
    if shard_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="fleet-shards-")
        shard_dir = own_tmp.name
    directory = Path(shard_dir)
    jobs: list[tuple] = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        jobs = [
            (spec, lanes.start, lanes.stop, str(directory / f"shard_{k:03d}.npz"))
            for k, lanes in enumerate(ranges)
        ]
        start = time.perf_counter()
        barrier = None
        if workers == 0:
            # Coupled shards meet at a barrier every step, so each gets
            # a thread; independent shards run in turn.
            if coupled:
                handles = make_thread_exchange(n_lanes, ranges)
                barrier = handles[0]._barrier
            pool = ThreadPoolExecutor(max_workers=shards if coupled else 1)
        else:
            ctx = get_context("spawn")
            inherit = {}
            if coupled:
                # Sync primitives and shared arrays reach a spawned
                # worker only at its start: the pool initializer.
                barrier = ctx.Barrier(shards)
                handles = make_exchange_handles(n_lanes, ranges)
                inherit = dict(
                    initializer=install_exchange,
                    initargs=(barrier, ctx.RawArray("d", 2 * n_lanes)),
                )
            pool = ProcessPoolExecutor(
                max_workers=min(workers, shards), mp_context=ctx, **inherit
            )
        if coupled:
            jobs = [job + (handle,) for job, handle in zip(jobs, handles)]
        with pool:
            payloads = _drain_exchange_futures(
                _submit_shards(pool, worker, jobs, bool(workers) and coupled),
                barrier,
            )
        parts = [FleetResult.from_npz(job[3]) for job in jobs]
        merged = merge_fleet_results(parts, label=label)
        wall_seconds = time.perf_counter() - start
        return merged, payloads, wall_seconds
    except BaseException:
        # A failed sweep keeps nothing: shards that completed before
        # the failure would otherwise orphan their .npz files in a
        # caller-provided shard_dir (the temp dir case is covered by
        # cleanup() below).  Successful sweeps with an explicit
        # shard_dir keep their files, as documented.
        for job in jobs:
            Path(job[3]).unlink(missing_ok=True)
        raise
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

"""Sharded fleet sweeps: multiprocess wall-clock and vectorized prepare.

Perf claims riding this file:

* **Sharding scales out.**  A 400-lane sweep cut into 4 shards runs in
  worker processes; at 4 workers the wall-clock beats the same 4-shard
  sweep on 1 worker by >= 2.5x on a >= 4-core machine (the assertion is
  skipped below 4 cores — there is no parallelism to buy), and the
  merged ``FleetResult`` is bit-identical regardless of worker count:
  shards are deterministic functions of their global lane ranges.

* **Host coupling does not eat the sharding win.**  The cross-shard
  demand exchange (one write into a double-buffered shared block + one
  barrier wait per step) keeps a 400-lane / 80-host sweep bit-identical to the
  single-process run at any worker count, and >= 2x faster at 4
  workers on >= 4 cores.

* **Wave overlap is free to turn on.**  ``wave_workers`` threads the
  independent schema-group waves inside a step; bit-identity is the
  gate, the wall ratio is recorded (it depends on how much of the
  kernels run outside the GIL).

Wall-clock gates are best-of-two per configuration: single-run ratios
on shared machines are too noisy to block on (same policy as the
200-lane 5x gate in ``test_fleet_scale.py`` — a local/driver check,
with only the smoke equality gating CI).
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

SWEEP_LANES = 400
SWEEP_SHARDS = 4
SWEEP_HOURS = 24.0

PREPARE_LANES = 200
PREPARE_HOURS = 24.0

SMOKE_LANES = 50
SMOKE_SHARDS = 2
SMOKE_HOURS = 12.0

HOSTS_SWEEP_HOURS = 24.0
HOSTS_SWEEP_HOSTS = 80

HOSTS_SMOKE_LANES = 16
HOSTS_SMOKE_HOSTS = 5


def assert_results_identical(a, b) -> None:
    assert a.result.series_names() == b.result.series_names()
    assert a.result.lane_labels == b.result.lane_labels
    for name in a.result.series_names():
        np.testing.assert_array_equal(
            a.result.matrix(name), b.result.matrix(name),
            strict=True, err_msg=name,
        )
    assert a.lane_events == b.lane_events
    assert a.hit_rate == b.hit_rate
    assert a.violation_fraction == b.violation_fraction


def assert_host_results_identical(a, b) -> None:
    """Bit-identity for host-coupled runs: series, events, hit rate and
    the theft / overload payload counters."""
    assert a.result.series_names() == b.result.series_names()
    assert a.result.lane_labels == b.result.lane_labels
    for name in a.result.series_names():
        np.testing.assert_array_equal(
            a.result.matrix(name), b.result.matrix(name),
            strict=True, err_msg=name,
        )
    assert a.lane_events == b.lane_events
    assert a.hit_rate == b.hit_rate
    assert a.mean_host_theft == b.mean_host_theft
    assert a.peak_host_theft == b.peak_host_theft
    assert a.host_overload_fraction == b.host_overload_fraction
    assert a.migrations == b.migrations
    assert a.violation_fraction == b.violation_fraction
    assert a.interference_escalations == b.interference_escalations


def test_fleet_sweep_400_lanes_4_workers(benchmark):
    kwargs = dict(
        n_lanes=SWEEP_LANES,
        hours=SWEEP_HOURS,
        shards=SWEEP_SHARDS,
        # Uncontended queue: under contention per-shard profilers
        # legitimately wait less than one fleet-wide queue, and this
        # benchmark gates exact worker-count invariance.
        profiling_slots=SWEEP_LANES,
    )
    serial = run_fleet_multiplexing_study(workers=1, **kwargs)
    serial_wall = serial.engine_seconds
    parallel = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"workers": SWEEP_SHARDS, **kwargs},
        rounds=1,
        iterations=1,
    )
    # Best-of-two for the wall-clock ratio.
    serial_wall = min(
        serial_wall,
        run_fleet_multiplexing_study(workers=1, **kwargs).engine_seconds,
    )
    parallel_wall = min(
        parallel.engine_seconds,
        run_fleet_multiplexing_study(
            workers=SWEEP_SHARDS, **kwargs
        ).engine_seconds,
    )
    speedup = serial_wall / parallel_wall
    cores = os.cpu_count() or 1

    print_figure(
        "Sharded sweep: 400 lanes, 4 shards, 1 vs 4 worker processes",
        [
            f"1 worker: {serial_wall:.2f} s wall; "
            f"{SWEEP_SHARDS} workers: {parallel_wall:.2f} s wall "
            f"-> speedup {speedup:.2f}x on {cores} core(s)",
            f"merged result: {parallel.result.n_lanes} lanes x "
            f"{parallel.result.n_steps} steps, "
            f"{len(parallel.result.series_names())} series, "
            f"bit-identical across worker counts",
            f"learning phases paid (global families): "
            f"{parallel.learning_runs}; hit rate {parallel.hit_rate:.1%}",
        ],
    )
    benchmark.extra_info["serial_wall_seconds"] = serial_wall
    benchmark.extra_info["parallel_wall_seconds"] = parallel_wall
    benchmark.extra_info["shard_speedup"] = speedup
    benchmark.extra_info["cores"] = cores

    # Worker-count invariance is the correctness gate and holds on any
    # machine: same shards, same lanes, same bits.
    assert_results_identical(serial, parallel)
    assert parallel.shards == SWEEP_SHARDS
    assert parallel.n_lanes == SWEEP_LANES
    if cores >= SWEEP_SHARDS:
        assert speedup >= 2.5
    else:
        pytest.skip(
            f"only {cores} core(s): {speedup:.2f}x measured; the 2.5x "
            "wall-clock gate needs >= 4 cores of real parallelism"
        )


def test_fleet_shard_hosts_sweep_400(benchmark):
    """Host-coupled scale-out: the demand exchange must not eat the
    sharding win.  400 lanes packed first-fit-decreasing onto 80
    shared hosts, cut into 4 shards: the merged result is bit-identical
    to the single-process run whether the shards run as threads
    (workers=0) or spawn processes (workers=4), and at 4 workers the
    wall-clock beats single-process by >= 2x on a >= 4-core machine."""
    kwargs = dict(
        n_lanes=SWEEP_LANES,
        hours=HOSTS_SWEEP_HOURS,
        # Uncontended queue, as in the dedicated-hardware sweep: this
        # benchmark gates exact shard/worker invariance.
        profiling_slots=SWEEP_LANES,
        mix="mixed",
        n_hosts=HOSTS_SWEEP_HOSTS,
        placement="first_fit_decreasing",
    )
    single = run_fleet_multiplexing_study(**kwargs)
    threaded = run_fleet_multiplexing_study(
        shards=SWEEP_SHARDS, workers=0, **kwargs
    )
    parallel = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"shards": SWEEP_SHARDS, "workers": SWEEP_SHARDS, **kwargs},
        rounds=1,
        iterations=1,
    )
    # Best-of-two for the wall-clock ratio (same policy as the
    # dedicated-hardware sweep above).
    single_wall = min(
        single.engine_seconds,
        run_fleet_multiplexing_study(**kwargs).engine_seconds,
    )
    parallel_wall = min(
        parallel.engine_seconds,
        run_fleet_multiplexing_study(
            shards=SWEEP_SHARDS, workers=SWEEP_SHARDS, **kwargs
        ).engine_seconds,
    )
    speedup = single_wall / parallel_wall
    cores = os.cpu_count() or 1

    print_figure(
        "Host-coupled sharded sweep: 400 lanes / 80 hosts, 4 shards",
        [
            f"single process: {single_wall:.2f} s wall; "
            f"{SWEEP_SHARDS} workers: {parallel_wall:.2f} s wall "
            f"-> speedup {speedup:.2f}x on {cores} core(s)",
            f"host pressure: mean theft {parallel.mean_host_theft:.3f}, "
            f"overload fraction {parallel.host_overload_fraction:.1%} "
            f"(identical across worker counts)",
            f"merged result: {parallel.result.n_lanes} lanes x "
            f"{parallel.result.n_steps} steps, bit-identical for "
            "workers in {0, 4} and the single process",
        ],
    )
    benchmark.extra_info["single_wall_seconds"] = single_wall
    benchmark.extra_info["parallel_wall_seconds"] = parallel_wall
    benchmark.extra_info["host_shard_speedup"] = speedup
    benchmark.extra_info["mean_host_theft"] = parallel.mean_host_theft
    benchmark.extra_info["cores"] = cores

    assert_host_results_identical(single, threaded)
    assert_host_results_identical(single, parallel)
    # Thread and process shards share everything downstream of the
    # exchange, so sharded-to-sharded even the hit rate matches.
    assert threaded.hit_rate == parallel.hit_rate
    assert parallel.shards == SWEEP_SHARDS and parallel.workers == 4
    assert parallel.mean_host_theft > 0.0
    if cores >= SWEEP_SHARDS:
        assert speedup >= 2.0
    else:
        pytest.skip(
            f"only {cores} core(s): {speedup:.2f}x measured; the 2x "
            "wall-clock gate needs >= 4 cores of real parallelism"
        )


def test_fleet_wave_overlap_200(benchmark):
    """Overlapped lane waves: wave_workers=4 threads the independent
    schema-group waves inside each step.  The contract gated here is
    bit-identity; the walls are recorded, not gated — wave overlap
    buys wall-clock only where the numpy kernels release the GIL, so
    the ratio is machine-dependent in both directions."""
    kwargs = dict(
        n_lanes=PREPARE_LANES, hours=PREPARE_HOURS, mix="mixed"
    )
    serial = run_fleet_multiplexing_study(wave_workers=0, **kwargs)
    overlapped = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"wave_workers": 4, **kwargs},
        rounds=1,
        iterations=1,
    )
    serial_wall = serial.engine_seconds
    overlapped_wall = overlapped.engine_seconds
    ratio = serial_wall / overlapped_wall

    print_figure(
        "Overlapped lane waves: 200 lanes, wave_workers 0 vs 4",
        [
            f"serial: {serial_wall:.2f} s wall; overlapped: "
            f"{overlapped_wall:.2f} s wall -> ratio {ratio:.2f}x on "
            f"{os.cpu_count() or 1} core(s)",
            "bit-identical series and adaptation events",
        ],
    )
    benchmark.extra_info["serial_wall_seconds"] = serial_wall
    benchmark.extra_info["overlapped_wall_seconds"] = overlapped_wall
    benchmark.extra_info["wave_overlap_ratio"] = ratio

    assert_results_identical(serial, overlapped)


def test_fleet_shard_hosts_smoke(benchmark):
    """CI smoke: host-coupled shards (2 shards x 2 workers x 5 hosts)
    must match the thread-mode (workers=0) run bit for bit."""
    kwargs = dict(
        n_lanes=HOSTS_SMOKE_LANES,
        hours=SMOKE_HOURS,
        profiling_slots=HOSTS_SMOKE_LANES,
        mix="mixed",
        n_hosts=HOSTS_SMOKE_HOSTS,
        placement="first_fit_decreasing",
        shards=SMOKE_SHARDS,
    )
    threaded = run_fleet_multiplexing_study(workers=0, **kwargs)
    sharded = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"workers": 2, **kwargs},
        rounds=1,
        iterations=1,
    )
    print_figure(
        "Host-coupled shard smoke: 16 lanes / 5 hosts, 2 shards",
        [
            f"threads {threaded.engine_seconds:.2f} s vs processes "
            f"{sharded.engine_seconds:.2f} s wall (spawn + exchange "
            "overhead included); results bit-identical",
            f"mean host theft {sharded.mean_host_theft:.3f}, overload "
            f"fraction {sharded.host_overload_fraction:.1%}",
        ],
    )
    benchmark.extra_info["threaded_wall_seconds"] = threaded.engine_seconds
    benchmark.extra_info["sharded_wall_seconds"] = sharded.engine_seconds
    benchmark.extra_info["mean_host_theft"] = sharded.mean_host_theft
    assert sharded.shards == SMOKE_SHARDS and sharded.workers == 2
    assert_host_results_identical(threaded, sharded)
    assert threaded.hit_rate == sharded.hit_rate


def test_fleet_shard_smoke_50(benchmark):
    """CI smoke: 2 shards x 2 workers must merge to the single-process
    result, bit for bit."""
    kwargs = dict(
        n_lanes=SMOKE_LANES,
        hours=SMOKE_HOURS,
        profiling_slots=SMOKE_LANES,
    )
    single = run_fleet_multiplexing_study(**kwargs)
    sharded = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"shards": SMOKE_SHARDS, "workers": 2, **kwargs},
        rounds=1,
        iterations=1,
    )
    print_figure(
        "Shard-merge smoke: 50 lanes, 2 shards x 2 workers vs 1 process",
        [
            f"single process {single.engine_seconds:.2f} s vs sharded "
            f"{sharded.engine_seconds:.2f} s wall (spawn + merge "
            "overhead included); results bit-identical",
        ],
    )
    benchmark.extra_info["single_wall_seconds"] = single.engine_seconds
    benchmark.extra_info["sharded_wall_seconds"] = sharded.engine_seconds
    assert sharded.shards == SMOKE_SHARDS and sharded.workers == 2
    assert_results_identical(single, sharded)

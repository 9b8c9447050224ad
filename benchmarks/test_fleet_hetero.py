"""Heterogeneous-fleet benchmark: mixed services on shared hosts.

The paper multiplexes one DejaVu across *different* co-hosted services
(Sec. 4 runs Cassandra scale-out and SPECweb scale-up; Sec. 6 argues
the economics).  This benchmark drives a mixed fleet — alternating
scale-out and scale-up lanes with different observation schemas, placed
on shared hosts — and measures its step throughput against the
homogeneous baseline, so the per-schema buffer split and the host
coupling are priced rather than assumed free.
"""

import time

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

FLEET_LANES = 50
FLEET_HOURS = 12.0
HOSTS = 25  # two lanes per host
HOST_CAPACITY = 12.0


def timed_study(**kwargs):
    start = time.perf_counter()
    study = run_fleet_multiplexing_study(
        n_lanes=FLEET_LANES, hours=FLEET_HOURS, **kwargs
    )
    elapsed = time.perf_counter() - start
    return study, study.n_lanes * study.n_steps / elapsed


def test_fleet_hetero_throughput(benchmark):
    homogeneous, homogeneous_rate = timed_study()

    start = time.perf_counter()
    mixed = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={
            "n_lanes": FLEET_LANES,
            "hours": FLEET_HOURS,
            "mix": "mixed",
            "n_hosts": HOSTS,
            "host_capacity_units": HOST_CAPACITY,
        },
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start
    mixed_rate = mixed.n_lanes * mixed.n_steps / elapsed

    print_figure(
        "Heterogeneous fleet: mixed schemas + shared hosts vs homogeneous",
        [
            f"homogeneous ({homogeneous.config.mix}): "
            f"{homogeneous_rate:,.0f} lane-steps/s, "
            f"{homogeneous.learning_runs} learning phase(s)",
            f"mixed on {mixed.n_hosts} hosts: {mixed_rate:,.0f} lane-steps/s, "
            f"{mixed.learning_runs} learning phase(s), "
            f"{mixed.result.n_schemas} observation schemas",
            f"host pressure: overloaded "
            f"{mixed.host_overload_fraction:.1%} of host-steps, mean theft "
            f"{mixed.mean_host_theft:.1%} (peak {mixed.peak_host_theft:.1%})",
            f"interference-band escalations across services: "
            f"{mixed.interference_escalations}",
            f"relative throughput (mixed / homogeneous): "
            f"{mixed_rate / homogeneous_rate:.2f}x",
        ],
    )
    benchmark.extra_info["homogeneous_lane_steps_per_second"] = homogeneous_rate
    benchmark.extra_info["mixed_lane_steps_per_second"] = mixed_rate
    benchmark.extra_info["relative_throughput"] = mixed_rate / homogeneous_rate
    benchmark.extra_info["host_overload_fraction"] = (
        mixed.host_overload_fraction
    )
    benchmark.extra_info["interference_escalations"] = (
        mixed.interference_escalations
    )

    # The mixed fleet really is heterogeneous: two schemas, batched into
    # separate blocks, one learning phase per family.
    assert mixed.result.n_schemas == 2
    assert mixed.learning_runs == 2
    assert homogeneous.learning_runs == 1
    assert mixed.result.lanes_recording("instances") == tuple(range(0, 50, 2))
    assert mixed.result.lanes_recording("instance_is_xl") == tuple(
        range(1, 50, 2)
    )
    # Shared series span the whole fleet regardless of schema.
    assert mixed.result.matrix("hourly_cost").shape[1] == FLEET_LANES
    # Splitting recording into two schema blocks and recomputing host
    # pressure every step must not cost an order of magnitude.
    assert mixed_rate > 0.25 * homogeneous_rate
    # The mixed fleet keeps the multiplexing economics intact: the
    # profiling environment stays a rounding error and nothing queues
    # long enough to be rejected.
    assert mixed.hit_rate > 0.9
    assert mixed.amortized_profiling_fraction < 0.01
    assert mixed.rejected_profiles == 0

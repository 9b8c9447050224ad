"""Fleet-scale benchmark: hundreds of co-hosted services, one process.

The paper's cost model (Sec. 5) assumes one DejaVu deployment —
profiling environment, signature repository, proxies — serves many
co-hosted services at once.  This benchmark drives a 200-service fleet
for a simulated day on one shared clock and prices the **batched
control plane** against the scalar per-lane step path: same simulation
bit for bit (pinned in ``tests/test_fleet_equivalence.py``), different
loop structure — the batched path consults the shared trained model
once per adaptation wave and observes whole service families in single
vectorized passes.

The headline number is ``lane_steps_per_second`` over the engine run
(``FleetMultiplexingStudy.engine_seconds`` — setup and the one-off
learning day are identical under both paths and excluded).
"""

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

FLEET_LANES = 200
FLEET_HOURS = 24.0

SMOKE_LANES = 50
SMOKE_HOURS = 12.0


def test_fleet_scale_200_services(benchmark):
    scalar = run_fleet_multiplexing_study(
        n_lanes=FLEET_LANES, hours=FLEET_HOURS, batched=False
    )
    # No `batched=` argument: the benchmark also pins that the batched
    # control plane is the default path.
    study = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"n_lanes": FLEET_LANES, "hours": FLEET_HOURS},
        rounds=1,
        iterations=1,
    )
    speedup = study.lane_steps_per_second / scalar.lane_steps_per_second

    print_figure(
        "Fleet scale: 200 services, one shared repository and profiler",
        [
            f"batched control plane: {study.n_lanes} lanes x "
            f"{study.n_steps} steps in {study.engine_seconds:.2f} s "
            f"({study.lane_steps_per_second:,.0f} lane-steps/s)",
            f"scalar per-lane path: {scalar.engine_seconds:.2f} s "
            f"({scalar.lane_steps_per_second:,.0f} lane-steps/s) "
            f"-> batched speedup {speedup:.2f}x",
            f"learning phases paid: {study.learning_runs} "
            f"({study.tuning_invocations} tuner runs for the whole fleet)",
            f"shared-repository hit rate: {study.hit_rate:.1%}",
            f"profiling queue: mean wait {study.mean_queue_wait_seconds:.0f} s, "
            f"max wait {study.max_queue_wait_seconds:.0f} s, "
            f"peak depth {study.max_queue_depth}",
            f"profiling environment cost: "
            f"{study.amortized_profiling_fraction:.2%} of fleet spend",
            f"fleet SLO violations: {study.violation_fraction:.1%} "
            f"(includes the cost of queue-delayed deployments)",
        ],
    )
    benchmark.extra_info["lane_steps_per_second"] = study.lane_steps_per_second
    benchmark.extra_info["scalar_lane_steps_per_second"] = (
        scalar.lane_steps_per_second
    )
    benchmark.extra_info["batched_speedup"] = speedup
    benchmark.extra_info["hit_rate"] = study.hit_rate
    benchmark.extra_info["max_queue_depth"] = study.max_queue_depth
    benchmark.extra_info["amortized_profiling_fraction"] = (
        study.amortized_profiling_fraction
    )

    # The batched control plane is the default and runs the identical
    # simulation at least 3x faster at this scale (bit-level equality
    # is pinned by tests/test_fleet_equivalence.py; the macro numbers
    # must agree here too).
    assert study.config.batched and not scalar.config.batched
    assert speedup >= 3.0
    assert study.hit_rate == scalar.hit_rate
    assert study.violation_fraction == scalar.violation_fraction
    assert study.max_queue_wait_seconds == scalar.max_queue_wait_seconds

    # A 200-lane fleet must run end-to-end in one process, pay exactly
    # one learning phase, and keep reusing the shared repository.
    assert study.n_lanes == FLEET_LANES
    assert study.n_steps == int(FLEET_HOURS * 3600 / study.config.step_seconds)
    assert study.learning_runs == 1
    assert study.hit_rate > 0.9
    # With one profiling slot and 200 services adapting each hour, the
    # queue must actually be contended — and still drain within the hour.
    assert study.max_queue_depth == FLEET_LANES
    assert study.max_queue_wait_seconds <= 3600.0
    assert study.rejected_profiles == 0
    assert study.deferred_adaptations == 0
    # Amortization: the profiling environment is a rounding error at
    # this fleet size (the paper's "cost of the DejaVu system" claim).
    assert study.amortized_profiling_fraction < 0.01
    # Queue feedback makes the contention priced, not free: decisions on
    # late signatures deploy late (up to ~33 min at the back of a
    # 200-deep hourly wave), so the fleet pays a visible-but-bounded SLO
    # cost relative to the ~5% an uncontended profiler would show.
    assert study.violation_fraction < 0.10


def test_fleet_batch_smoke_50(benchmark):
    """CI smoke: the batched path must never lose to the scalar path."""
    scalar = run_fleet_multiplexing_study(
        n_lanes=SMOKE_LANES, hours=SMOKE_HOURS, batched=False
    )
    study = benchmark.pedantic(
        run_fleet_multiplexing_study,
        kwargs={"n_lanes": SMOKE_LANES, "hours": SMOKE_HOURS},
        rounds=1,
        iterations=1,
    )
    speedup = study.lane_steps_per_second / scalar.lane_steps_per_second
    print_figure(
        "Fleet batch smoke: 50 lanes, batched vs scalar",
        [
            f"batched {study.lane_steps_per_second:,.0f} lane-steps/s vs "
            f"scalar {scalar.lane_steps_per_second:,.0f} lane-steps/s "
            f"({speedup:.2f}x)",
        ],
    )
    benchmark.extra_info["lane_steps_per_second"] = study.lane_steps_per_second
    benchmark.extra_info["batched_speedup"] = speedup
    assert study.lane_steps_per_second >= scalar.lane_steps_per_second
    assert study.hit_rate == scalar.hit_rate
    assert study.violation_fraction == scalar.violation_fraction

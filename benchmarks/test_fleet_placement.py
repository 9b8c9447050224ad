"""Placement benchmarks: the frontier study and the host-pass price.

Two claims are on the hook:

* **The placement frontier is real** — on a heterogeneous 50-lane fleet
  (five lane sizes cycling against ten hosts), ``first_fit_decreasing``
  strictly reduces mean host overcommit theft versus ``round_robin`` on
  the *identical* fleet: placement alone moves the interference DejaVu
  has to adapt to.
* **Host coupling stays cheap** — the vectorized ``HostMap.apply_step``
  (one ``np.bincount`` matrix pass over all hosts, dirty-flag capacity
  refresh, fancy-index interference gather) keeps the 200-lane
  hosts-enabled fleet at >= 0.9x the dedicated-hardware (PR 4)
  ``lane_steps_per_second``.

The 20-lane smoke (3 policies, in-process) is the CI gate; CI writes
its numbers to ``BENCH_fleet_placement.json`` and uploads that as a
build artifact (the repository does not track it).  It also pins the
energy axis —
``first_fit_decreasing+consolidate`` must spend strictly fewer
host-hours-on than plain FFD on the identical fleet.  The wall-clock
ratio stays a local/driver check like the other fleet throughput
gates.
"""

import statistics

import pytest

from benchmarks.conftest import print_figure
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.experiments.placement_study import (
    frontier_rows,
    run_placement_sensitivity_study,
)

FLEET_LANES = 200
FLEET_HOURS = 24.0
FLEET_HOSTS = 50
FLEET_HOST_CAPACITY = 20.0
HOSTS_ON = dict(
    n_hosts=FLEET_HOSTS,
    host_capacity_units=FLEET_HOST_CAPACITY,
    placement="first_fit_decreasing",
)

#: Dedicated / hosts-on study pairs, alternating which side runs first.
#: The gate reads the median of the per-pair throughput ratios: on a
#: shared machine one pair's ratio swings by more than the 10% bound,
#: and a best-of-N per side mixes timings taken under different load.
TIMING_PAIRS = 9


def _paired_studies():
    """Run the pairs; returns (per-pair ratios, last dedicated study,
    last hosts-on study)."""
    ratios = []
    for pair in range(TIMING_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        runs = {
            hosts: run_fleet_multiplexing_study(
                n_lanes=FLEET_LANES,
                hours=FLEET_HOURS,
                **(HOSTS_ON if hosts else {}),
            )
            for hosts in order
        }
        ratios.append(
            runs[True].lane_steps_per_second / runs[False].lane_steps_per_second
        )
    return ratios, runs[False], runs[True]


def test_fleet_placement_vectorized_step_200(benchmark):
    """Hosts enabled must keep >= 0.9x the dedicated-hardware throughput."""
    ratios, base, hosted = benchmark.pedantic(
        _paired_studies, rounds=1, iterations=1
    )
    ratio = statistics.median(ratios)
    low, _, high = statistics.quantiles(ratios, n=4)

    print_figure(
        "Fleet placement: 200 lanes, shared hosts vs dedicated hardware",
        [
            f"dedicated: {base.lane_steps_per_second:,.0f} lane-steps/s "
            f"({base.engine_seconds:.2f} s engine, last of {TIMING_PAIRS} "
            "pairs)",
            f"hosts on ({FLEET_HOSTS} x {FLEET_HOST_CAPACITY:.0f} units, "
            f"first_fit_decreasing, allocation-aware footprints): "
            f"{hosted.lane_steps_per_second:,.0f} lane-steps/s "
            f"({hosted.engine_seconds:.2f} s)",
            f"throughput kept: {ratio:.2f}x median of {TIMING_PAIRS} pair "
            f"ratios (quartiles {low:.2f}-{high:.2f}; one matrix pass per "
            f"step over all {FLEET_HOSTS} hosts)",
            "pair ratios: " + " ".join(f"{r:.2f}" for r in ratios),
            f"coupling live: mean theft {hosted.mean_host_theft:.3%}, "
            f"peak {hosted.peak_host_theft:.1%}, "
            f"{hosted.interference_escalations} escalation(s)",
        ],
    )
    benchmark.extra_info["lane_steps_per_second"] = (
        hosted.lane_steps_per_second
    )
    benchmark.extra_info["dedicated_lane_steps_per_second"] = (
        base.lane_steps_per_second
    )
    benchmark.extra_info["hosts_throughput_ratio"] = ratio
    benchmark.extra_info["hosts_throughput_pair_ratios"] = ratios
    benchmark.extra_info["mean_host_theft"] = hosted.mean_host_theft

    assert hosted.n_hosts == FLEET_HOSTS
    assert hosted.config.placement == "first_fit_decreasing"
    # The coupling must actually run (not a degenerate empty host map).
    assert hosted.host_overload_fraction > 0.0
    assert hosted.peak_host_theft > 0.0
    # The vectorized host pass keeps >= 0.9x the PR 4 throughput.
    assert ratio >= 0.9


def test_placement_frontier_50(benchmark):
    """The acceptance frontier: FFD strictly beats round-robin on theft."""
    study = benchmark.pedantic(
        run_placement_sensitivity_study,
        kwargs=dict(
            policies=(
                "round_robin",
                "block",
                "first_fit_decreasing",
                "best_fit",
            )
        ),
        rounds=1,
        iterations=1,
    )
    print_figure(
        f"Placement frontier: {study.config.n_lanes} heterogeneous lanes "
        f"on {study.config.n_hosts} hosts",
        frontier_rows(study),
    )
    round_robin = study.point("round_robin").study
    ffd = study.point("first_fit_decreasing").study
    benchmark.extra_info["round_robin_mean_theft"] = (
        round_robin.mean_host_theft
    )
    benchmark.extra_info["ffd_mean_theft"] = ffd.mean_host_theft
    benchmark.extra_info["best_policy"] = study.best.policy

    assert study.config.n_lanes == 50 and study.config.mix == "mixed"
    # Same fleet, same spend envelope — only the packing differs.
    assert round_robin.fleet_hourly_cost == pytest.approx(
        ffd.fleet_hourly_cost, rel=0.05
    )
    # The acceptance criterion: FFD strictly reduces mean overcommit
    # theft versus round-robin on the heterogeneous 50-lane fleet.
    assert round_robin.mean_host_theft > 0.0
    assert ffd.mean_host_theft < round_robin.mean_host_theft
    assert ffd.violation_fraction <= round_robin.violation_fraction


def test_placement_smoke_20(benchmark):
    """CI smoke: 3 policies x 20 lanes, in-process (workers=0)."""
    study = benchmark.pedantic(
        run_placement_sensitivity_study,
        kwargs=dict(
            n_lanes=20,
            hours=24.0,
            n_hosts=5,
            host_capacity_units=24.0,
            policies=(
                "round_robin",
                "first_fit_decreasing",
                "first_fit_decreasing+consolidate",
            ),
            workers=0,
        ),
        rounds=1,
        iterations=1,
    )
    print_figure(
        "Placement smoke: 20 lanes, round_robin vs FFD vs FFD+consolidate",
        frontier_rows(study),
    )
    round_robin = study.point("round_robin").study
    ffd = study.point("first_fit_decreasing").study
    consolidate = study.point("first_fit_decreasing+consolidate").study
    benchmark.extra_info["round_robin_mean_theft"] = (
        round_robin.mean_host_theft
    )
    benchmark.extra_info["ffd_mean_theft"] = ffd.mean_host_theft
    benchmark.extra_info["round_robin_violations"] = (
        round_robin.violation_fraction
    )
    benchmark.extra_info["ffd_violations"] = ffd.violation_fraction
    benchmark.extra_info["ffd_host_hours_on"] = ffd.host_hours_on
    benchmark.extra_info["consolidate_host_hours_on"] = (
        consolidate.host_hours_on
    )
    benchmark.extra_info["consolidate_mean_hosts_on"] = (
        consolidate.mean_hosts_on
    )
    benchmark.extra_info["consolidate_migrations"] = consolidate.migrations

    assert len(study.points) == 3
    assert round_robin.mean_host_theft > 0.0
    assert ffd.mean_host_theft <= round_robin.mean_host_theft
    # The energy acceptance criterion: draining cold hosts powers some
    # off, so consolidation spends strictly fewer host-hours-on than
    # plain FFD on the identical fleet (the drains really happened —
    # migrations prove the blackouts were paid, not dodged).
    assert ffd.host_hours_on > 0.0
    assert consolidate.host_hours_on < ffd.host_hours_on
    assert consolidate.migrations > 0
    for point in study.points:
        assert point.study.hit_rate > 0.8
        assert 0.0 <= point.study.violation_fraction <= 1.0

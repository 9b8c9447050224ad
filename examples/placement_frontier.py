"""Placement-sensitivity frontier: how much does VM placement matter?

DejaVu adapts to co-tenant interference (Sec. 3.6) — but the amount of
interference a fleet suffers is itself a *placement decision*.  This
example runs the **same heterogeneous fleet** (mixed scale-out/scale-up
lanes whose trace peaks cycle through several sizes) under each
placement policy in ``repro.sim.placement`` and prints the frontier:
SLO violations, fleet spend, overcommit theft, interference-band
escalations, migrations, and host-hours powered on per policy.

The default configuration is adversarial to round-robin on purpose:
with five lane sizes cycling against a host count that is a multiple of
five, round-robin keeps stacking equal-sized lanes onto the same hosts,
while first-fit-decreasing packs by measured demand.  A ``+migrate``
policy additionally re-packs the worst-pressure host online, charging
each moved lane a blackout window (the paper's Sec. 3 VM-cloning cost);
a ``+consolidate`` policy drains cold hosts instead so off-peak hours
power hosts down — the energy axis of the frontier.

``--placement-demand forecast`` packs by the seasonal predicted-peak
window from ``repro.sim.forecast`` instead of the learning-day observed
peak.  ``--auto-tune`` first runs the explore-then-exploit knob search
over (rebalance cadence, blackout) candidates on a short horizon and
uses the winner for the consolidation run.

    python examples/placement_frontier.py
    python examples/placement_frontier.py --lanes 50 --hosts 10 --hours 24
    python examples/placement_frontier.py --placement-demand forecast --auto-tune
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.multiplexing_study import FleetConfig
from repro.experiments.placement_study import (
    frontier_rows,
    run_placement_sensitivity_study,
    tune_migration_policy,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lanes", type=int, default=20)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--hosts", type=int, default=5)
    parser.add_argument("--host-capacity", type=float, default=24.0)
    parser.add_argument(
        "--policies",
        nargs="+",
        default=[
            "round_robin",
            "block",
            "first_fit_decreasing",
            "best_fit",
            "round_robin+migrate",
            "first_fit_decreasing+consolidate",
        ],
    )
    parser.add_argument(
        "--placement-demand",
        choices=["learning-peak", "forecast"],
        default="learning-peak",
        help="estimate packed at placement time: learning-day observed "
        "peak or the seasonal forecast's predicted-peak window",
    )
    parser.add_argument(
        "--power-cost",
        type=float,
        default=0.12,
        help="$ per host-hour powered on, used to price the energy axis",
    )
    parser.add_argument(
        "--auto-tune",
        action="store_true",
        help="explore-then-exploit the consolidation knobs on a short "
        "horizon before the full-length study",
    )
    parser.add_argument(
        "--demand-factors",
        type=float,
        nargs="+",
        default=[0.7, 0.85, 1.0, 1.1, 1.2],
    )
    args = parser.parse_args()

    rebalance_every, blackout_seconds = 12, 600.0
    if args.auto_tune:
        tuning = tune_migration_policy(
            FleetConfig(
                n_lanes=args.lanes,
                n_hosts=args.hosts,
                host_capacity_units=args.host_capacity,
                demand_factors=tuple(args.demand_factors),
                placement="first_fit_decreasing",
                placement_demand=args.placement_demand,
            ),
            explore_hours=min(6.0, args.hours),
            power_cost_per_host_hour=args.power_cost,
        )
        rebalance_every = tuning.policy.rebalance_every
        blackout_seconds = tuning.policy.blackout_seconds
        print(
            f"== auto-tune: explored {len(tuning.rounds)} knob candidates, "
            f"exploiting rebalance_every={rebalance_every} "
            f"blackout={blackout_seconds:.0f}s "
            f"(${tuning.best_cost:,.2f}/h equivalent)"
        )

    print(
        f"== placement frontier: {args.lanes} heterogeneous lanes on "
        f"{args.hosts} x {args.host_capacity:.0f}-unit hosts, "
        f"{args.hours:.0f} h, {args.placement_demand} packing estimates"
    )
    study = run_placement_sensitivity_study(
        n_lanes=args.lanes,
        hours=args.hours,
        policies=tuple(args.policies),
        n_hosts=args.hosts,
        host_capacity_units=args.host_capacity,
        demand_factors=tuple(args.demand_factors),
        placement_demand=args.placement_demand,
        rebalance_every=rebalance_every,
        blackout_seconds=blackout_seconds,
    )
    for row in frontier_rows(study):
        print(row)

    rr = study.point("round_robin").study
    best = study.best
    if best.study.mean_host_theft < rr.mean_host_theft:
        print(
            f"\nplacement is a control knob: {best.policy} cuts mean "
            f"overcommit theft {rr.mean_host_theft:.3%} -> "
            f"{best.study.mean_host_theft:.3%} vs round-robin on the "
            f"identical fleet — interference DejaVu never has to adapt to"
        )

    consolidated = [p for p in study.points if p.policy.endswith("+consolidate")]
    packed = [
        p
        for p in study.points
        if p.policy == "first_fit_decreasing"
    ]
    if consolidated and packed:
        cold, warm = consolidated[0], packed[0]
        saved = warm.study.host_hours_on - cold.study.host_hours_on
        print(
            f"consolidation is an energy knob: {cold.policy} powers "
            f"{cold.study.host_hours_on:.1f} host-hours vs "
            f"{warm.study.host_hours_on:.1f} for {warm.policy} "
            f"({saved:.1f} host-hours / "
            f"${saved * args.power_cost:,.2f} saved at "
            f"${args.power_cost:.2f}/host-hour), paying "
            f"{cold.study.migrations} migration blackouts for it"
        )


if __name__ == "__main__":
    main()

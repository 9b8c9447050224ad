"""Command-line interface for the reproduction.

    python -m repro.cli list
    python -m repro.cli run fig6
    python -m repro.cli run all --seed 3
    python -m repro.cli fleet --lanes 200 --hours 24
    python -m repro.cli fleet --lanes 8 --mix mixed --hosts 4
    python -m repro.cli fleet --lanes 50 --hosts 10 --placement first_fit_decreasing
    python -m repro.cli fleet --lanes 400 --shards 4 --workers 4
    python -m repro.cli fleet --lanes 12 --queue-policy priority --resignature-every 600
    python -m repro.cli fleet --lanes 8 --hosts 3 --faults "host:0@40+30,profiler@30+18"
    python -m repro.cli placement --lanes 50 --hosts 10
    python -m repro.cli scenario list
    python -m repro.cli scenario run scenarios/SYN-lane-ramp.yaml

Each experiment name maps to the table/figure it regenerates; ``run``
prints the headline numbers the paper's text quotes (the benchmark
suite under ``benchmarks/`` prints the full series).  ``fleet`` runs
the fleet-scale multiplexing study: N co-hosted services sharing one
signature repository per service family and one bounded profiling
queue (Sec. 5).  ``--mix`` picks the composition — ``scaleout``
(Cassandra-style), ``scaleup`` (SPECweb-style) or ``mixed``
(alternating, with per-lane observation schemas) — and ``--hosts``
places the lanes onto that many shared simulated hosts so co-located
services steal capacity from each other and interference-band
escalation fires across lanes (Sec. 3.6 at fleet scale).
``--queue-policy priority`` turns the shared profiling queue into an
admission market (escalations outbid routine re-signatures; watermarks
shed; queued low-value work is evictable) — the default ``fifo`` keeps
the original bounded queue bit for bit.
``--faults`` injects a deterministic fault schedule
(``repro.sim.faults`` DSL): scripted or seeded host deaths trigger an
emergency evacuation paying the Sec. 3 VM-cloning blackout, and
profiler outages revoke in-flight signature runs, which the managers
survive via bounded retry-with-backoff plus a last-known-good degraded
fallback (``--no-fault-recovery`` keeps the faults but disables the
responses — the baseline arm).
``--placement`` selects the policy that packs lanes onto those hosts
(``repro.sim.placement``: round_robin, block, first_fit_decreasing,
best_fit).  ``--shards``/``--workers`` partition the fleet into
contiguous lane-range shards run by worker processes and merged exactly
(``repro.sim.shard``); with ``--hosts`` the shards stay host-coupled
through the cross-shard demand exchange (``repro.sim.exchange``,
``--exchange-every`` paces the barrier) and ``--wave-workers`` overlaps
independent control-plane waves inside each engine.  The flags build
one ``FleetConfig`` (``repro.experiments.multiplexing_study``), which
owns every default and cross-field rule; a rule it rejects exits 2
naming the flags involved.  ``--placement-demand forecast`` packs
lanes by their seasonal predicted peak (``repro.sim.forecast``)
instead of the learning-day observed peak, and ``--consolidate`` runs
the migration planner in consolidation mode (drain the coldest
feasible host so it can power off); ``--power-cost`` prices the
resulting host-hours-on axis.  ``placement`` runs the
placement-sensitivity study: the *same* fleet under each policy,
printing the SLO-violation/cost/theft/energy frontier per policy
(policies accept a ``+migrate`` suffix to re-pack the worst-pressure
host online, charging migrated lanes a blackout window, or
``+consolidate`` to also drain cold hosts).  ``scenario``
drives the declarative scenario library (``repro.scenarios``): ``run``
executes YAML/JSON scenario documents and emits one JSONL record per
scenario x policy on stdout; ``list`` shows the library.
"""

from __future__ import annotations

import argparse
import re
from typing import Callable


def _fig1(seed: int) -> list[str]:
    from repro.experiments.motivation import run_motivation_experiment

    result = run_motivation_experiment()
    return [
        f"SLO violated {result.slo.violation_fraction:.0%} of the time",
        f"{result.tuning_invocations} tuning invocations "
        f"({result.total_tuning_seconds / 60:.0f} min of experiments)",
    ]


def _fig4(seed: int) -> list[str]:
    from repro.experiments.signatures import run_separability

    return [
        f"{name}: min gap / spread = "
        f"{run_separability(name, seed=seed).min_gap_over_spread:.2f}"
        for name in ("specweb", "rubis", "cassandra")
    ]


def _table1(seed: int) -> list[str]:
    from repro.experiments.signatures import run_table1_selection, table1_overlap

    selection = run_table1_selection(seed=seed)
    return [
        f"selected: {', '.join(selection.selected)}",
        f"{len(table1_overlap(selection))} of them in the paper's Table 1",
    ]


def _fig5(seed: int) -> list[str]:
    from repro.experiments.signatures import run_fig5_clustering

    rows = []
    for trace in ("messenger", "hotmail"):
        figure = run_fig5_clustering(trace, seed=seed)
        rows.append(
            f"{trace}: {figure.n_workloads} workloads -> "
            f"{figure.n_classes} classes"
        )
    return rows


def _scaleout(trace: str, seed: int) -> list[str]:
    from repro.experiments.scaling import run_scaleout_comparison

    comparison = run_scaleout_comparison(trace, seed=seed)
    return [
        f"classes: {comparison.n_classes}; cache misses: {comparison.n_misses}",
        f"saving vs always-max: "
        f"{comparison.costs['dejavu'].saving_fraction:.0%}",
        f"SLO violations: DejaVu "
        f"{comparison.slo['dejavu'].violation_fraction:.1%} | Autopilot "
        f"{comparison.slo['autopilot'].violation_fraction:.1%}",
    ]


def _scaleup(trace: str, seed: int) -> list[str]:
    from repro.experiments.scaling import run_scaleup_comparison

    comparison = run_scaleup_comparison(trace, seed=seed)
    return [
        f"classes: {comparison.n_classes}",
        f"saving vs always-XL: {comparison.costs['dejavu'].saving_fraction:.0%}",
        f"QoS violations: {comparison.slo['dejavu'].violation_fraction:.1%}",
    ]


def _fig8(seed: int) -> list[str]:
    from repro.experiments.adaptation_study import (
        run_dejavu_adaptation,
        run_rightscale_adaptation,
        speedup,
    )

    dejavu = run_dejavu_adaptation()
    rs_fast = run_rightscale_adaptation(180.0)
    rs_slow = run_rightscale_adaptation(900.0)
    return [
        f"DejaVu {dejavu.mean_seconds:.0f} s | RightScale "
        f"{rs_fast.mean_seconds:.0f} s (3 min calm) / "
        f"{rs_slow.mean_seconds:.0f} s (15 min calm)",
        f"speedup: {speedup(dejavu, rs_fast):.0f}x / {speedup(dejavu, rs_slow):.0f}x",
    ]


def _fig11(seed: int) -> list[str]:
    from repro.experiments.interference_study import run_interference_study

    study = run_interference_study(seed=seed)
    return [
        f"violations: detection ON {study.slo_with.violation_fraction:.1%} | "
        f"OFF {study.slo_without.violation_fraction:.1%}",
        f"mean instances: ON {study.mean_instances_with:.2f} | "
        f"OFF {study.mean_instances_without:.2f}",
    ]


def _overhead(seed: int) -> list[str]:
    from repro.experiments.overhead import (
        run_latency_overhead,
        run_network_overhead,
    )

    net = run_network_overhead(100, seed=seed)
    lat = run_latency_overhead()
    return [
        f"network: {net.duplication_fraction:.2%} of inbound, "
        f"{net.total_overhead_fraction:.3%} of total traffic",
        f"latency: +{lat.mean_overhead_ms:.1f} ms mean across "
        f"{lat.client_counts[0]}-{lat.client_counts[-1]} clients",
    ]


def _summary(seed: int) -> list[str]:
    from repro.experiments.summary import run_savings_summary

    summary = run_savings_summary(seed=seed)
    return [
        f"scale-out savings: {summary.scaleout_messenger:.0%} (Messenger), "
        f"{summary.scaleout_hotmail:.0%} (HotMail)",
        f"scale-up savings: {summary.scaleup_messenger:.0%} (Messenger), "
        f"{summary.scaleup_hotmail:.0%} (HotMail)",
        f"fleet-year projection: ${summary.dollars_per_year_100:,.0f} (100 "
        f"instances), ${summary.dollars_per_year_1000:,.0f} (1,000)",
    ]


EXPERIMENTS: dict[str, tuple[str, Callable[[int], list[str]]]] = {
    "fig1": ("motivation: online tuning under a sine wave", _fig1),
    "fig4": ("signature separability per benchmark", _fig4),
    "table1": ("CFS-selected RUBiS signature events", _table1),
    "fig5": ("workload-class clustering", _fig5),
    "fig6": ("scale-out, Messenger trace", lambda s: _scaleout("messenger", s)),
    "fig7": ("scale-out, HotMail trace", lambda s: _scaleout("hotmail", s)),
    "fig8": ("adaptation time vs RightScale", _fig8),
    "fig9": ("scale-up, HotMail trace", lambda s: _scaleup("hotmail", s)),
    "fig10": ("scale-up, Messenger trace", lambda s: _scaleup("messenger", s)),
    "fig11": ("interference detection", _fig11),
    "overhead": ("Sec. 4.4 proxy overheads", _overhead),
    "summary": ("Sec. 4.5 savings summary", _summary),
}


def _subparser(parser: argparse.ArgumentParser, name: str):
    """The parser of one subcommand."""
    (subparsers,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices[name]


def _named_flags(parser: argparse.ArgumentParser, message: str) -> str:
    """The flags whose ``dest`` a config error message names."""
    return ", ".join(
        "/".join(action.option_strings)
        for action in parser._actions
        if action.option_strings
        and re.search(rf"\b{action.dest}\b", message)
    )


def _fleet_config(args, schedule):
    from repro.experiments.multiplexing_study import FleetConfig
    from repro.sim.placement import MigrationPolicy

    fields = {
        name: value
        for name, value in vars(args).items()
        if name in FleetConfig.__dataclass_fields__
    }
    fields["n_hosts"] = args.n_hosts or None
    fields["faults"] = schedule
    fields["migration"] = (
        MigrationPolicy(
            rebalance_every=args.rebalance_every,
            mode="consolidate" if args.consolidate else "pressure",
        )
        if args.migration or args.consolidate
        else None
    )
    return FleetConfig(**fields)


def _fleet_rows(config, power_cost: float | None) -> list[str]:
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    study = run_fleet_multiplexing_study(config)
    path = "batched" if config.batched else "scalar"
    engine_label = (
        "in the engine"
        if study.shards == 1
        else f"wall, {study.shards} shards x {study.workers} worker(s)"
    )
    rows = [
        f"{study.n_lanes} services ({config.mix}) x {study.n_steps} steps "
        f"({config.step_seconds:.0f} s each) on one shared clock",
        f"{path} control plane: "
        f"{study.lane_steps_per_second:,.0f} "
        f"lane-steps/s ({study.engine_seconds:.2f} s {engine_label})",
        f"learning phases paid: {study.learning_runs} "
        f"({study.tuning_invocations} tuner runs, amortized fleet-wide)",
        f"shared-repository hit rate: {study.hit_rate:.1%}",
        f"profiling queue ({config.profiling_slots} slot(s), "
        f"{config.queue_policy} admission): mean wait "
        f"{study.mean_queue_wait_seconds:.0f} s, max wait "
        f"{study.max_queue_wait_seconds:.0f} s, peak depth "
        f"{study.max_queue_depth}, utilization "
        f"{study.profiler_utilization:.1%}",
        f"queue outcomes: {study.accepted_profiles} accepted, "
        f"{study.rejected_profiles} rejected, "
        f"{study.evicted_profiles} evicted, "
        f"{study.shed_profiles} shed",
        f"fleet production spend: ${study.fleet_hourly_cost:,.2f}/h; "
        f"profiling environment adds "
        f"{study.amortized_profiling_fraction:.2%} of that",
        f"SLO violations across the fleet: {study.violation_fraction:.1%}",
    ]
    if study.deferred_adaptations:
        rows.append(
            f"adaptations deferred by queue back-pressure: "
            f"{study.deferred_adaptations}"
        )
    if study.n_hosts:
        rows.append(
            f"shared hosts ({study.n_hosts} x "
            f"{config.host_capacity_units:.0f} units, {config.placement} "
            f"placement): overloaded "
            f"{study.host_overload_fraction:.1%} of host-steps, mean theft "
            f"{study.mean_host_theft:.1%} (peak {study.peak_host_theft:.1%}), "
            f"{study.interference_escalations} interference-band "
            f"escalation(s)"
        )
        energy = (
            f"energy ({config.placement_demand} packing estimates): "
            f"{study.host_hours_on:.1f} host-hours on "
            f"({study.mean_hosts_on:.2f} hosts on average)"
        )
        if power_cost is not None:
            energy += f", ${study.host_hours_on * power_cost:,.2f} power"
        rows.append(energy)
    if study.host_failures or study.revoked_profiles:
        rows.append(
            f"faults: {study.host_failures} host failure(s) / "
            f"{study.host_recoveries} recovery(ies), "
            f"{study.evacuations} evacuation(s) "
            f"({study.unplaced_evacuations} unplaceable), "
            f"{study.revoked_profiles} grant(s) revoked -> "
            f"{study.profiling_retries} retry(ies), "
            f"{study.degraded_adaptations} degraded fallback(s), "
            f"{study.revoked_adaptations} abandoned"
        )
    return rows


def _placement_rows(args) -> list[str]:
    from repro.experiments.placement_study import (
        frontier_rows,
        run_placement_sensitivity_study,
    )

    study = run_placement_sensitivity_study(
        n_lanes=args.lanes,
        hours=args.hours,
        policies=tuple(args.policies),
        n_hosts=args.hosts,
        host_capacity_units=args.host_capacity,
        mix=args.mix,
        demand_factors=tuple(args.demand_factors),
        placement_demand=args.placement_demand,
        rebalance_every=args.rebalance_every,
        seed=args.seed,
    )
    return frontier_rows(study)


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DejaVu (ASPLOS'12) reproduction experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the available experiments")
    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--seed", type=int, default=0)
    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale multiplexing study (shared repository + profiler)",
    )
    fleet.add_argument("--lanes", dest="n_lanes", type=int, default=8)
    fleet.add_argument("--hours", type=float, default=24.0)
    fleet.add_argument(
        "--step", dest="step_seconds", type=float, default=300.0
    )
    fleet.add_argument("--slots", dest="profiling_slots", type=int, default=1)
    fleet.add_argument(
        "--queue-policy",
        choices=["fifo", "priority"],
        default="fifo",
        help="profiling-queue admission discipline: fifo (the original "
        "bounded queue) or priority (escalation probes and "
        "violation-triggered adaptations outbid routine re-signatures "
        "and relearn sweeps; queued low-value work is evictable)",
    )
    fleet.add_argument(
        "--high-watermark",
        dest="queue_high_watermark",
        type=_nonnegative_int,
        default=None,
        help="pending depth at which the priority queue starts shedding "
        "low-priority requests (requires --queue-policy priority and "
        "--low-watermark)",
    )
    fleet.add_argument(
        "--low-watermark",
        dest="queue_low_watermark",
        type=_nonnegative_int,
        default=None,
        help="pending depth at which watermark shedding stops again",
    )
    fleet.add_argument(
        "--resignature-every",
        dest="resignature_every_seconds",
        type=_positive_float,
        default=None,
        help="give every lane a routine re-signature stream with this "
        "period in seconds (lowest priority: the background traffic "
        "the admission market sheds first)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--mix",
        choices=["scaleout", "scaleup", "mixed"],
        default="scaleout",
        help="lane composition: homogeneous Cassandra scale-out, "
        "homogeneous SPECweb scale-up, or alternating both",
    )
    fleet.add_argument(
        "--hosts",
        dest="n_hosts",
        type=_nonnegative_int,
        default=0,
        help="place lanes round-robin onto this many shared hosts "
        "(0 = dedicated hardware, no cross-lane interference)",
    )
    fleet.add_argument(
        "--host-capacity",
        dest="host_capacity_units",
        type=_positive_float,
        default=12.0,
        help="capacity units of each shared host",
    )
    fleet.add_argument(
        "--placement",
        choices=["round_robin", "block", "first_fit_decreasing", "best_fit"],
        default=None,
        help="policy packing lanes onto the shared hosts "
        "(repro.sim.placement; requires --hosts; "
        "default round_robin when hosts are enabled)",
    )
    fleet.add_argument(
        "--placement-demand",
        choices=["learning-peak", "forecast"],
        default=None,
        help="demand estimate lanes are packed with: learning-peak "
        "(max day-0 hourly demand, the original behaviour) or "
        "forecast (repro.sim.forecast seasonal predicted peak; "
        "requires --hosts)",
    )
    fleet.add_argument(
        "--migration",
        action="store_true",
        help="re-pack the worst-pressure host online every "
        "--rebalance-every steps, charging migrated lanes a blackout "
        "window (requires --hosts)",
    )
    fleet.add_argument(
        "--consolidate",
        action="store_true",
        help="run the migration planner in consolidation mode: relieve "
        "pressure first, then drain the coldest feasible host so it "
        "can power off, paying each drained lane the VM-cloning "
        "blackout (implies --migration; requires --hosts)",
    )
    fleet.add_argument(
        "--power-cost",
        type=_positive_float,
        default=None,
        help="dollars per host-hour-on; prices the energy axis in the "
        "fleet report (requires --hosts)",
    )
    fleet.add_argument(
        "--rebalance-every",
        type=int,
        default=12,
        help="steps between migration rebalances (with --migration)",
    )
    fleet.add_argument(
        "--batch",
        dest="batched",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the batched fleet control plane (--no-batch keeps the "
        "scalar per-lane step path reachable for A/B runs)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the fleet into this many contiguous lane-range "
        "shards (each with its own profiling environment)",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes executing the shards (default "
        "min(shards, cpus), or the shard count on host-coupled "
        "sweeps; 0 runs shards inline in this process)",
    )
    fleet.add_argument(
        "--shard-dir",
        default=None,
        help="keep the per-shard .npz result files in this directory "
        "(default: a temporary directory, cleaned up)",
    )
    fleet.add_argument(
        "--exchange-every",
        type=int,
        default=1,
        help="steps between cross-shard demand exchanges on a "
        "host-coupled sharded sweep (1 = every step, bit-identical to "
        "single-process; larger periods approximate)",
    )
    fleet.add_argument(
        "--wave-workers",
        type=_nonnegative_int,
        default=0,
        help="threads overlapping independent control-plane waves "
        "inside each engine (0 = serial reference path, bit-identical "
        "either way; requires --batch)",
    )
    fleet.add_argument(
        "--faults",
        default=None,
        help="deterministic fault schedule (repro.sim.faults DSL): "
        "'host:1@40+30' kills host 1 at step 40 for 30 steps, "
        "'profiler@30+18' takes the shared profiler dark, "
        "'random:3@7' adds 3 seeded host faults; knobs like "
        "'retries=2', 'blackout=300', 'recovery=off' ride in the "
        "same comma-separated string (host faults require --hosts)",
    )
    fleet.add_argument(
        "--fault-blackout",
        type=_positive_float,
        default=None,
        help="blackout seconds charged to each evacuated lane, "
        "overriding the schedule's blackout= knob (requires --faults)",
    )
    fleet.add_argument(
        "--fault-residual",
        type=float,
        default=None,
        help="residual capacity rate in [0, 1) for dead-host lanes no "
        "survivor could absorb (requires --faults)",
    )
    fleet.add_argument(
        "--fault-retries",
        type=_nonnegative_int,
        default=None,
        help="revocation retry budget per adaptation decision "
        "(requires --faults)",
    )
    fleet.add_argument(
        "--no-fault-recovery",
        action="store_true",
        help="keep the fault timeline but disable the recovery "
        "responses — evacuation, retries, degraded fallback — the "
        "no-recovery baseline arm (requires --faults)",
    )
    placement = subparsers.add_parser(
        "placement",
        help="placement-sensitivity study: same fleet, different packings "
        "-> SLO/cost/theft frontier per policy",
    )
    placement.add_argument("--lanes", type=int, default=50)
    placement.add_argument("--hours", type=float, default=24.0)
    placement.add_argument("--hosts", type=int, default=10)
    placement.add_argument(
        "--host-capacity",
        type=_positive_float,
        default=30.0,
        help="capacity units of each shared host",
    )
    placement.add_argument(
        "--mix",
        choices=["scaleout", "scaleup", "mixed"],
        default="mixed",
    )
    placement.add_argument(
        "--policies",
        nargs="+",
        default=[
            "round_robin",
            "block",
            "first_fit_decreasing",
            "best_fit",
        ],
        help="placement policies to sweep; append '+migrate' to a name "
        "to re-pack the worst-pressure host online, or '+consolidate' "
        "to also drain cold hosts so they can power off",
    )
    placement.add_argument(
        "--placement-demand",
        choices=["learning-peak", "forecast"],
        default="learning-peak",
        help="demand estimate lanes are packed with (forecast = "
        "repro.sim.forecast seasonal predicted peak)",
    )
    placement.add_argument(
        "--demand-factors",
        type=_positive_float,
        nargs="+",
        default=[0.7, 0.85, 1.0, 1.1, 1.2],
        help="per-lane peak-demand multipliers (cycled) making the "
        "fleet heterogeneous in size",
    )
    placement.add_argument(
        "--rebalance-every",
        type=int,
        default=12,
        help="steps between migrations for '+migrate' policies",
    )
    placement.add_argument("--seed", type=int, default=0)
    scenario = subparsers.add_parser(
        "scenario",
        help="declarative scenario library (repro.scenarios)",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_run = scenario_sub.add_parser(
        "run",
        help="run scenario documents; one JSONL record per "
        "scenario x policy on stdout",
    )
    scenario_run.add_argument("files", nargs="+", metavar="FILE")
    scenario_run.add_argument(
        "--out",
        default=None,
        help="additionally write the JSONL records to this file",
    )
    scenario_run.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=None,
        help="override the documents' worker counts (0 = inline)",
    )
    scenario_list = scenario_sub.add_parser(
        "list", help="list the scenario documents in a directory"
    )
    scenario_list.add_argument(
        "--dir",
        default="scenarios",
        help="directory holding the scenario documents",
    )
    return parser


def _scenario_rows(args) -> int:
    import json
    import sys

    from repro.scenarios import (
        list_scenarios,
        load_scenario,
        record_to_dict,
        run_scenario,
    )

    if args.scenario_command == "list":
        scenarios = list_scenarios(args.dir)
        if not scenarios:
            print(f"no scenario documents under {args.dir!r}")
            return 0
        for scenario in scenarios:
            print(
                f"{scenario.id:<24} {scenario.study:<10} {scenario.label}"
            )
        return 0
    lines = []
    for file in args.files:
        scenario = load_scenario(file)
        print(f"running {scenario.id} ({file})...", file=sys.stderr)
        for record in run_scenario(scenario, workers=args.workers):
            line = json.dumps(record_to_dict(record), sort_keys=True)
            print(line)
            lines.append(line)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        print(f"{len(lines)} record(s) -> {args.out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name, (description, _fn) in EXPERIMENTS.items():
            print(f"{name:<9} {description}")
        return 0
    if args.command == "scenario":
        return _scenario_rows(args)
    if args.command == "fleet":
        if args.n_hosts == 0 and args.power_cost is not None:
            parser.error(
                "--power-cost prices host-hours-on; "
                "pass --hosts N (>= 1)"
            )
        if args.shards == 1 and args.workers is not None:
            parser.error(
                f"--workers {args.workers} has no effect without "
                "sharding; pass --shards N (>= 2)"
            )
        if args.shards == 1 and args.shard_dir is not None:
            parser.error(
                f"--shard-dir {args.shard_dir} has no effect without "
                "sharding; pass --shards N (>= 2)"
            )
        schedule = None
        knobs = [
            name
            for name, given in (
                ("--fault-blackout", args.fault_blackout is not None),
                ("--fault-residual", args.fault_residual is not None),
                ("--fault-retries", args.fault_retries is not None),
                ("--no-fault-recovery", args.no_fault_recovery),
            )
            if given
        ]
        if args.faults is None:
            if knobs:
                parser.error(
                    f"{', '.join(knobs)} tune(s) a fault schedule; "
                    "pass --faults SPEC"
                )
        else:
            from dataclasses import replace as _replace

            from repro.sim.faults import parse_faults

            try:
                schedule = parse_faults(args.faults)
                overrides = {}
                if args.fault_blackout is not None:
                    overrides["blackout_seconds"] = args.fault_blackout
                if args.fault_residual is not None:
                    overrides["residual_rate"] = args.fault_residual
                if args.fault_retries is not None:
                    overrides["retry_limit"] = args.fault_retries
                if args.no_fault_recovery:
                    overrides["recovery"] = False
                if overrides:
                    schedule = _replace(schedule, **overrides)
            except ValueError as exc:
                parser.error(f"invalid --faults schedule: {exc}")
        try:
            config = _fleet_config(args, schedule)
        except ValueError as exc:
            fleet = _subparser(parser, "fleet")
            fleet.error(f"{exc} (flags: {_named_flags(fleet, str(exc))})")
        print(f"== fleet: {config.n_lanes}-service multiplexing study")
        for row in _fleet_rows(config, args.power_cost):
            print(f"   {row}")
        return 0
    if args.command == "placement":
        print(
            f"== placement: {args.lanes} lanes on {args.hosts} shared "
            f"hosts, {len(args.policies)} polic"
            f"{'y' if len(args.policies) == 1 else 'ies'}"
        )
        for row in _placement_rows(args):
            print(f"   {row}")
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        description, fn = EXPERIMENTS[name]
        print(f"== {name}: {description}")
        for row in fn(args.seed):
            print(f"   {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

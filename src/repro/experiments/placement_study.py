"""Placement-sensitivity study: same fleet, different packings.

DejaVu's premise (Sec. 3.6) is that co-tenant interference on shared
hosts is the dominant recurring disturbance a resource manager must
adapt to.  How much of that disturbance is *placement's fault*?  This
study runs the **same heterogeneous fleet** — identical traces, seeds,
controllers and profiling queue — under each placement policy in
:mod:`repro.sim.placement` and emits the SLO-violation / cost /
interference-theft / **energy** frontier per policy: how much
overcommit theft the packing causes, how often DejaVu escalates to
blame a neighbour, what the fleet pays for it in violations and
dollars, and how many host-hours stay powered on to carry it.

Policies may carry a ``+migrate`` suffix (``"best_fit+migrate"``) to
attach a :class:`~repro.sim.placement.MigrationPolicy`: the worst-
pressure host is re-packed online every ``rebalance_every`` steps, each
move charging the migrated lane a blackout window — the paper's Sec. 3
VM-cloning cost applied to a live move.  A ``+consolidate`` suffix
attaches the same policy in consolidation mode: pressure relief when
hosts are hot, cold-host draining (bin-pack for fewest hosts-on; a
drained host powers off) when they are not.  ``placement_demand``
switches the packed estimate from each lane's realized learning-day
peak to the predicted-peak window of :mod:`repro.sim.forecast`.

:func:`tune_migration_policy` auto-tunes the migration knobs
(``rebalance_every``, blackout window) per scenario by
explore-then-exploit over short runs, scoring each candidate in
dollar-equivalents (violations + fleet spend + host power) through
:func:`repro.core.cost_aware_tuner.explore_then_exploit`.

Exposed via ``python -m repro.cli placement`` and
``examples/placement_frontier.py``; the CI smoke and throughput gates
live in ``benchmarks/test_fleet_placement.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.cost_aware_tuner import ExplorationRound, explore_then_exploit
from repro.experiments.multiplexing_study import (
    FleetConfig,
    FleetMultiplexingStudy,
    run_fleet_multiplexing_study,
)
from repro.sim.placement import PLACEMENT_POLICIES, MigrationPolicy, make_policy

#: Policies the study sweeps by default, in presentation order.
DEFAULT_PLACEMENT_POLICIES = (
    "round_robin",
    "block",
    "first_fit_decreasing",
    "best_fit",
)

#: Demand multipliers (cycled over the fleet) that make the default
#: study fleet heterogeneous in size.  Five distinct factors against an
#: even host count means round-robin keeps co-locating equal-sized
#: lanes — the adversarial regime bin-packing exists to fix.
DEFAULT_DEMAND_FACTORS = (0.7, 0.85, 1.0, 1.1, 1.2)

#: The fleet every policy of the study runs unless told otherwise:
#: fifty heterogeneous lanes on ten shared hosts, so bin-packing has
#: something to pack.
DEFAULT_PLACEMENT_CONFIG = FleetConfig(
    n_lanes=50,
    hours=24.0,
    profiling_slots=4,
    mix="mixed",
    n_hosts=10,
    host_capacity_units=30.0,
    demand_factors=DEFAULT_DEMAND_FACTORS,
)

#: Dollar-equivalent wall power of one powered-on host for one hour —
#: the weight the tuner's objective puts on the energy axis.
DEFAULT_POWER_COST_PER_HOST_HOUR = 0.12


@dataclass(frozen=True)
class PlacementFrontierPoint:
    """One policy's point on the SLO/cost/theft/energy frontier."""

    policy: str
    violation_fraction: float
    fleet_hourly_cost: float
    mean_host_theft: float
    peak_host_theft: float
    host_overload_fraction: float
    interference_escalations: int
    migrations: int
    deferred_adaptations: int
    hit_rate: float
    lane_steps_per_second: float
    host_hours_on: float
    """Host-hours any host spent powered on (>= 1 tenant, not dead) —
    the energy axis a consolidation policy shrinks."""
    mean_hosts_on: float
    """Mean powered-on host count per step."""
    study: FleetMultiplexingStudy
    """The policy's full fleet study (series, events, queue stats)."""


@dataclass(frozen=True)
class PlacementSensitivityStudy:
    """The frontier: one :class:`PlacementFrontierPoint` per policy."""

    n_lanes: int
    hours: float
    n_hosts: int
    host_capacity_units: float
    mix: str
    demand_factors: tuple[float, ...]
    points: tuple[PlacementFrontierPoint, ...]

    def point(self, policy: str) -> PlacementFrontierPoint:
        for point in self.points:
            if point.policy == policy:
                return point
        raise KeyError(
            f"no policy {policy!r}; have {[p.policy for p in self.points]}"
        )

    @property
    def best(self) -> PlacementFrontierPoint:
        """Fewest SLO violations, dollars as the tie-break."""
        return min(
            self.points,
            key=lambda p: (p.violation_fraction, p.fleet_hourly_cost),
        )


def parse_policy_spec(
    spec: str,
    rebalance_every: int = 12,
    blackout_seconds: float = 600.0,
    blackout_theft: float = 0.5,
    drain_headroom: float = 0.9,
) -> tuple[str, MigrationPolicy | None]:
    """Split ``"name"`` / ``"name+migrate"`` / ``"name+consolidate"``
    into (policy, migration)."""
    name, _, suffix = spec.partition("+")
    if suffix not in ("", "migrate", "consolidate"):
        raise ValueError(
            f"unknown policy suffix {suffix!r} in {spec!r}; "
            "only '+migrate' and '+consolidate' are understood"
        )
    make_policy(name)  # fail loudly on unknown names
    migration = (
        MigrationPolicy(
            rebalance_every=rebalance_every,
            blackout_seconds=blackout_seconds,
            blackout_theft=blackout_theft,
            mode="consolidate" if suffix == "consolidate" else "pressure",
            drain_headroom=drain_headroom,
        )
        if suffix
        else None
    )
    return name, migration


def placement_configs(
    policies=DEFAULT_PLACEMENT_POLICIES,
    rebalance_every: int = 12,
    blackout_seconds: float = 600.0,
    blackout_theft: float = 0.5,
    **fields,
) -> list[tuple[str, FleetConfig]]:
    """Each policy spec with the fleet configuration it runs.

    ``fields`` override :data:`DEFAULT_PLACEMENT_CONFIG`; each policy
    then sets its placement and, with a ``+migrate`` or
    ``+consolidate`` suffix, a
    :class:`~repro.sim.placement.MigrationPolicy` built from this
    study's ``rebalance_every`` / ``blackout_seconds`` /
    ``blackout_theft``.
    """
    if not policies:
        raise ValueError("need at least one placement policy")
    base = replace(DEFAULT_PLACEMENT_CONFIG, **fields)
    configs = []
    for policy_spec in policies:
        name, migration = parse_policy_spec(
            policy_spec,
            rebalance_every=rebalance_every,
            blackout_seconds=blackout_seconds,
            blackout_theft=blackout_theft,
        )
        config = replace(base, placement=name, migration=migration)
        configs.append((str(policy_spec), config))
    return configs


def run_placement_sensitivity_study(**kwargs) -> PlacementSensitivityStudy:
    """Run the same fleet under each placement policy.

    Takes the keywords of :func:`placement_configs`.  Every policy run
    rebuilds the identical fleet from scratch (same seeds, traces,
    families, queue) so the only degree of freedom is *where the VMs
    land*.  The default configuration is deliberately adversarial to
    round-robin: ``demand_factors`` cycles five lane sizes while
    round-robin strides the host count, so same-sized lanes pile onto
    the same hosts; the bin-packing policies spread them by measured
    demand instead.  ``placement_demand`` switches the packed estimate
    between the realized learning-day peak and the
    :mod:`repro.sim.forecast` predicted-peak window for every policy at
    once.
    """
    configs = placement_configs(**kwargs)
    points = []
    for policy, config in configs:
        study = run_fleet_multiplexing_study(config)
        points.append(
            PlacementFrontierPoint(
                policy=policy,
                violation_fraction=study.violation_fraction,
                fleet_hourly_cost=study.fleet_hourly_cost,
                mean_host_theft=study.mean_host_theft,
                peak_host_theft=study.peak_host_theft,
                host_overload_fraction=study.host_overload_fraction,
                interference_escalations=study.interference_escalations,
                migrations=study.migrations,
                deferred_adaptations=study.deferred_adaptations,
                hit_rate=study.hit_rate,
                lane_steps_per_second=study.lane_steps_per_second,
                host_hours_on=study.host_hours_on,
                mean_hosts_on=study.mean_hosts_on,
                study=study,
            )
        )
    config = configs[0][1]
    return PlacementSensitivityStudy(
        n_lanes=config.n_lanes,
        hours=config.hours,
        n_hosts=config.n_hosts,
        host_capacity_units=config.host_capacity_units,
        mix=config.mix,
        demand_factors=config.demand_factors,
        points=tuple(points),
    )


def frontier_rows(study: PlacementSensitivityStudy) -> list[str]:
    """The frontier as aligned text rows (CLI and example output)."""
    header = (
        f"{'policy':<28} {'SLO viol.':>9} {'$ / hour':>9} "
        f"{'mean theft':>10} {'peak theft':>10} {'overload':>8} "
        f"{'escal.':>6} {'migr.':>5} {'host-h on':>9}"
    )
    rows = [header, "-" * len(header)]
    for point in study.points:
        rows.append(
            f"{point.policy:<28} {point.violation_fraction:>9.2%} "
            f"{point.fleet_hourly_cost:>9.2f} "
            f"{point.mean_host_theft:>10.3%} {point.peak_host_theft:>10.1%} "
            f"{point.host_overload_fraction:>8.1%} "
            f"{point.interference_escalations:>6} {point.migrations:>5} "
            f"{point.host_hours_on:>9.1f}"
        )
    best = study.best
    rows.append(
        f"best: {best.policy} "
        f"({best.violation_fraction:.2%} violations at "
        f"${best.fleet_hourly_cost:,.2f}/h, "
        f"mean theft {best.mean_host_theft:.3%}, "
        f"{best.host_hours_on:.1f} host-hours on)"
    )
    return rows


# ----------------------------------------------------------------------
# Migration-knob auto-tuning (explore-then-exploit)
# ----------------------------------------------------------------------

#: The default knob grid the tuner explores: (rebalance_every steps,
#: blackout_seconds) pairs from twitchy-and-cheap-blackout to
#: patient-and-expensive.
DEFAULT_MIGRATION_KNOB_GRID = (
    (6, 300.0),
    (12, 600.0),
    (24, 900.0),
    (48, 1800.0),
)


@dataclass(frozen=True)
class MigrationTuning:
    """Outcome of one explore-then-exploit knob search."""

    policy: MigrationPolicy
    """The exploited winner — run the full-length study with this."""
    rounds: tuple[ExplorationRound, ...]
    """Every explored candidate, in order, with observed metrics and
    its dollar-equivalent cost (the audit trail)."""

    @property
    def best_cost(self) -> float:
        return min(r.cost for r in self.rounds)


def tune_migration_policy(
    mode: str = "consolidate",
    knob_grid=DEFAULT_MIGRATION_KNOB_GRID,
    explore_hours: float = 6.0,
    blackout_theft: float = 0.5,
    violation_weight: float = 100.0,
    power_cost_per_host_hour: float = DEFAULT_POWER_COST_PER_HOST_HOUR,
    **fleet_kwargs,
) -> MigrationTuning:
    """Auto-tune migration knobs per scenario by explore-then-exploit.

    For each ``(rebalance_every, blackout_seconds)`` candidate in
    ``knob_grid`` the tuner runs a *short* fleet study
    (``explore_hours``, a fraction of the real horizon) with a
    :class:`~repro.sim.placement.MigrationPolicy` in ``mode``, then
    exploits the candidate with the lowest dollar-equivalent hourly
    cost::

        fleet $/h  +  violation_weight * violation_fraction
                   +  power_cost_per_host_hour * mean hosts on

    ``fleet_kwargs`` configure the scenario being tuned for and pass
    straight to
    :func:`~repro.experiments.multiplexing_study.run_fleet_multiplexing_study`
    (``n_lanes``, ``n_hosts``, ``host_capacity_units``, ``mix``,
    ``demand_factors``, ``placement``, ``placement_demand``, ``seed``,
    ...).  Everything is deterministic given the scenario and seed:
    ties exploit the earliest candidate in grid order.
    """
    if explore_hours <= 0:
        raise ValueError(f"need a positive exploration run: {explore_hours}")
    if violation_weight < 0 or power_cost_per_host_hour < 0:
        raise ValueError("tuning cost weights cannot be negative")
    for reserved in ("hours", "migration"):
        if reserved in fleet_kwargs:
            raise ValueError(
                f"{reserved!r} is owned by the tuner; "
                "use explore_hours / knob_grid"
            )
    candidates = [
        MigrationPolicy(
            rebalance_every=int(rebalance_every),
            blackout_seconds=float(blackout_seconds),
            blackout_theft=blackout_theft,
            mode=mode,
        )
        for rebalance_every, blackout_seconds in knob_grid
    ]

    def evaluate(policy: MigrationPolicy) -> dict[str, float]:
        study = run_fleet_multiplexing_study(
            hours=explore_hours, migration=policy, **fleet_kwargs
        )
        return {
            "violation_fraction": study.violation_fraction,
            "fleet_hourly_cost": study.fleet_hourly_cost,
            "host_hours_on": study.host_hours_on,
            "mean_hosts_on": study.mean_hosts_on,
            "migrations": float(study.migrations),
        }

    def objective(metrics) -> float:
        return (
            metrics["fleet_hourly_cost"]
            + violation_weight * metrics["violation_fraction"]
            + power_cost_per_host_hour * metrics["mean_hosts_on"]
        )

    best, rounds = explore_then_exploit(candidates, evaluate, objective)
    return MigrationTuning(policy=best, rounds=rounds)


__all__ = [
    "DEFAULT_DEMAND_FACTORS",
    "DEFAULT_MIGRATION_KNOB_GRID",
    "DEFAULT_PLACEMENT_CONFIG",
    "DEFAULT_PLACEMENT_POLICIES",
    "DEFAULT_POWER_COST_PER_HOST_HOUR",
    "MigrationTuning",
    "PLACEMENT_POLICIES",
    "PlacementFrontierPoint",
    "PlacementSensitivityStudy",
    "frontier_rows",
    "parse_policy_spec",
    "placement_configs",
    "run_placement_sensitivity_study",
    "tune_migration_policy",
]

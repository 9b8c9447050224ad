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
    study: FleetMultiplexingStudy
    """The policy's full fleet study: its statistics are the point's
    coordinates (violations, dollars, theft, host-hours on, ...)."""


@dataclass(frozen=True)
class PlacementSensitivityStudy:
    """The frontier: one :class:`PlacementFrontierPoint` per policy."""

    config: FleetConfig
    """The fleet every policy ran; each point's own ``placement`` and
    ``migration`` are in ``point.study.config``."""

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
            key=lambda p: (
                p.study.violation_fraction,
                p.study.fleet_hourly_cost,
            ),
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


def placement_runs(
    policies=DEFAULT_PLACEMENT_POLICIES,
    rebalance_every: int = 12,
    blackout_seconds: float = 600.0,
    blackout_theft: float = 0.5,
    **fields,
) -> tuple[FleetConfig, list[tuple[str, FleetConfig]]]:
    """Every config :func:`run_placement_sensitivity_study` runs, built
    and validated but not run: the base config and ``(spec, config)``s."""
    if not policies:
        raise ValueError("need at least one placement policy")
    config = replace(DEFAULT_PLACEMENT_CONFIG, **fields)
    runs = []
    for spec in policies:
        name, migration = parse_policy_spec(
            spec, rebalance_every, blackout_seconds, blackout_theft
        )
        runs.append(
            (str(spec), replace(config, placement=name, migration=migration))
        )
    return config, runs


def run_placement_sensitivity_study(
    policies=DEFAULT_PLACEMENT_POLICIES,
    rebalance_every: int = 12,
    blackout_seconds: float = 600.0,
    blackout_theft: float = 0.5,
    **fields,
) -> PlacementSensitivityStudy:
    """Run the same fleet under each placement policy.

    ``fields`` override :data:`DEFAULT_PLACEMENT_CONFIG`; each policy
    then sets its placement and, with a ``+migrate`` or
    ``+consolidate`` suffix, a
    :class:`~repro.sim.placement.MigrationPolicy` built from
    ``rebalance_every`` / ``blackout_seconds`` / ``blackout_theft``.
    Every policy run rebuilds the identical fleet from scratch (same
    seeds, traces, families, queue) so the only degree of freedom is
    *where the VMs land*.  The default configuration is deliberately
    adversarial to round-robin: ``demand_factors`` cycles five lane
    sizes while round-robin strides the host count, so same-sized lanes
    pile onto the same hosts; the bin-packing policies spread them by
    measured demand instead.  ``placement_demand`` switches the packed
    estimate between the realized learning-day peak and the
    :mod:`repro.sim.forecast` predicted-peak window for every policy at
    once.
    """
    config, runs = placement_runs(
        policies, rebalance_every, blackout_seconds, blackout_theft, **fields
    )
    points = tuple(
        PlacementFrontierPoint(policy, run_fleet_multiplexing_study(run))
        for policy, run in runs
    )
    return PlacementSensitivityStudy(config=config, points=points)


def frontier_rows(study: PlacementSensitivityStudy) -> list[str]:
    """The frontier as aligned text rows (CLI and example output)."""
    header = (
        f"{'policy':<28} {'SLO viol.':>9} {'$ / hour':>9} "
        f"{'mean theft':>10} {'peak theft':>10} {'overload':>8} "
        f"{'escal.':>6} {'migr.':>5} {'host-h on':>9}"
    )
    rows = [header, "-" * len(header)]
    for point in study.points:
        stats = point.study
        rows.append(
            f"{point.policy:<28} {stats.violation_fraction:>9.2%} "
            f"{stats.fleet_hourly_cost:>9.2f} "
            f"{stats.mean_host_theft:>10.3%} {stats.peak_host_theft:>10.1%} "
            f"{stats.host_overload_fraction:>8.1%} "
            f"{stats.interference_escalations:>6} {stats.migrations:>5} "
            f"{stats.host_hours_on:>9.1f}"
        )
    best = study.best
    stats = best.study
    rows.append(
        f"best: {best.policy} "
        f"({stats.violation_fraction:.2%} violations at "
        f"${stats.fleet_hourly_cost:,.2f}/h, "
        f"mean theft {stats.mean_host_theft:.3%}, "
        f"{stats.host_hours_on:.1f} host-hours on)"
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
    config: FleetConfig,
    mode: str = "consolidate",
    knob_grid=DEFAULT_MIGRATION_KNOB_GRID,
    explore_hours: float = 6.0,
    blackout_theft: float = 0.5,
    violation_weight: float = 100.0,
    power_cost_per_host_hour: float = DEFAULT_POWER_COST_PER_HOST_HOUR,
) -> MigrationTuning:
    """Auto-tune migration knobs per scenario by explore-then-exploit.

    For each ``(rebalance_every, blackout_seconds)`` candidate in
    ``knob_grid`` the tuner runs a *short* study of the fleet
    ``config`` describes — ``explore_hours`` long, a fraction of the
    real horizon, under a :class:`~repro.sim.placement.MigrationPolicy`
    in ``mode`` (both replace the config's own ``hours`` and
    ``migration``) — then exploits the candidate with the lowest
    dollar-equivalent hourly cost::

        fleet $/h  +  violation_weight * violation_fraction
                   +  power_cost_per_host_hour * mean hosts on

    Each round records every statistic of its study.  Everything is
    deterministic given the scenario and seed: ties exploit the
    earliest candidate in grid order.
    """
    if explore_hours <= 0:
        raise ValueError(f"need a positive exploration run: {explore_hours}")
    if violation_weight < 0 or power_cost_per_host_hour < 0:
        raise ValueError("tuning cost weights cannot be negative")
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
        return run_fleet_multiplexing_study(
            config, hours=explore_hours, migration=policy
        ).statistics()

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
    "run_placement_sensitivity_study",
    "tune_migration_policy",
]

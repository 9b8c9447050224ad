"""Scenario execution: one validated document -> structured records.

A :class:`~repro.scenarios.schema.Scenario` expands into a grid of
study runs — one per ``(sweep value, policy spec)`` combination for
fleet scenarios, one per frontier point for placement scenarios — and
each run becomes a :class:`ScenarioRecord`: the scenario/policy/sweep
coordinates plus a flat ``metrics`` mapping of the study's headline
numbers (SLO violations, dollars, theft, queue pressure, throughput).

Records serialize to JSONL (one JSON object per line), the format
``repro.cli scenario run`` emits and the regression gate in
:mod:`repro.scenarios.gate` consumes.  All metrics except the
wall-clock-derived ones (see :data:`repro.scenarios.gate.
TIMING_METRICS`) are deterministic functions of the scenario document,
which is what makes gating them against a tracked baseline sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import IO, Any, Iterable, Mapping

from repro.scenarios.schema import Scenario, fleet_grid

__all__ = [
    "ScenarioRecord",
    "fleet_metrics",
    "record_key",
    "record_to_dict",
    "run_scenario",
    "write_jsonl",
]

#: FleetMultiplexingStudy fields exported into every record's metrics.
STUDY_METRICS = (
    "n_steps",
    "violation_fraction",
    "fleet_hourly_cost",
    "hit_rate",
    "mean_queue_wait_seconds",
    "max_queue_wait_seconds",
    "max_queue_depth",
    "accepted_profiles",
    "rejected_profiles",
    "evicted_profiles",
    "shed_profiles",
    "profiler_utilization",
    "amortized_profiling_fraction",
    "deferred_adaptations",
    "interference_escalations",
    "learning_runs",
    "tuning_invocations",
    "mean_host_theft",
    "peak_host_theft",
    "host_overload_fraction",
    "host_hours_on",
    "mean_hosts_on",
    "migrations",
    "host_failures",
    "host_recoveries",
    "evacuations",
    "unplaced_evacuations",
    "revoked_profiles",
    "profiling_retries",
    "revoked_adaptations",
    "degraded_adaptations",
    "lane_steps_per_second",
)


@dataclass(frozen=True)
class ScenarioRecord:
    """One study run's coordinates and headline metrics."""

    scenario: str
    family: str
    study: str
    policy: str
    sweep: Mapping[str, Any] | None
    params: Mapping[str, Any]
    metrics: Mapping[str, float]

    @property
    def key(self) -> str:
        return record_key(self.scenario, self.sweep, self.policy)


def record_key(
    scenario: str, sweep: Mapping[str, Any] | None, policy: str
) -> str:
    """Stable identity of a record: ``id[field=value]:policy``."""
    key = scenario
    if sweep:
        value = sweep["value"]
        rendered = (
            json.dumps(value) if isinstance(value, (list, tuple)) else value
        )
        key += f"[{sweep['field']}={rendered}]"
    return f"{key}:{policy}"


def fleet_metrics(study) -> dict[str, float]:
    """The gateable metric mapping of one fleet study result."""
    return {name: getattr(study, name) for name in STUDY_METRICS}


def _run_fleet(
    scenario: Scenario, workers: int | None
) -> list[ScenarioRecord]:
    from repro.experiments.multiplexing_study import (
        run_fleet_multiplexing_study,
    )

    records = []
    for sweep, policy, config in fleet_grid(scenario):
        params = dict(scenario.params)
        if sweep is not None:
            params[sweep["field"]] = sweep["value"]
        if workers is not None:
            params["workers"] = workers
            config = replace(config, workers=workers)
        records.append(
            ScenarioRecord(
                scenario=scenario.id,
                family=scenario.family,
                study=scenario.study,
                policy=policy,
                sweep=sweep,
                params=params,
                metrics=fleet_metrics(run_fleet_multiplexing_study(config)),
            )
        )
    return records


def _run_placement(scenario: Scenario) -> list[ScenarioRecord]:
    from repro.experiments.placement_study import (
        run_placement_sensitivity_study,
    )

    kwargs = dict(scenario.params)
    if scenario.policies:
        kwargs["policies"] = scenario.policies
    study = run_placement_sensitivity_study(seed=scenario.seed, **kwargs)
    return [
        ScenarioRecord(
            scenario=scenario.id,
            family=scenario.family,
            study=scenario.study,
            policy=point.policy,
            sweep=None,
            params=dict(scenario.params),
            metrics=fleet_metrics(point.study),
        )
        for point in study.points
    ]


def run_scenario(
    scenario: Scenario, workers: int | None = None
) -> list[ScenarioRecord]:
    """Execute one scenario's full run grid.

    ``workers`` overrides a fleet document's worker count (the CI smoke
    passes ``0`` to force the inline, pool-free shard path); placement
    documents run as written.
    """
    if scenario.study == "fleet":
        return _run_fleet(scenario, workers)
    return _run_placement(scenario)


def record_to_dict(record: ScenarioRecord) -> dict[str, Any]:
    """A record as the JSON object its JSONL line carries."""
    return {
        "scenario": record.scenario,
        "family": record.family,
        "study": record.study,
        "policy": record.policy,
        "sweep": dict(record.sweep) if record.sweep else None,
        "params": dict(record.params),
        "metrics": dict(record.metrics),
    }


def write_jsonl(records: Iterable[ScenarioRecord], fp: IO[str]) -> int:
    """Write records as JSONL; returns the number of lines written."""
    n = 0
    for record in records:
        fp.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")
        n += 1
    return n

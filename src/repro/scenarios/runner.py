"""Scenario execution: one validated document -> structured records.

A :class:`~repro.scenarios.schema.Scenario` expands into a grid of
fleet study runs — one per ``(sweep value, policy spec)`` combination —
and each run becomes a :class:`ScenarioRecord`: the scenario/policy/
sweep coordinates plus a flat ``metrics`` mapping of every statistic
of the study (:data:`~repro.experiments.multiplexing_study.
STUDY_STATISTICS`: SLO violations, dollars, theft, queue pressure,
energy) and its throughput.

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

from repro.experiments.multiplexing_study import (
    STUDY_STATISTICS,
    run_fleet_multiplexing_study,
)
from repro.scenarios.schema import Scenario, fleet_grid

__all__ = [
    "ScenarioRecord",
    "fleet_metrics",
    "record_key",
    "record_to_dict",
    "run_scenario",
    "write_jsonl",
]

#: Every record's metrics: the study's statistics plus its throughput.
STUDY_METRICS = STUDY_STATISTICS + ("lane_steps_per_second",)


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


def run_scenario(
    scenario: Scenario, workers: int | None = None
) -> list[ScenarioRecord]:
    """Execute one scenario's full run grid.

    ``workers`` overrides the document's worker count (the CI smoke
    passes ``0`` to force the in-process, spawn-free shard path).
    """
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

"""Declarative scenarios: validated study configs, runner, bench gate.

The layer that turns the hand-wired experiment scripts into data: small
YAML/JSON documents under ``scenarios/`` describe fleet studies and
placement frontiers (:mod:`repro.scenarios.schema`), a runner expands
each into a grid of study runs emitting JSONL records
(:mod:`repro.scenarios.runner`), and a regression gate diffs those
records against tracked ``BENCH_*.json`` baselines
(:mod:`repro.scenarios.gate`).  Exposed via ``repro.cli scenario
run|list`` and ``scripts/check_bench.py``.
"""

from repro.scenarios.gate import (
    DEFAULT_RELATIVE_TOLERANCE,
    EXACT_METRICS,
    SMOKE_SCENARIOS,
    TIMING_METRICS,
    GateReport,
    check_bench,
    compare_records,
    load_records,
)
from repro.scenarios.runner import (
    ScenarioRecord,
    fleet_metrics,
    record_key,
    record_to_dict,
    run_scenario,
    write_jsonl,
)
from repro.scenarios.schema import (
    Scenario,
    ScenarioError,
    ScenarioSweep,
    list_scenarios,
    load_scenario,
    parse_scenario,
    scenario_paths,
)

__all__ = [
    "DEFAULT_RELATIVE_TOLERANCE",
    "EXACT_METRICS",
    "GateReport",
    "SMOKE_SCENARIOS",
    "Scenario",
    "ScenarioError",
    "ScenarioRecord",
    "ScenarioSweep",
    "TIMING_METRICS",
    "check_bench",
    "compare_records",
    "fleet_metrics",
    "list_scenarios",
    "load_records",
    "load_scenario",
    "parse_scenario",
    "record_key",
    "record_to_dict",
    "run_scenario",
    "scenario_paths",
    "write_jsonl",
]

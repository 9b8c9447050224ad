"""Bench regression gate: diff scenario metrics against tracked baselines.

The tracked ``BENCH_*.json`` files used to be write-only artifacts —
CI regenerated them, uploaded them, and nobody diffed them, so a
regression in SLO violations, dollars or theft slipped through
silently.  This module turns them into the repo's correctness
contract: a **gate** that compares a candidate metric set against a
tracked baseline with per-metric tolerances and fails on drift.

Two on-disk formats are understood, auto-detected by shape:

* scenario JSONL — what ``repro.cli scenario run`` emits (one record
  per line, keyed ``id[field=value]:policy``);
* the scenario baseline — ``BENCH_scenarios.json``, written by
  ``scripts/check_bench.py --update``.

Wall-clock-derived metrics (:data:`TIMING_METRICS`) are machine- and
load-dependent, so they are reported but never gated.  Everything else
in this codebase is a deterministic function of the configuration and
seed, so the default tolerance is a float-noise allowance, and integer
counters get an exact match.

``scripts/check_bench.py`` is a thin wrapper over :func:`check_bench`:
with no arguments it runs the two smoke scenarios fresh (``workers=0``)
and gates them against the tracked baseline; ``--update`` regenerates
the baseline after an intentional behavior change; explicit candidate
files plus ``--baseline`` compare existing artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.multiplexing_study import COUNT_STATISTICS

__all__ = [
    "BASELINE_FORMAT",
    "DEFAULT_BASELINE",
    "DEFAULT_RELATIVE_TOLERANCE",
    "EXACT_METRICS",
    "GateReport",
    "MetricDrift",
    "SMOKE_SCENARIOS",
    "TIMING_METRICS",
    "check_bench",
    "compare_records",
    "load_records",
    "repo_root",
]

#: Metrics derived from wall-clock time: reported, never gated.
TIMING_METRICS = frozenset(
    {
        "lane_steps_per_second",
        "engine_seconds",
        "wall_seconds",
        "batched_speedup",
        "single_wall_seconds",
        "sharded_wall_seconds",
        "dedicated_lane_steps_per_second",
        "hosts_throughput_ratio",
    }
)

#: Integer counters — the study's integer-valued statistics: any drift
#: at all is a behavior change.
EXACT_METRICS = COUNT_STATISTICS

#: Float metrics tolerate accumulated rounding noise, nothing more —
#: the simulations are deterministic given the scenario document.
DEFAULT_RELATIVE_TOLERANCE = 1e-9

BASELINE_FORMAT = "repro-scenario-baseline"
DEFAULT_BASELINE = "BENCH_scenarios.json"

#: The CI smoke and the no-argument ``scripts/check_bench.py`` run
#: (paths relative to the repo root): one SYN-* ramp, one RL-* replay,
#: and the profiling-economy market (fifo vs priority admission).
SMOKE_SCENARIOS = (
    "scenarios/SYN-lane-ramp.yaml",
    "scenarios/RL-diurnal-spikes.yaml",
    "scenarios/SYN-profiler-market.yaml",
    "scenarios/RL-shard-sweep-hosts.yaml",
    "scenarios/SYN-host-outage.yaml",
    "scenarios/RL-profiler-brownout.yaml",
    "scenarios/RL-consolidation-drain.yaml",
)


def repo_root() -> Path:
    """The checkout root (three levels above this module)."""
    return Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class MetricDrift:
    """One gated metric outside its tolerance."""

    key: str
    metric: str
    baseline: float | None
    candidate: float | None
    tolerance: float

    def describe(self) -> str:
        if self.baseline is None:
            return (
                f"{self.key}: metric {self.metric!r} is new "
                f"(candidate {self.candidate!r}, not in baseline)"
            )
        if self.candidate is None:
            return (
                f"{self.key}: metric {self.metric!r} disappeared "
                f"(baseline {self.baseline!r})"
            )
        return (
            f"{self.key}: {self.metric} drifted "
            f"{self.baseline!r} -> {self.candidate!r} "
            f"(relative tolerance {self.tolerance:g})"
        )


@dataclass
class GateReport:
    """Outcome of one candidate-vs-baseline comparison."""

    checked: int = 0
    gated_metrics: int = 0
    drifts: list[MetricDrift] = field(default_factory=list)
    missing_keys: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifts and not self.missing_keys

    def lines(self) -> list[str]:
        rows = []
        for key in self.missing_keys:
            rows.append(
                f"FAIL {key}: no baseline record — new scenario/policy "
                "combination; run scripts/check_bench.py --update to "
                "adopt it"
            )
        for drift in self.drifts:
            rows.append(f"FAIL {drift.describe()}")
        rows.append(
            f"{'OK' if self.ok else 'FAIL'}: {self.checked} record(s), "
            f"{self.gated_metrics} gated metric(s), "
            f"{len(self.drifts) + len(self.missing_keys)} failure(s)"
        )
        return rows


def _records_from_jsonl(text: str, path: str) -> dict[str, dict[str, float]]:
    from repro.scenarios.runner import record_key

    records: dict[str, dict[str, float]] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict) or "metrics" not in obj:
            raise ValueError(
                f"{path}:{n}: not a scenario record (no 'metrics' field)"
            )
        key = record_key(obj["scenario"], obj.get("sweep"), obj["policy"])
        if key in records:
            raise ValueError(f"{path}:{n}: duplicate record key {key!r}")
        records[key] = dict(obj["metrics"])
    return records


def load_records(path: str | Path) -> dict[str, dict[str, float]]:
    """Load ``key -> metrics`` from any understood file format."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # More than one top-level value: scenario JSONL.
        return _records_from_jsonl(text, str(path))
    if isinstance(doc, dict) and doc.get("format") == BASELINE_FORMAT:
        return {
            key: dict(metrics) for key, metrics in doc["records"].items()
        }
    if isinstance(doc, dict) and "metrics" in doc:
        # A single-record JSONL file parses as one JSON object.
        return _records_from_jsonl(text, str(path))
    raise ValueError(
        f"{path}: unrecognized shape (expected scenario JSONL or a "
        f"{BASELINE_FORMAT!r} baseline)"
    )


def _within(baseline: float, candidate: float, tolerance: float) -> bool:
    scale = max(abs(baseline), abs(candidate))
    return abs(candidate - baseline) <= max(tolerance * scale, 1e-12)


def compare_records(
    candidate: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Mapping[str, float]],
    tolerance: float = DEFAULT_RELATIVE_TOLERANCE,
) -> GateReport:
    """Gate every candidate record against its baseline counterpart.

    Baseline-only records are ignored (a candidate may cover a subset);
    candidate records with no baseline fail loudly, as does any gated
    metric present on one side only or outside tolerance.
    """
    report = GateReport()
    for key in sorted(candidate):
        metrics = candidate[key]
        if key not in baseline:
            report.missing_keys.append(key)
            continue
        report.checked += 1
        expected = baseline[key]
        gated = (set(metrics) | set(expected)) - TIMING_METRICS
        for metric in sorted(gated):
            report.gated_metrics += 1
            have = metrics.get(metric)
            want = expected.get(metric)
            if have is None or want is None:
                report.drifts.append(
                    MetricDrift(key, metric, want, have, tolerance)
                )
                continue
            tol = 0.0 if metric in EXACT_METRICS else tolerance
            if not _within(float(want), float(have), tol):
                report.drifts.append(
                    MetricDrift(key, metric, want, have, tol)
                )
    return report


def _run_smokes(root: Path, workers: int) -> dict[str, dict[str, float]]:
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.schema import load_scenario

    records: dict[str, dict[str, float]] = {}
    for relative in SMOKE_SCENARIOS:
        scenario = load_scenario(root / relative)
        print(f"running {scenario.id} ({relative})...", file=sys.stderr)
        for record in run_scenario(scenario, workers=workers):
            records[record.key] = dict(record.metrics)
    return records


def _write_baseline(
    path: Path, records: Mapping[str, Mapping[str, float]]
) -> None:
    doc = {
        "format": BASELINE_FORMAT,
        "version": 1,
        "scenarios": list(SMOKE_SCENARIOS),
        "records": {
            key: dict(records[key]) for key in sorted(records)
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_bench(argv: list[str] | None = None) -> int:
    """``scripts/check_bench.py`` entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="check_bench",
        description="gate scenario/bench metrics against tracked baselines",
    )
    parser.add_argument(
        "candidates",
        nargs="*",
        help="candidate scenario JSONL files; none = run the smoke "
        "scenarios fresh",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: tracked {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="regenerate the baseline from fresh smoke runs instead of "
        "gating (after an intentional behavior change)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_RELATIVE_TOLERANCE,
        help="relative tolerance for non-exact float metrics",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for fresh smoke runs "
        "(0 = threads in this process)",
    )
    args = parser.parse_args(argv)

    root = repo_root()
    baseline_path = Path(args.baseline or root / DEFAULT_BASELINE)

    if args.update:
        if args.candidates:
            parser.error("--update runs the smoke scenarios itself; "
                         "candidate files cannot be combined with it")
        _write_baseline(baseline_path, _run_smokes(root, args.workers))
        print(f"baseline written: {baseline_path}")
        return 0

    if args.candidates:
        candidate: dict[str, dict[str, float]] = {}
        for path in args.candidates:
            for key, metrics in load_records(path).items():
                candidate[key] = metrics
    else:
        if not baseline_path.exists():
            print(
                f"no baseline at {baseline_path}; run "
                "scripts/check_bench.py --update first",
                file=sys.stderr,
            )
            return 1
        candidate = _run_smokes(root, args.workers)

    baseline = load_records(baseline_path)
    report = compare_records(candidate, baseline, tolerance=args.tolerance)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1

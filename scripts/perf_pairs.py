#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, and the performance
trajectory they feed.

Exports a parent revision with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` on that copy and on the
working tree, alternating which side goes first, for ``--pairs``
pairs per workload::

    python scripts/perf_pairs.py --parent HEAD --workload batched \\
        --seed 1 --pairs 10 --seconds 20

For every end-to-end metric ``BENCHMARK.json`` declares it prints each
side's median and quartiles, how many pairs the change won (ties count
for neither side) and whether a gain may be claimed: the change wins at
least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range.  ``--record LABEL``
appends one line per workload to ``BENCH_perfbench.jsonl`` (commit,
parent, workload, seed, pairs, both medians and the parent's IQR per
metric, and the median yardstick of each side), the repository's
performance trajectory.  ``LABEL`` names the measured change: its
commit hash, or, measured before it is committed, the parent's hash
with a ``+name`` suffix, to be relabelled once the hash exists.  The
temporary copy is removed on exit, and every benchmark run is waited
for, so nothing is left behind.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_perfbench.jsonl"
#: Fields of every trajectory line, and of every metric in it.
RECORD_FIELDS = (
    "commit",
    "parent",
    "workload",
    "seed",
    "pairs",
    "metrics",
    "yardstick",
    "source",
)
METRIC_FIELDS = ("parent_median", "change_median", "parent_iqr", "change_wins")
#: A trajectory line's commit label: a commit hash, optionally with a
#: ``+name`` suffix for a change not yet committed.
COMMIT_LABEL = re.compile(r"[0-9a-f]{7,40}(\+[a-z0-9-]+)?")
_YARDSTICK = re.compile(r"median yardstick ([0-9.]+) s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method: the
    quartiles of a sample, interpolated between its own values)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs (``parent[i]`` and ``change[i]`` ran
    as pair ``i``): both sides' quartiles, the change's wins and
    whether the gain rule holds."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (c_median - p_median)
    iqr = p_q3 - p_q1
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "gain_holds": 10 * wins >= 9 * len(parent) and gain > iqr,
    }


def export_revision(revision: str, into: Path) -> None:
    """Unpack ``git archive revision`` into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def describe(revision: str) -> str:
    return subprocess.run(
        ["git", "describe", "--always", "--abbrev=7", revision],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def run_perfbench(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[dict, float]:
    """One benchmark run: its end-to-end metric values and its median
    yardstick.  Raises when the run fails or reports a wrong result."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {checkout}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(
            f"perfbench reported a wrong result in {checkout}: {result}"
        )
    found = _YARDSTICK.search(done.stderr)
    yardstick = float(found.group(1)) if found else math.nan
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, yardstick


def measure(
    parent_dir: Path, workload: str, seed: int, pairs: int, seconds: float
) -> tuple[dict, dict]:
    """``pairs`` alternating runs per side (even pairs parent first);
    returns per side the metric runs and the yardsticks."""
    runs = {"parent": {}, "change": {}}
    yards = {"parent": [], "change": []}
    sides = {"parent": parent_dir, "change": ROOT}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, yard = run_perfbench(sides[side], workload, seed, seconds)
            for name, value in values.items():
                runs[side].setdefault(name, []).append(value)
            yards[side].append(yard)
            print(
                f"perf_pairs: {workload} pair {i + 1} {side}: "
                + ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
                file=sys.stderr,
            )
    return runs, yards


def report(workload: str, seed: int, runs: dict, declared: list[dict]) -> dict:
    """Print and return each declared metric's comparison."""
    compared = {}
    print(f"{workload} seed {seed}:")
    for metric in declared:
        name = metric["name"]
        result = compare(runs["parent"][name], runs["change"][name], metric["better"])
        compared[name] = result
        (p1, pm, p3), (c1, cm, c3) = result["parent"], result["change"]
        print(
            f"  {name} ({metric['better']} is better): parent median {pm:.6g} "
            f"[q1 {p1:.6g}, q3 {p3:.6g}] -> change {cm:.6g} "
            f"[q1 {c1:.6g}, q3 {c3:.6g}]; change won {result['wins']} of "
            f"{result['pairs']}; gain rule "
            + ("holds" if result["gain_holds"] else "does not hold")
        )
    return compared


def record_line(
    commit: str,
    parent: str,
    workload: str,
    seed: int,
    compared: dict,
    yards: dict,
) -> dict:
    """One trajectory line for one workload."""
    pairs = next(iter(compared.values()))["pairs"]
    return {
        "commit": commit,
        "parent": parent,
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "metrics": {
            name: {
                "parent_median": result["parent"][1],
                "change_median": result["change"][1],
                "parent_iqr": result["parent_iqr"],
                "change_wins": result["wins"],
            }
            for name, result in compared.items()
        },
        "yardstick": {
            side: statistics.median(values) for side, values in yards.items()
        },
        "source": "perf_pairs",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision")
    parser.add_argument(
        "--workload", action="append", required=True, help="repeatable"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--record",
        metavar="LABEL",
        help=f"append to {TRAJECTORY.name} as commit LABEL",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1: {args.pairs}")
    if args.record is not None and not COMMIT_LABEL.fullmatch(args.record):
        parser.error(
            "--record needs a commit hash, optionally with a +name "
            f"suffix: {args.record!r}"
        )
    # A terminated run unwinds like an interrupted one: subprocess.run
    # kills its benchmark child and the temporary copy is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = describe(args.parent)
    lines = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        parent_dir = Path(scratch)
        export_revision(args.parent, parent_dir)
        for workload in args.workload:
            runs, yards = measure(
                parent_dir, workload, args.seed, args.pairs, args.seconds
            )
            compared = report(workload, args.seed, runs, declared)
            lines.append(
                record_line(
                    args.record, parent, workload, args.seed, compared, yards
                )
            )
    if args.record is not None:
        with TRAJECTORY.open("a") as out:
            for line in lines:
                out.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

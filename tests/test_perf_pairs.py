"""The statistics of ``scripts/perf_pairs.py`` on fixed numbers, and the
fields of every line of the performance trajectory it appends to."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", ROOT / "scripts" / "perf_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pairs = load_script()

PARENT = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]


def test_quartiles_interpolate_between_the_sample_values():
    assert perf_pairs.quartiles(PARENT) == (98.25, 100.0, 101.75)
    assert perf_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert perf_pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)


def test_a_clear_gain_holds():
    change = [value + 10.0 for value in PARENT]
    result = perf_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 10 and result["pairs"] == 10
    assert result["parent"] == (98.25, 100.0, 101.75)
    assert result["change"] == (108.25, 110.0, 111.75)
    assert result["parent_iqr"] == 3.5
    assert result["gain_holds"]


def test_the_gain_rule_needs_nine_tenths_of_the_pairs():
    # Two pairs lost: 8 of 10 won, though the median gap is large.
    change = [value + 10.0 for value in PARENT]
    change[0] = change[1] = 50.0
    result = perf_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 8
    assert not result["gain_holds"]
    # One pair lost: 9 of 10 is enough.
    change[1] = PARENT[1] + 10.0
    assert perf_pairs.compare(PARENT, change, "higher")["gain_holds"]


def test_the_gain_rule_needs_a_gap_wider_than_the_parents_iqr():
    # Every pair won, by less than the parent's spread.
    change = [value + 3.0 for value in PARENT]
    result = perf_pairs.compare(PARENT, change, "higher")
    assert result["wins"] == 10
    assert result["change"][1] - result["parent"][1] == 3.0 < 3.5
    assert not result["gain_holds"]


def test_ties_count_for_neither_side_and_lower_can_be_better():
    parent = [0.30, 0.31, 0.29, 0.30]
    change = [0.20, 0.31, 0.19, 0.20]
    result = perf_pairs.compare(parent, change, "lower")
    assert result["wins"] == 3
    assert not result["gain_holds"]  # 3 of 4 is below nine tenths
    flipped = perf_pairs.compare(change, parent, "lower")
    assert flipped["wins"] == 0


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        perf_pairs.compare([1.0], [1.0, 2.0], "higher")
    with pytest.raises(ValueError):
        perf_pairs.compare([], [], "higher")
    with pytest.raises(ValueError):
        perf_pairs.compare([1.0], [2.0], "faster")


def test_record_line_holds_every_field():
    compared = {
        "study_s": perf_pairs.compare([0.3, 0.31], [0.2, 0.21], "lower")
    }
    line = perf_pairs.record_line(
        "abc1234", "def5678", "batched", 1, compared, {"parent": [0.05], "change": [0.06]}
    )
    check_line(line)
    assert line["metrics"]["study_s"]["change_wins"] == 2
    assert line["yardstick"] == {"parent": 0.05, "change": 0.06}


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
NUMBER = (int, float)


def check_line(line: dict) -> None:
    assert set(line) == set(perf_pairs.RECORD_FIELDS)
    assert re.fullmatch(r"[0-9a-f]{7,40}(-dirty)?", line["commit"])
    assert re.fullmatch(r"[0-9a-f]{7,40}", line["parent"])
    assert line["workload"] in WORKLOADS
    assert line["seed"] is None or isinstance(line["seed"], int)
    assert line["pairs"] is None or (
        isinstance(line["pairs"], int) and line["pairs"] >= 1
    )
    assert line["source"] in ("perf_pairs", "CHANGES.md", "benchmark check")
    assert line["metrics"] and set(line["metrics"]) <= METRICS
    for values in line["metrics"].values():
        assert set(values) == set(perf_pairs.METRIC_FIELDS)
        assert isinstance(values["parent_median"], NUMBER)
        assert isinstance(values["change_median"], NUMBER)
        assert values["parent_iqr"] is None or values["parent_iqr"] >= 0
        wins = values["change_wins"]
        assert wins is None or 0 <= wins <= line["pairs"]
    yardstick = line["yardstick"]
    if line["source"] == "perf_pairs":
        assert set(yardstick) == {"parent", "change"}
        assert all(isinstance(v, NUMBER) for v in yardstick.values())
    else:
        assert yardstick is None


def test_every_trajectory_line_holds_every_field():
    lines = perf_pairs.TRAJECTORY.read_text().splitlines()
    assert lines
    for text in lines:
        check_line(json.loads(text))

"""Scenario DSL, runner, and bench regression gate.

Covers the three layers of ``repro.scenarios``: the schema's
validation against the real study signatures, the runner's record
grid, and the gate that turns the tracked ``BENCH_scenarios.json``
baseline into a correctness contract (pass on clean metrics, fail on
any perturbed gated metric).
"""

import json
import math
from pathlib import Path

import pytest

from repro.scenarios.gate import (
    EXACT_METRICS,
    SMOKE_SCENARIOS,
    TIMING_METRICS,
    compare_records,
    load_records,
)
from repro.scenarios.runner import (
    record_key,
    record_to_dict,
    run_scenario,
    write_jsonl,
)
from repro.scenarios.schema import (
    ScenarioError,
    list_scenarios,
    load_scenario,
    parse_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "id": "SYN-tiny",
    "study": "fleet",
    "fleet": {"n_lanes": 2, "hours": 2.0},
}


def tiny(**overrides):
    doc = {**TINY, **overrides}
    return {k: v for k, v in doc.items() if v is not None}


class TestSchemaValidation:
    def test_minimal_document_accepted(self):
        scenario = parse_scenario(TINY)
        assert scenario.id == "SYN-tiny"
        assert scenario.family == "SYN"
        assert scenario.label == "SYN-tiny"  # defaults to the id
        assert scenario.seed == 0
        assert scenario.params == {"n_lanes": 2, "hours": 2.0}

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            parse_scenario(["not", "a", "mapping"])

    def test_bad_id_rejected(self):
        for bad in (None, "tiny", "XX-tiny", "SYN-", "SYN tiny"):
            with pytest.raises(ScenarioError, match="id must match"):
                parse_scenario(tiny(id=bad))

    def test_unknown_study_rejected(self):
        with pytest.raises(ScenarioError, match="study must be one of"):
            parse_scenario(tiny(study="frontier"))

    def test_placement_study_kind_rejected(self):
        # Placement frontiers are fleet documents with policies now.
        doc = {
            "id": "RL-tiny",
            "study": "placement",
            "placement": {"n_lanes": 2, "n_hosts": 1},
        }
        with pytest.raises(ScenarioError, match="study must be one of"):
            parse_scenario(doc)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="arrival_process"):
            parse_scenario({**TINY, "arrival_process": "poisson"})

    def test_params_section_must_match_study(self):
        # A 'placement' section on a fleet study is an unknown key.
        with pytest.raises(ScenarioError, match="placement"):
            parse_scenario({**TINY, "placement": {"n_hosts": 2}})

    def test_unknown_parameter_names_the_callable(self):
        doc = tiny(fleet={"n_lanes": 2, "lanes": 4})
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        message = str(excinfo.value)
        assert "'lanes'" in message
        assert "run_fleet_multiplexing_study" in message
        assert "n_lanes" in message  # suggests the legal set

    def test_run_beyond_the_trace_rejected_at_load(self):
        doc = tiny(fleet={"n_lanes": 2, "hours": 169.0})
        with pytest.raises(ScenarioError, match=r"\bhours=169"):
            parse_scenario(doc)

    def test_reserved_parameter_rejected(self):
        for reserved in ("seed", "placement", "migration"):
            doc = tiny(fleet={"n_lanes": 2, reserved: 1})
            with pytest.raises(ScenarioError, match="reserved"):
                parse_scenario(doc)

    def test_mapping_parameter_value_rejected(self):
        doc = tiny(fleet={"n_lanes": 2, "demand_factors": {"a": 1.0}})
        with pytest.raises(ScenarioError, match="scalar"):
            parse_scenario(doc)

    def test_sweep_requires_exact_keys(self):
        doc = tiny(sweep={"field": "n_lanes"})
        with pytest.raises(ScenarioError, match="'field' and 'values'"):
            parse_scenario(doc)

    def test_sweep_field_must_be_a_study_parameter(self):
        doc = tiny(sweep={"field": "lanes", "values": [2, 4]})
        with pytest.raises(ScenarioError, match="not a sweepable"):
            parse_scenario(doc)

    def test_sweep_field_cannot_also_be_fixed(self):
        doc = tiny(sweep={"field": "n_lanes", "values": [2, 4]})
        with pytest.raises(ScenarioError, match="also set"):
            parse_scenario(doc)

    def test_sweep_values_must_be_non_empty(self):
        doc = tiny(
            fleet={"hours": 2.0}, sweep={"field": "n_lanes", "values": []}
        )
        with pytest.raises(ScenarioError, match="non-empty"):
            parse_scenario(doc)

    def test_bad_policy_suffix_rejected(self):
        doc = tiny(
            fleet={"n_lanes": 2, "hours": 2.0, "n_hosts": 1},
            policies=["round_robin+teleport"],
        )
        with pytest.raises(ScenarioError, match="invalid policy spec"):
            parse_scenario(doc)

    def test_unknown_policy_rejected(self):
        doc = tiny(
            fleet={"n_lanes": 2, "hours": 2.0, "n_hosts": 1},
            policies=["pile"],
        )
        with pytest.raises(ScenarioError, match="invalid policy spec"):
            parse_scenario(doc)

    def test_fleet_policies_require_hosts(self):
        doc = tiny(policies=["round_robin"])
        with pytest.raises(ScenarioError, match="n_hosts"):
            parse_scenario(doc)

    def test_removed_forks_are_unknown_parameters(self):
        for gone in ("rng_mode", "host_demand"):
            with pytest.raises(ScenarioError, match=gone):
                parse_scenario(tiny(fleet={"n_lanes": 2, gone: "legacy"}))

    def test_every_grid_point_is_a_valid_config(self):
        # Two shards fit four lanes but not one: the sweep's second
        # point breaks a FleetConfig rule, caught at load time.
        doc = tiny(
            fleet={"hours": 2.0, "shards": 2},
            sweep={"field": "n_lanes", "values": [4, 1]},
        )
        with pytest.raises(ScenarioError, match="shards"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_lanes", 2.5),
            ("profiling_slots", 1.5),
            ("resignature_every_seconds", float("nan")),
        ],
    )
    def test_non_integer_or_non_finite_field_rejected_at_load(
        self, name, value
    ):
        # n_lanes=2.5 loaded fine and crashed the run with a TypeError.
        doc = tiny(fleet={"n_lanes": 2, "hours": 2.0, name: value})
        with pytest.raises(ScenarioError, match=rf"\b{name}="):
            parse_scenario(doc)

    def test_host_faults_without_hosts_rejected(self):
        doc = tiny(fleet={"n_lanes": 2, "faults": "host:0@5+2"})
        with pytest.raises(ScenarioError, match="n_hosts"):
            parse_scenario(doc)

    def test_unknown_migration_key_rejected(self):
        doc = tiny(
            fleet={"n_lanes": 2, "n_hosts": 1},
            policies=["round_robin+migrate"],
            migration={"rebalance_every": 6, "teleport": True},
        )
        with pytest.raises(ScenarioError, match="teleport"):
            parse_scenario(doc)

    def test_migration_without_migrate_policy_rejected(self):
        doc = tiny(
            fleet={"n_lanes": 2, "n_hosts": 1},
            policies=["round_robin"],
            migration={"rebalance_every": 6},
        )
        with pytest.raises(ScenarioError, match="silently unused"):
            parse_scenario(doc)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(tiny(seed="zero"))

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "SYN-broken.yaml"
        path.write_text("id: SYN-broken\nstudy: fleet\nbogus: 1\n")
        with pytest.raises(ScenarioError, match="SYN-broken.yaml"):
            load_scenario(path)

    def test_json_documents_load_too(self, tmp_path):
        path = tmp_path / "SYN-json.json"
        path.write_text(json.dumps(tiny(id="SYN-json")))
        assert load_scenario(path).id == "SYN-json"


class TestScenarioLibrary:
    def test_library_loads_and_is_well_formed(self):
        scenarios = list_scenarios(REPO_ROOT / "scenarios")
        assert len(scenarios) >= 8
        ids = [s.id for s in scenarios]
        assert len(set(ids)) == len(ids)
        families = {s.family for s in scenarios}
        assert families == {"SYN", "RL"}
        assert {s.study for s in scenarios} == {"fleet"}
        for scenario in scenarios:
            assert scenario.description

    def test_smoke_scenarios_exist_in_library(self):
        for relative in SMOKE_SCENARIOS:
            assert (REPO_ROOT / relative).is_file()
        families = {
            load_scenario(REPO_ROOT / relative).family
            for relative in SMOKE_SCENARIOS
        }
        assert families == {"SYN", "RL"}  # one smoke per family


class TestRunner:
    @pytest.fixture(scope="class")
    def records(self):
        return run_scenario(parse_scenario(TINY))

    def test_single_run_grid(self, records):
        assert len(records) == 1
        record = records[0]
        assert record.scenario == "SYN-tiny"
        assert record.policy == "dedicated"  # no hosts configured
        assert record.sweep is None

    def test_metrics_are_finite_and_serializable(self, records):
        payload = record_to_dict(records[0])
        parsed = json.loads(json.dumps(payload))
        for name, value in parsed["metrics"].items():
            assert math.isfinite(value), name

    def test_sweep_expands_the_grid(self):
        scenario = parse_scenario(
            tiny(
                fleet={"hours": 2.0},
                sweep={"field": "n_lanes", "values": [2, 3]},
            )
        )
        records = run_scenario(scenario)
        assert [r.sweep["value"] for r in records] == [2, 3]
        keys = [r.key for r in records]
        assert keys == [
            "SYN-tiny[n_lanes=2]:dedicated",
            "SYN-tiny[n_lanes=3]:dedicated",
        ]

    def test_policies_expand_the_grid(self):
        scenario = parse_scenario(
            tiny(
                fleet={"n_lanes": 2, "hours": 2.0, "n_hosts": 1},
                policies=["round_robin", "best_fit"],
            )
        )
        records = run_scenario(scenario)
        assert [r.policy for r in records] == ["round_robin", "best_fit"]

    def test_workers_override_reaches_the_host_pressure_document(
        self, monkeypatch
    ):
        # Every document is a fleet document, so the CLI's --workers
        # override reaches the placement frontier's study config too.
        from repro.scenarios import runner

        class Reached(Exception):
            pass

        def stop(config):
            raise Reached(config)

        monkeypatch.setattr(runner, "run_fleet_multiplexing_study", stop)
        scenario = load_scenario(REPO_ROOT / "scenarios/RL-host-pressure.yaml")
        with pytest.raises(Reached) as excinfo:
            run_scenario(scenario, workers=0)
        config = excinfo.value.args[0]
        assert (config.n_lanes, config.n_hosts) == (20, 5)
        assert config.profiling_slots == 4
        assert config.workers == 0

    def test_integer_metrics_are_exactly_the_exact_ones(self):
        # The gate matches a metric exactly when the study's field is
        # integer-valued; the values a run emits must agree.
        scenario = parse_scenario(
            tiny(
                fleet={"n_lanes": 2, "hours": 2.0, "n_hosts": 1},
                policies=["round_robin+migrate"],
                migration={"rebalance_every": 2},
            )
        )
        (record,) = run_scenario(scenario)
        for name, value in record.metrics.items():
            assert isinstance(value, int) == (name in EXACT_METRICS), name
        assert EXACT_METRICS < record.metrics.keys()

    def test_jsonl_round_trip(self, records, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as fp:
            assert write_jsonl(records, fp) == 1
        loaded = load_records(path)
        assert loaded == {records[0].key: dict(records[0].metrics)}


class TestGate:
    BASE = {
        "SYN-x[n_lanes=2]:dedicated": {
            "violation_fraction": 0.25,
            "n_steps": 24,
            "lane_steps_per_second": 1000.0,
        }
    }

    def test_identical_records_pass(self):
        report = compare_records(self.BASE, self.BASE)
        assert report.ok
        assert report.checked == 1

    def test_float_drift_fails(self):
        candidate = {
            key: {**metrics, "violation_fraction": 0.2501}
            for key, metrics in self.BASE.items()
        }
        report = compare_records(candidate, self.BASE)
        assert not report.ok
        assert report.drifts[0].metric == "violation_fraction"

    def test_exact_metric_rejects_any_drift(self):
        assert "n_steps" in EXACT_METRICS
        candidate = {
            key: {**metrics, "n_steps": 25}
            for key, metrics in self.BASE.items()
        }
        assert not compare_records(candidate, self.BASE).ok

    def test_timing_metrics_never_gated(self):
        assert "lane_steps_per_second" in TIMING_METRICS
        candidate = {
            key: {**metrics, "lane_steps_per_second": 5.0}
            for key, metrics in self.BASE.items()
        }
        assert compare_records(candidate, self.BASE).ok

    def test_unexpected_record_fails_with_update_hint(self):
        candidate = {**self.BASE, "SYN-new:dedicated": {"n_steps": 1}}
        report = compare_records(candidate, self.BASE)
        assert not report.ok
        assert report.missing_keys == ["SYN-new:dedicated"]
        assert any("--update" in line for line in report.lines())

    def test_baseline_only_records_ignored(self):
        baseline = {**self.BASE, "SYN-extra:dedicated": {"n_steps": 1}}
        assert compare_records(self.BASE, baseline).ok

    def test_missing_metric_fails(self):
        candidate = {
            key: {m: v for m, v in metrics.items() if m != "n_steps"}
            for key, metrics in self.BASE.items()
        }
        assert not compare_records(candidate, self.BASE).ok

    def test_record_key_renders_list_sweep_values(self):
        key = record_key(
            "SYN-x", {"field": "demand_factors", "value": [1.0, 2.0]}, "p"
        )
        assert key == "SYN-x[demand_factors=[1.0, 2.0]]:p"


class TestTrackedBaseline:
    """The acceptance pin: clean main passes the gate, drift fails it."""

    @pytest.fixture(scope="class")
    def smoke_records(self):
        records = {}
        for relative in SMOKE_SCENARIOS:
            scenario = load_scenario(REPO_ROOT / relative)
            for record in run_scenario(scenario, workers=0):
                records[record.key] = dict(record.metrics)
        return records

    @pytest.fixture(scope="class")
    def baseline(self):
        return load_records(REPO_ROOT / "BENCH_scenarios.json")

    def test_clean_run_passes_the_gate(self, smoke_records, baseline):
        report = compare_records(smoke_records, baseline)
        assert report.ok, "\n".join(report.lines())
        assert report.checked == len(baseline)

    def test_perturbed_baseline_fails_the_gate(self, smoke_records, baseline):
        perturbed = {
            key: dict(metrics) for key, metrics in baseline.items()
        }
        key = sorted(perturbed)[0]
        perturbed[key]["violation_fraction"] = (
            perturbed[key]["violation_fraction"] + 0.01
        )
        report = compare_records(smoke_records, perturbed)
        assert not report.ok
        assert any(d.metric == "violation_fraction" for d in report.drifts)


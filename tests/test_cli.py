"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, _subparser, build_parser, main

#: ``fleet`` flags that set no FleetConfig field by their own name.
FLEET_CLI_ONLY = {
    "power_cost",
    "fault_blackout",
    "fault_residual",
    "fault_retries",
    "no_fault_recovery",
    "migration",
    "consolidate",
    "rebalance_every",
}


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig5", "--seed", "3"])
        assert args.command == "run"
        assert args.experiment == "fig5"
        assert args.seed == 3

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fleet_command(self):
        args = build_parser().parse_args(
            ["fleet", "--lanes", "16", "--hours", "12", "--slots", "2"]
        )
        assert args.command == "fleet"
        assert args.n_lanes == 16
        assert args.hours == 12.0
        assert args.profiling_slots == 2
        assert args.seed == 0

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.n_lanes == 8
        assert args.hours == 24.0
        assert args.step_seconds == 300.0
        assert args.mix == "scaleout"
        assert args.n_hosts == 0
        assert args.host_capacity_units == 12.0

    def test_fleet_hetero_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--mix", "mixed", "--hosts", "4", "--host-capacity", "9.5"]
        )
        assert args.mix == "mixed"
        assert args.n_hosts == 4
        assert args.host_capacity_units == 9.5

    def test_fleet_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--mix", "sideways"])

    def test_fleet_negative_hosts_rejected(self, capsys):
        # FleetConfig owns the check; the CLI names the flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--hosts", "-3"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_nonpositive_host_capacity_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--hosts", "2", "--host-capacity", "0"])
        assert excinfo.value.code == 2
        assert "--host-capacity" in capsys.readouterr().err

    def test_fleet_placement_flag(self):
        args = build_parser().parse_args(
            ["fleet", "--hosts", "4", "--placement", "best_fit"]
        )
        assert args.placement == "best_fit"
        # No flag means "no explicit choice": main() resolves it to
        # round_robin only when hosts are enabled.
        assert build_parser().parse_args(["fleet"]).placement is None

    def test_fleet_unknown_placement_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--placement", "pile"])

    def test_fleet_migration_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--hosts", "4", "--migration", "--rebalance-every", "6"]
        )
        assert args.migration is True
        assert args.rebalance_every == 6
        defaults = build_parser().parse_args(["fleet"])
        assert defaults.migration is False
        assert defaults.rebalance_every == 12

    def test_scenario_run_command(self):
        args = build_parser().parse_args(
            ["scenario", "run", "a.yaml", "b.yaml", "--workers", "0"]
        )
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.files == ["a.yaml", "b.yaml"]
        assert args.workers == 0
        assert args.out is None

    def test_scenario_list_command(self):
        args = build_parser().parse_args(["scenario", "list"])
        assert args.scenario_command == "list"
        assert args.dir == "scenarios"

    def test_scenario_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_placement_command_defaults(self):
        args = build_parser().parse_args(["placement"])
        assert args.command == "placement"
        assert args.lanes == 50
        assert args.hosts == 10
        assert args.host_capacity == 30.0
        assert args.mix == "mixed"
        assert "first_fit_decreasing" in args.policies
        assert args.rebalance_every == 12
        assert args.placement_demand == "learning-peak"

    def test_placement_command_policies(self):
        args = build_parser().parse_args(
            ["placement", "--policies", "best_fit+migrate", "round_robin"]
        )
        assert args.policies == ["best_fit+migrate", "round_robin"]

    def test_fleet_energy_flag_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.placement_demand is None
        assert args.consolidate is False
        assert args.power_cost is None

    def test_fleet_dests_are_config_fields(self):
        # A config error names its flags by looking up each field's
        # dest, so every flag must set a FleetConfig field by name or
        # be one of the few CLI-only knobs.
        from dataclasses import fields

        from repro.experiments.multiplexing_study import FleetConfig

        names = {f.name for f in fields(FleetConfig)}
        fleet = _subparser(build_parser(), "fleet")
        dests = {a.dest for a in fleet._actions if a.option_strings} - {
            "help"
        }
        assert dests - names <= FLEET_CLI_ONLY
        assert "rng_mode" not in dests


class TestRegistry:
    def test_every_figure_covered(self):
        expected = {
            "fig1", "fig4", "table1", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig11", "overhead", "summary",
        }
        assert set(EXPERIMENTS) == expected

    def test_descriptions_nonempty(self):
        for name, (description, fn) in EXPERIMENTS.items():
            assert description
            assert callable(fn)


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_fig5(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "classes" in out

    def test_run_overhead(self, capsys):
        assert main(["run", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_run_fleet(self, capsys):
        assert main(["fleet", "--lanes", "2", "--hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "2-service multiplexing study" in out
        assert "hit rate" in out
        assert "profiling queue" in out
        assert "shared hosts" not in out  # dedicated hardware by default

    def test_run_fleet_mixed_on_shared_hosts(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "2", "--hours", "2",
                    "--mix", "mixed", "--hosts", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(mixed)" in out
        assert "shared hosts (1 x 12 units, round_robin placement" in out
        assert "escalation" in out

    @pytest.mark.parametrize(
        ("capacity", "shown"), [("12.5", "1 x 12.5 units"), ("0.5", "1 x 0.5 units")]
    )
    def test_fleet_report_keeps_fractional_host_capacity(
        self, capsys, capacity, shown
    ):
        # A fractional capacity used to print rounded ("1 x 12 units",
        # "1 x 0 units").
        assert (
            main(
                [
                    "fleet", "--lanes", "2", "--hours", "1",
                    "--mix", "scaleup", "--hosts", "1",
                    "--host-capacity", capacity,
                ]
            )
            == 0
        )
        assert f"shared hosts ({shown}, " in capsys.readouterr().out

    def test_run_fleet_with_placement_policy(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "2", "--hours", "2",
                    "--mix", "mixed", "--hosts", "1",
                    "--placement", "first_fit_decreasing",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "first_fit_decreasing placement" in out

    def test_fleet_placement_without_hosts_fails_loudly(self, capsys):
        # These flags used to be silently ignored on dedicated
        # hardware; now they fail like the pinned hosts+shards error.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--placement", "best_fit"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--host-capacity", "nan"), ("--hours", "inf")]
    )
    def test_fleet_non_finite_value_fails_loudly(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--hosts", "2", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_fleet_run_beyond_the_trace_fails_loudly(self, capsys):
        # Used to simulate all 168 trace hours, then exit 1 with a
        # traceback from the first step past the trace.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--lanes", "2", "--hours", "169"])
        assert excinfo.value.code == 2
        assert "(flags: --hours)" in capsys.readouterr().err

    def test_fleet_migration_without_hosts_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--migration"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_consolidate_without_hosts_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--consolidate"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_placement_demand_without_hosts_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--placement-demand", "forecast"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err
        # The default learning-peak is just as host-coupled.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--placement-demand", "learning-peak"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_power_cost_without_hosts_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--power-cost", "0.12"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_consolidate_reports_energy_axis(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "4", "--hours", "4",
                    "--mix", "mixed", "--hosts", "2",
                    "--consolidate", "--placement-demand", "forecast",
                    "--power-cost", "0.10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "energy (forecast packing estimates):" in out
        assert "host-hours on" in out
        assert "power" in out

    def test_fleet_energy_row_needs_no_power_cost(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "2", "--hours", "2",
                    "--mix", "mixed", "--hosts", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "energy (learning-peak packing estimates):" in out
        assert "power" not in out

    def test_run_fleet_hosts_with_shards(self, capsys):
        # Host-coupled sharding end to end: two thread shards exchange
        # demands per step and report fleet-wide host stats.
        assert (
            main(
                [
                    "fleet", "--lanes", "4", "--hours", "2",
                    "--mix", "mixed", "--hosts", "2",
                    "--host-capacity", "6", "--shards", "2",
                    "--workers", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shared hosts" in out
        assert "2 shards" in out

    def test_fleet_workers_without_shards_fails_loudly(self, capsys):
        # --workers sized a pool that a one-shard sweep never built;
        # it was silently ignored instead of failing like --placement
        # without --hosts.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--workers", "4"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_fleet_shard_dir_without_shards_fails_loudly(
        self, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--shard-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_fleet_undersized_pool_for_hosts_fails_loudly(self, capsys):
        # Host-coupled shards meet at a barrier every step, so a pool
        # smaller than the shard count cannot run them; it used to
        # crash inside the sweep with a traceback instead.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fleet", "--lanes", "4", "--hours", "1", "--shards", "2",
                "--workers", "1", "--hosts", "2",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "--shards" in err and "--hosts" in err

    def test_fleet_host_faults_without_hosts_fail_loudly(self, capsys):
        # A host-death schedule on dedicated hardware has nothing to
        # kill; fail like the other hosts-coupled flags.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--faults", "host:0@24+12"])
        assert excinfo.value.code == 2
        assert "--hosts" in capsys.readouterr().err

    def test_fleet_fault_knobs_without_schedule_fail_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--fault-retries", "2"])
        assert excinfo.value.code == 2
        assert "--faults" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--no-fault-recovery"])
        assert excinfo.value.code == 2
        assert "--faults" in capsys.readouterr().err

    def test_fleet_wave_workers_without_batch_fails_loudly(self, capsys):
        # The scalar loop has no waves to overlap; the config rejects
        # the pair instead of ignoring --wave-workers.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--wave-workers", "2", "--no-batch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--wave-workers" in err and "--no-batch" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fleet", "--seed", "-1"], "--seed"),
            (
                ["fleet", "--hosts", "1", "--migration",
                 "--rebalance-every", "0"],
                "--rebalance-every",
            ),
            (["placement", "--seed", "-1"], "--seed"),
            (
                ["placement", "--policies", "round_robin+migrate",
                 "--rebalance-every", "0"],
                "--rebalance-every",
            ),
            (["fleet", "--slots", "0"], "--slots"),
            (
                ["fleet", "--queue-policy", "fifo", "--high-watermark", "4",
                 "--low-watermark", "1"],
                "--queue-policy, --high-watermark, --low-watermark",
            ),
            (
                ["fleet", "--hosts", "2", "--faults", "host:0@100000+1"],
                "--faults",
            ),
            (
                ["fleet", "--queue-policy", "priority", "--high-watermark",
                 "4", "--low-watermark", "-1"],
                "--high-watermark, --low-watermark",
            ),
            (["fleet", "--resignature-every", "nan"], "--resignature-every"),
            (["fleet", "--wave-workers", "-1"], "--wave-workers"),
        ],
    )
    def test_bad_config_names_its_flag(self, capsys, argv, flag):
        # A negative seed crashed inside numpy, and placement let every
        # config error escape as a traceback (exit 1); the fleet
        # migration error named no field, so it listed no flag.  Queue
        # errors named every queue flag, and a fault scheduled after
        # the run's last step passed silently (exit 0, no fault).
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--lanes", "2", "--hours", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"(flags: {flag})" in captured.err
        assert captured.out == ""

    def test_fleet_rng_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--rng-mode", "legacy"])
        assert excinfo.value.code == 2

    def test_fleet_bad_fault_schedule_fails_loudly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--hosts", "2", "--faults", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid --faults" in capsys.readouterr().err

    def test_run_fleet_with_host_faults(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "4", "--hours", "4",
                    "--mix", "mixed", "--hosts", "2",
                    "--host-capacity", "6",
                    "--faults", "host:0@5+6,blackout=300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shared hosts" in out
        assert "faults: 1 host failure(s)" in out

    def test_run_fleet_with_migration(self, capsys):
        assert (
            main(
                [
                    "fleet", "--lanes", "2", "--hours", "2",
                    "--mix", "mixed", "--hosts", "1", "--migration",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shared hosts" in out

    def test_scenario_run_emits_jsonl(self, capsys, tmp_path):
        import json

        doc = tmp_path / "SYN-tiny.yaml"
        doc.write_text(
            "id: SYN-tiny\n"
            "study: fleet\n"
            "fleet:\n"
            "  n_lanes: 2\n"
            "  hours: 2.0\n"
        )
        out_path = tmp_path / "run.jsonl"
        assert (
            main(["scenario", "run", str(doc), "--out", str(out_path)]) == 0
        )
        stdout = capsys.readouterr().out
        records = [json.loads(line) for line in stdout.splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["scenario"] == "SYN-tiny"
        assert record["policy"] == "dedicated"
        assert record["metrics"]["n_steps"] == 24
        assert out_path.read_text().strip() == stdout.strip()

    TINY_SCENARIO = (
        "id: SYN-tiny\n"
        "study: fleet\n"
        "fleet:\n"
        "  n_lanes: 2\n"
        "  hours: 2.0\n"
    )

    @pytest.mark.parametrize(
        "name, text, named",
        [
            # A document without an id names the field.
            ("no-id.yaml", "study: fleet\n", "id must match"),
            # The study config's own rule names the field.
            (
                "no-slots.yaml",
                TINY_SCENARIO + "  profiling_slots: 0\n",
                "profiling_slots",
            ),
            # A file that is not there.
            ("missing.yaml", None, "cannot read the scenario document"),
        ],
        ids=["missing-id", "zero-slots", "missing-file"],
    )
    def test_scenario_run_reports_bad_input_as_usage_error(
        self, capsys, tmp_path, name, text, named
    ):
        doc = tmp_path / name
        if text is not None:
            doc.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", str(doc)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "scenario run" in captured.err
        assert str(doc) in captured.err
        assert named in captured.err
        assert captured.out == ""

    def test_scenario_run_validates_every_document_first(
        self, capsys, tmp_path
    ):
        """A valid document followed by an invalid one runs neither."""
        good = tmp_path / "SYN-tiny.yaml"
        good.write_text(self.TINY_SCENARIO)
        bad = tmp_path / "bad.yaml"
        bad.write_text(self.TINY_SCENARIO + "  profiling_slots: 0\n")
        out_path = tmp_path / "run.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", str(good), str(bad), "--out", str(out_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "running" not in captured.err
        assert str(bad) in captured.err
        assert not out_path.exists()

    def test_scenario_list_prints_library(self, capsys):
        from pathlib import Path

        scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
        assert main(["scenario", "list", "--dir", str(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "SYN-lane-ramp" in out
        assert "RL-diurnal-spikes" in out

    def test_run_placement_study(self, capsys):
        assert (
            main(
                [
                    "placement", "--lanes", "4", "--hours", "2",
                    "--hosts", "2", "--host-capacity", "10",
                    "--policies", "round_robin", "best_fit",
                    "--demand-factors", "0.8", "1.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "placement: 4 lanes on 2 shared hosts" in out
        assert "round_robin" in out and "best_fit" in out
        assert "best:" in out

    def test_run_placement_study_consolidate_forecast(self, capsys):
        assert (
            main(
                [
                    "placement", "--lanes", "4", "--hours", "2",
                    "--hosts", "2", "--host-capacity", "10",
                    "--policies", "first_fit_decreasing+consolidate",
                    "--placement-demand", "forecast",
                    "--demand-factors", "0.8", "1.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "first_fit_decreasing+consolidate" in out
        assert "host-h on" in out

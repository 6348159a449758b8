"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import load_infrastructure


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_every_subcommand_help_names_its_output_artifacts(self):
        """Guard against --help drift: each help string says what comes out.

        Every subcommand prints a table/listing or writes files; its one-line
        help must say so ("print ..." / "write ...") so `cgsim --help` stays
        an accurate contract of each command's artifacts.
        """
        import argparse

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for choice in sub._choices_actions:
            text = (choice.help or "").lower()
            assert "print" in text or "write" in text, (
                f"subcommand {choice.dest!r} help does not name its output "
                f"artifacts: {choice.help!r}"
            )


class TestPoliciesCommand:
    def test_lists_bundled_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "round_robin" in out
        assert "least_loaded" in out


class TestGenerateConfig:
    def test_synthetic_grid(self, tmp_path, capsys):
        out_dir = tmp_path / "configs"
        code = main([
            "generate-config", "--sites", "4", "--seed", "1",
            "--output-dir", str(out_dir),
        ])
        assert code == 0
        infra = load_infrastructure(out_dir / "infrastructure.json")
        assert len(infra) == 4
        assert (out_dir / "topology.json").exists()
        assert (out_dir / "execution.json").exists()

    def test_wlcg_grid(self, tmp_path):
        out_dir = tmp_path / "configs"
        code = main([
            "generate-config", "--kind", "wlcg", "--sites", "6",
            "--output-dir", str(out_dir),
        ])
        assert code == 0
        infra = load_infrastructure(out_dir / "infrastructure.json")
        assert infra.site_names[0] == "CERN"


class TestGenerateTraceAndRun:
    @pytest.fixture
    def config_dir(self, tmp_path):
        out_dir = tmp_path / "configs"
        main(["generate-config", "--sites", "3", "--output-dir", str(out_dir)])
        return out_dir

    def test_generate_trace(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code = main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "25",
            "--output", str(trace_path),
        ])
        assert code == 0
        assert trace_path.exists()
        assert "25 jobs" in capsys.readouterr().out

    def test_run_simulation(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "20",
            "--output", str(trace_path),
        ])
        argv = [
            "run",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--topology", str(config_dir / "topology.json"),
            "--execution", str(config_dir / "execution.json"),
            "--trace", str(trace_path),
            "--per-site", "--dashboard",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert "dashboard" in out.lower()
        # The removed sharded-engine flag is rejected by the parser.
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--shards", "2"])
        assert excinfo.value.code != 0
        assert "--shards" in capsys.readouterr().err

    def test_calibrate_command(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "60",
            "--output", str(trace_path),
        ])
        calibrated_path = tmp_path / "calibrated.json"
        code = main([
            "calibrate",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--trace", str(trace_path),
            "--budget", "15",
            "--output", str(calibrated_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean_after_overall" in out
        assert calibrated_path.exists()

    def test_sensitivity_command(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "40",
            "--output", str(trace_path),
        ])
        code = main([
            "sensitivity",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--trace", str(trace_path),
            "--mode", "analytic",
            "--factors", "0.5,1.0,2.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominant parameter" in out
        assert "core_speed" in out

    def test_compare_policies_command(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "30",
            "--output", str(trace_path),
        ])
        code = main([
            "compare-policies",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--topology", str(config_dir / "topology.json"),
            "--trace", str(trace_path),
            "--policies", "round_robin,least_loaded",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "round_robin" in out and "least_loaded" in out
        assert "shortest makespan" in out

    def test_compare_policies_rejects_unknown_policy(self, config_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        main([
            "generate-trace",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--jobs", "10",
            "--output", str(trace_path),
        ])
        code = main([
            "compare-policies",
            "--infrastructure", str(config_dir / "infrastructure.json"),
            "--topology", str(config_dir / "topology.json"),
            "--trace", str(trace_path),
            "--policies", "teleport_everything",
        ])
        assert code == 1
        assert "unknown policies" in capsys.readouterr().err

    def test_error_reported_cleanly(self, tmp_path, capsys):
        code = main([
            "generate-trace",
            "--infrastructure", str(tmp_path / "missing.json"),
            "--jobs", "5",
            "--output", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestScenarioCommands:
    def test_scenario_list_includes_every_bundled_pack(self, capsys):
        from repro.scenarios import available_scenario_packs
        from repro.scenarios.registry import BUNDLED_PACK_DIR

        bundled_files = sorted(BUNDLED_PACK_DIR.glob("*.json"))
        assert len(bundled_files) >= 6, "expected >= 6 bundled packs"
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in available_scenario_packs():
            assert name in out, f"`scenario list` omits bundled pack {name!r}"

    def test_scenario_list_tag_filter(self, capsys):
        assert main(["scenario", "list", "--tag", "calibration"]) == 0
        out = capsys.readouterr().out
        assert "calibration-sweep" in out
        assert "heavy-tail-stress" not in out

    def test_scenario_show_by_name_prints_canonical_json(self, capsys):
        assert main(["scenario", "show", "job-scaling"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "job-scaling"
        assert payload["sweep"]["axes"]["workload.jobs"]

    def test_scenario_show_by_path(self, tmp_path, capsys):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({"name": "mine", "workload": {"jobs": 5}}))
        assert main(["scenario", "show", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "mine"

    def test_scenario_validate_reports_ok_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"name": "good", "workload": {"jobs": 5}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "workload": {"jobs": 0}}))
        assert main(["scenario", "validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["scenario", "validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "OK    good" in out and "FAIL" in out and "jobs" in out

    def test_scenario_run_single_pack_from_file(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(
            json.dumps(
                {
                    "name": "single",
                    "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
                    "workload": {"jobs": 12, "seed": 2},
                    "execution": {
                        "plugin": "least_loaded",
                        "monitoring": {"snapshot_interval": 0.0},
                    },
                }
            )
        )
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario single [single]" in out
        assert "finished" in out

    def test_scenario_run_sweep_with_overrides_and_output(self, tmp_path, capsys):
        out_path = tmp_path / "outcome.json"
        code = main([
            "scenario", "run", "wlcg-baseline",
            "--workers", "1",
            "--set", "grid.sites=3",
            "--set", "workload.jobs=30",
            "--set", 'sweep.axes={"execution.plugin": ["round_robin"]}',
            "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plugin=round_robin" in out
        payload = json.loads(out_path.read_text())
        assert payload["mode"] == "sweep"
        assert payload["sweep"]["runs"][0]["metrics"]["finished_jobs"] == 30

    def test_scenario_run_unknown_pack_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "no-such-pack"]) == 1
        assert "unknown scenario pack" in capsys.readouterr().err

    def test_scenario_run_bad_override_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "job-scaling", "--set", "nonsense"]) == 1
        assert "PATH=VALUE" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_prints_rates_and_writes_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "rates.json"
        code = main([
            "bench", "--scale", "0.01", "--repeat", "1", "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeout_churn" in out
        assert "events_per_s" in out
        payload = json.loads(out_path.read_text())
        workloads = {row["workload"] for row in payload["results"]}
        assert workloads == {
            "timeout_churn",
            "resource_contention",
            "store_pingpong",
        }
        assert all(row["events_per_s"] > 0 for row in payload["results"])

    def test_bench_profile_dumps_cumulative_summary(self, capsys):
        code = main(["bench", "--scale", "0.01", "--repeat", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cProfile" in out
        assert "cumulative" in out

    def test_bench_profile_sort_tottime(self, capsys):
        code = main([
            "bench", "--scale", "0.01", "--repeat", "1", "--profile", "--sort", "tottime",
        ])
        assert code == 0
        assert "tottime" in capsys.readouterr().out

    def test_bench_profile_json_is_machine_readable(self, capsys):
        import json

        code = main([
            "bench", "--scale", "0.01", "--repeat", "1", "--profile", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile_sort"] == "cumulative"
        assert {row["workload"] for row in payload["results"]} >= {"timeout_churn"}
        assert payload["profile"], "flat profile rows expected"
        first = payload["profile"][0]
        assert {"function", "ncalls", "tottime", "cumtime"} <= set(first)

    def test_bench_json_requires_profile(self, capsys):
        assert main(["bench", "--scale", "0.01", "--json"]) == 1
        assert "requires --profile" in capsys.readouterr().err

    def test_bench_rejects_bad_scale(self, capsys):
        assert main(["bench", "--scale", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_per_site_prints_transition_table(self, tmp_path, capsys):
        import json as _json

        main(["generate-config", "--sites", "2", "--output-dir", str(tmp_path / "cfg")])
        main([
            "generate-trace",
            "--infrastructure", str(tmp_path / "cfg" / "infrastructure.json"),
            "--jobs", "30",
            "--output", str(tmp_path / "trace.csv"),
        ])
        capsys.readouterr()
        code = main([
            "run",
            "--infrastructure", str(tmp_path / "cfg" / "infrastructure.json"),
            "--topology", str(tmp_path / "cfg" / "topology.json"),
            "--execution", str(tmp_path / "cfg" / "execution.json"),
            "--trace", str(tmp_path / "trace.csv"),
            "--per-site",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "transitions" in out
        assert "finished" in out


class TestSchemaCommand:
    """`cgsim schema emit/check/validate` and its error paths."""

    def test_emit_prints_schema_json(self, capsys):
        assert main(["schema", "emit"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["$schema"].endswith("2020-12/schema")
        assert data["required"] == ["name"]

    def test_emit_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "out" / "schema.json"
        assert main(["schema", "emit", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["type"] == "object"
        assert str(target) in capsys.readouterr().out

    def test_emit_update_conflicts_with_output(self, tmp_path, capsys):
        code = main(["schema", "emit", "--update", "--output", str(tmp_path / "x")])
        assert code == 1
        assert "drop --output" in capsys.readouterr().err

    def test_check_green_when_committed_copy_matches(self, tmp_path, capsys, monkeypatch):
        from repro.schema import schema_json

        committed = tmp_path / "schema.json"
        committed.write_text(schema_json(), encoding="utf-8")
        monkeypatch.setattr("repro.schema.schema_path", lambda: committed)
        assert main(["schema", "check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_detects_drift_and_names_remedy(self, tmp_path, capsys, monkeypatch):
        committed = tmp_path / "schema.json"
        committed.write_text("{\"stale\": true}\n", encoding="utf-8")
        monkeypatch.setattr("repro.schema.schema_path", lambda: committed)
        assert main(["schema", "check"]) == 1
        err = capsys.readouterr().err
        assert "DRIFT" in err
        assert "schema.json" in err
        assert "emit --update" in err

    def test_check_missing_committed_copy_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.schema.schema_path", lambda: tmp_path / "gone.json")
        assert main(["schema", "check"]) == 1
        assert "gone.json" in capsys.readouterr().err

    def test_validate_accepts_bundled_pack_by_name(self, capsys):
        assert main(["schema", "validate", "wlcg-baseline"]) == 0
        assert "OK    wlcg-baseline" in capsys.readouterr().out

    def test_validate_malformed_pack_names_file_and_pointer(self, tmp_path, capsys):
        bad = tmp_path / "bad-pack.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "grid": {"kind": "synthetic", "sites": 3},
            "workload": {"generator": "synthetic", "jobs": 0},
            "execution": {"plugin": "least_loaded"},
        }), encoding="utf-8")
        assert main(["schema", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bad-pack.json" in out
        assert "(at /workload/jobs)" in out

    def test_validate_unparseable_file_fails_naming_it(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["schema", "validate", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "broken.json" in out

    def test_validate_unknown_pack_name_fails_naming_it(self, capsys):
        assert main(["schema", "validate", "no-such-pack"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "no-such-pack" in out


class TestConformanceCommand:
    """`cgsim conformance run` happy path and error paths."""

    def test_single_plugin_text_report(self, capsys):
        code = main(["conformance", "run", "--family", "eviction",
                     "--plugin", "lru", "--no-subprocess"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  eviction/lru" in out
        assert "1/1 plugins conform" in out

    def test_json_output_is_parseable(self, capsys):
        code = main(["conformance", "run", "--family", "replication",
                     "--plugin", "static_n", "--json", "--no-subprocess"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["plugin"] == "static_n"
        assert data[0]["ok"] is True

    def test_failing_plugin_exits_nonzero_naming_invariant(self, capsys):
        code = main(["conformance", "run", "--family", "eviction",
                     "--plugin", "repro.conformance.demo:WobblyEviction",
                     "--no-subprocess"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "repeat_determinism" in out and "no_global_rng" in out

    def test_unknown_plugin_exits_nonzero_naming_it(self, capsys):
        code = main(["conformance", "run", "--family", "eviction",
                     "--plugin", "definitely_absent"])
        assert code == 1
        assert "definitely_absent" in capsys.readouterr().err

    def test_unknown_family_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["conformance", "run", "--family", "bogus"])
        assert excinfo.value.code != 0
        assert "bogus" in capsys.readouterr().err

    def test_lint_flag_adds_static_pass_naming_the_findings(self, capsys):
        code = main(["conformance", "run", "--family", "eviction",
                     "--plugin", "repro.conformance.demo:WobblyEviction",
                     "--no-subprocess", "--lint"])
        assert code == 1
        out = capsys.readouterr().out
        # The static pass runs with no baseline, so the demo plugin's
        # deliberate findings surface with rule ids and locations.
        assert "static_lint" in out
        assert "det-global-rng" in out
        assert "demo.py" in out

    def test_lint_flag_passes_for_a_clean_plugin(self, capsys):
        code = main(["conformance", "run", "--family", "eviction",
                     "--plugin", "lru", "--no-subprocess", "--lint"])
        assert code == 0
        out = capsys.readouterr().out
        assert "static_lint" in out


class TestLintCommand:
    """`cgsim lint`: text/JSON reports, rule selection, baseline flags."""

    def seed(self, tmp_path):
        target = tmp_path / "seeded.py"
        target.write_text(
            "import random\n"
            "def pick(items):\n"
            "    return items[random.randrange(len(items))]\n",
            encoding="utf-8",
        )
        return target

    def test_clean_tree_exits_zero_with_summary(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s) in 1 file(s)" in out

    def test_findings_print_location_rule_and_hint(self, tmp_path, capsys):
        target = self.seed(tmp_path)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:1:1: det-random-import" in out
        assert f"{target}:3:" in out and "det-global-rng" in out
        assert "hint:" in out

    def test_json_document_is_machine_readable(self, tmp_path, capsys):
        target = self.seed(tmp_path)
        assert main(["lint", str(target), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert {"path", "line", "col", "rule", "message", "hint"} <= set(
            document["findings"][0]
        )
        assert document["files_scanned"] == 1

    def test_rule_selection_narrows_the_run(self, tmp_path, capsys):
        target = self.seed(tmp_path)
        assert main(["lint", str(target), "--rule", "det-random-import"]) == 1
        out = capsys.readouterr().out
        assert "det-random-import" in out
        assert "det-global-rng" not in out

    def test_unknown_rule_is_a_clean_error(self, tmp_path, capsys):
        target = self.seed(tmp_path)
        assert main(["lint", str(target), "--rule", "det-tpyo"]) == 1
        assert "unknown rule or family" in capsys.readouterr().err

    def test_missing_path_is_a_clean_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_write_baseline_then_green_then_stale_ratchet(
        self, tmp_path, capsys
    ):
        target = self.seed(tmp_path)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(target), "--write-baseline",
                     str(baseline)]) == 0
        assert "wrote baseline" in capsys.readouterr().out
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out
        # Fixing the findings makes the recorded entries stale: the
        # shrink-only ratchet demands the baseline be rewritten.
        target.write_text("X = 1\n", encoding="utf-8")
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out

    def test_no_baseline_contradicts_baseline_file(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--no-baseline",
                     "--baseline", "x.json"]) == 1
        assert "contradicts" in capsys.readouterr().err

    def test_committed_tree_is_clean(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestServiceCommands:
    """`cgsim serve` / `cgsim client`: parser wiring and a live round trip."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8641
        assert args.workers == 2
        assert args.store_root is None

    def test_client_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_round_trip_against_a_live_server(self, tmp_path, capsys):
        """submit --watch, status table, status --json, stop-after-done."""
        from repro.service import ServiceConfig, ServiceUnderTest, tiny_pack

        pack_file = tmp_path / "tiny.pack.json"
        pack_file.write_text(json.dumps(tiny_pack()))
        with ServiceUnderTest(
            ServiceConfig(workers=1, checkpoint_every=10000.0)
        ) as sut:
            sut.wait_idle_workers(1)
            port = str(sut.port)

            code = main([
                "client", "submit", str(pack_file), "--port", port, "--watch",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "submitted s000001" in out
            assert "result state=done fingerprint=" in out

            assert main(["client", "status", "--port", port]) == 0
            table = capsys.readouterr().out
            assert "s000001" in table and "state=done" in table

            assert main([
                "client", "status", "s000001", "--port", port, "--json",
            ]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["state"] == "done"
            assert document["fingerprint"]

            assert main(["client", "stop", "s000001", "--port", port]) == 0
            assert "state=done" in capsys.readouterr().out

    def test_client_errors_are_reported_not_raised(self, capsys):
        from repro.service import ServiceConfig, ServiceUnderTest

        with ServiceUnderTest(ServiceConfig(workers=1)) as sut:
            sut.wait_idle_workers(1)
            code = main([
                "client", "status", "s999999", "--port", str(sut.port),
            ])
            err = capsys.readouterr().err
            assert code == 1
            assert "error:" in err

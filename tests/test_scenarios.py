"""Tests for the declarative scenario-pack subsystem (repro.scenarios)."""

from __future__ import annotations

import json
import sys

import pytest

from repro.config.execution import ExecutionConfig
from repro.scenarios import (
    ScenarioPack,
    ScenarioRegistry,
    apply_override,
    apply_overrides,
    available_scenario_packs,
    get_scenario_pack,
    load_scenario_pack,
    run_scenario_pack,
    save_scenario_pack,
    sweep_specs,
)
from repro.scenarios.registry import BUNDLED_PACK_DIR
from repro.utils.errors import CGSimError, ConfigurationError

BUNDLED = [
    "calibration-sweep",
    "data-aware-vs-naive",
    "fault-campaign",
    "heavy-tail-stress",
    "job-scaling",
    "wlcg-baseline",
]

TINY = {
    "name": "tiny",
    "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
    "workload": {"jobs": 15, "seed": 4},
    "execution": {"plugin": "least_loaded", "monitoring": {"snapshot_interval": 0.0}},
}


def tiny(**changes) -> dict:
    data = json.loads(json.dumps(TINY))
    data.update(changes)
    return data


class TestSchemaValidation:
    def test_minimal_pack_gets_defaults(self):
        pack = ScenarioPack.from_dict({"name": "bare"})
        assert pack.grid.kind == "synthetic"
        assert pack.workload.generator == "synthetic"
        assert isinstance(pack.execution, ExecutionConfig)
        assert pack.mode() == "single"

    def test_name_is_required(self):
        with pytest.raises(ConfigurationError, match="'name' is required"):
            ScenarioPack.from_dict({"grid": {}})

    def test_unknown_top_level_field_is_named(self):
        with pytest.raises(ConfigurationError, match="unknown fields \\['grids'\\]"):
            ScenarioPack.from_dict({"name": "p", "grids": {}})

    def test_unknown_grid_field_reports_pack_and_section(self):
        with pytest.raises(ConfigurationError, match="scenario pack 'p': grid.*nodes"):
            ScenarioPack.from_dict({"name": "p", "grid": {"nodes": 3}})
        # The removed engine knobs are unknown fields like any other.
        for key, value in (("macro_batch", True), ("shards", 2), ("shard_window", 100.0)):
            with pytest.raises(
                ConfigurationError,
                match=f"scenario pack 'p': execution.*'{key}'.*at /execution",
            ):
                ScenarioPack.from_dict({"name": "p", "execution": {key: value}})

    def test_bad_grid_kind(self):
        with pytest.raises(ConfigurationError, match="kind must be one of"):
            ScenarioPack.from_dict({"name": "p", "grid": {"kind": "cloud"}})

    def test_files_kind_requires_paths(self):
        with pytest.raises(ConfigurationError, match="requires the 'infrastructure' path"):
            ScenarioPack.from_dict({"name": "p", "grid": {"kind": "files"}})

    def test_paths_rejected_for_generated_grids(self):
        with pytest.raises(ConfigurationError, match="only valid with kind 'files'"):
            ScenarioPack.from_dict(
                {"name": "p", "grid": {"kind": "wlcg", "infrastructure": "x.json"}}
            )

    def test_workload_spec_keys_are_validated(self):
        with pytest.raises(ConfigurationError, match="workload: spec.*walltime_mediam"):
            ScenarioPack.from_dict(
                {"name": "p", "workload": {"spec": {"walltime_mediam": 10}}}
            )

    def test_workload_spec_values_are_validated(self):
        with pytest.raises(ConfigurationError, match="multicore_fraction"):
            ScenarioPack.from_dict(
                {"name": "p", "workload": {"spec": {"multicore_fraction": 1.5}}}
            )

    def test_execution_errors_are_prefixed_with_the_pack(self):
        with pytest.raises(ConfigurationError, match="scenario pack 'p'.*max_retries"):
            ScenarioPack.from_dict({"name": "p", "execution": {"max_retries": -1}})

    def test_faults_job_failures_validated(self):
        with pytest.raises(ConfigurationError, match="job_failures.*default_rate"):
            ScenarioPack.from_dict(
                {"name": "p", "faults": {"job_failures": {"default_rate": 2.0}}}
            )

    def test_outage_windows_accept_duration_strings(self):
        pack = ScenarioPack.from_dict(
            {
                "name": "p",
                "faults": {"outages": [{"site": "A", "start": "4h", "end": "12h"}]},
            }
        )
        _, windows = pack.faults.build(["A"])
        assert windows[0].start == 4 * 3600.0 and windows[0].end == 12 * 3600.0

    def test_outage_model_requires_horizon(self):
        with pytest.raises(ConfigurationError, match="requires 'horizon'"):
            ScenarioPack.from_dict(
                {
                    "name": "p",
                    "faults": {
                        "outage_model": {
                            "mean_time_between_failures": 3600,
                            "mean_time_to_repair": 600,
                        }
                    },
                }
            )

    def test_panda_mean_task_size_validated_eagerly(self):
        """A bad mean_task_size must fail at validate time, not mid-sweep."""
        with pytest.raises(ConfigurationError, match="mean_task_size must be >= 1"):
            ScenarioPack.from_dict(
                {"name": "p", "workload": {"generator": "panda", "mean_task_size": 0.5}}
            )

    def test_calibration_workers_field(self):
        pack = ScenarioPack.from_dict(
            {"name": "p", "calibration": {"workers": 0}}
        )
        assert pack.calibration.workers == 0
        with pytest.raises(ConfigurationError, match="workers must be >= 0"):
            ScenarioPack.from_dict({"name": "p", "calibration": {"workers": -1}})

    def test_sweep_and_calibration_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            ScenarioPack.from_dict(
                {
                    "name": "p",
                    "calibration": {},
                    "sweep": {"axes": {"workload.jobs": [1]}},
                }
            )

    def test_calibration_rejects_faults(self):
        with pytest.raises(ConfigurationError, match="do not support 'faults'"):
            ScenarioPack.from_dict(
                {
                    "name": "p",
                    "calibration": {},
                    "faults": {"job_failures": {"default_rate": 0.1}},
                }
            )

    def test_sweep_needs_at_least_one_axis(self):
        with pytest.raises(ConfigurationError, match="at least one sweep axis"):
            ScenarioPack.from_dict({"name": "p", "sweep": {"axes": {}}})

    def test_bad_axis_value_is_reported_with_its_axis(self):
        with pytest.raises(ConfigurationError, match="axis 'workload.jobs' value 0"):
            ScenarioPack.from_dict(
                {"name": "p", "sweep": {"axes": {"workload.jobs": [100, 0]}}}
            )

    def test_axis_may_not_target_pack_metadata(self):
        with pytest.raises(ConfigurationError, match="must target a simulation field"):
            ScenarioPack.from_dict(
                {"name": "p", "sweep": {"axes": {"name": ["a", "b"]}}}
            )

    def test_round_trip_through_to_dict(self):
        for name in BUNDLED:
            pack = get_scenario_pack(name)
            clone = ScenarioPack.from_dict(pack.to_dict(), source=pack.source_path)
            assert clone.to_dict() == pack.to_dict()


class TestOverrides:
    def test_apply_override_creates_intermediate_mappings(self):
        data = {}
        apply_override(data, "faults.job_failures.default_rate", 0.2)
        assert data == {"faults": {"job_failures": {"default_rate": 0.2}}}

    def test_apply_override_refuses_to_descend_into_scalars(self):
        with pytest.raises(ConfigurationError, match="non-mapping field"):
            apply_override({"workload": 3}, "workload.jobs", 5)

    def test_sweep_axis_keys_are_addressable_as_literal_keys(self):
        """Everything after `sweep.axes.` is one key, dots and all: the
        override replaces an axis's value list instead of nesting."""
        data = {"sweep": {"axes": {"workload.jobs": [10, 20]}}}
        apply_override(data, "sweep.axes.workload.jobs", [100])
        assert data["sweep"]["axes"] == {"workload.jobs": [100]}

    def test_sweep_axis_override_end_to_end(self):
        pack = ScenarioPack.from_dict(
            tiny(sweep={"axes": {"workload.jobs": [10, 20]}})
        ).with_overrides({"sweep.axes.workload.jobs": [12]})
        assert pack.sweep.axes == {"workload.jobs": [12]}

    def test_apply_overrides_does_not_mutate_the_input(self):
        base = {"workload": {"jobs": 10}}
        out = apply_overrides(base, {"workload.jobs": 99})
        assert base["workload"]["jobs"] == 10 and out["workload"]["jobs"] == 99

    def test_with_overrides_revalidates(self):
        pack = ScenarioPack.from_dict(tiny())
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            pack.with_overrides({"workload.jobs": 0})


class TestLoaderAndFormats:
    def test_json_pack_loads_and_remembers_source(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(tiny()))
        pack = load_scenario_pack(path)
        assert pack.name == "tiny" and pack.source_path == path

    def test_yaml_pack_loads(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(
            "name: yamlpack\n"
            "grid: {kind: synthetic, sites: 2, seed: 1}\n"
            "workload: {jobs: 10}\n"
        )
        assert load_scenario_pack(path).name == "yamlpack"

    def test_yaml_without_pyyaml_gives_config_error(self, tmp_path, monkeypatch):
        path = tmp_path / "p.yaml"
        path.write_text("name: nope\n")
        monkeypatch.setitem(sys.modules, "yaml", None)
        with pytest.raises(ConfigurationError, match="PyYAML is not installed"):
            load_scenario_pack(path)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError, match="top-level object"):
            load_scenario_pack(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario_pack(tmp_path / "absent.json")

    def test_save_round_trips(self, tmp_path):
        pack = ScenarioPack.from_dict(tiny())
        path = save_scenario_pack(pack, tmp_path / "out" / "tiny.json")
        assert load_scenario_pack(path).to_dict() == pack.to_dict()

    def test_grid_files_resolve_relative_to_the_pack(self, tmp_path):
        from repro.config import save_infrastructure, save_topology
        from repro.config.generators import generate_grid

        infrastructure, topology = generate_grid(2, seed=3)
        save_infrastructure(infrastructure, tmp_path / "configs" / "infra.json")
        save_topology(topology, tmp_path / "configs" / "topo.json")
        path = tmp_path / "pack.json"
        path.write_text(
            json.dumps(
                {
                    "name": "fromfiles",
                    "grid": {
                        "kind": "files",
                        "infrastructure": "configs/infra.json",
                        "topology": "configs/topo.json",
                    },
                    "workload": {"jobs": 8, "seed": 1},
                }
            )
        )
        outcome = run_scenario_pack(load_scenario_pack(path))
        assert outcome.metrics.finished_jobs == 8


class TestRegistry:
    def test_bundled_packs_are_discovered(self):
        assert set(BUNDLED) <= set(available_scenario_packs())

    def test_bundled_pack_files_all_validate(self):
        for path in sorted(BUNDLED_PACK_DIR.glob("*.json")):
            load_scenario_pack(path)  # raises on any schema drift

    def test_directory_discovery(self, tmp_path):
        (tmp_path / "extra.json").write_text(json.dumps(tiny(name="extra-pack")))
        registry = ScenarioRegistry(bundled=False, entry_points=False, search_env=False)
        registry.add_directory(tmp_path)
        assert registry.names() == ["extra-pack"]

    def test_env_search_path_discovery(self, tmp_path, monkeypatch):
        (tmp_path / "envpack.json").write_text(json.dumps(tiny(name="env-pack")))
        monkeypatch.setenv("CGSIM_SCENARIO_PATH", str(tmp_path))
        registry = ScenarioRegistry(bundled=False, entry_points=False)
        assert "env-pack" in registry.names()

    def test_broken_pack_file_becomes_a_warning_not_a_crash(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps(tiny(name="good")))
        (tmp_path / "bad.json").write_text("{not json")
        registry = ScenarioRegistry(bundled=False, entry_points=False, search_env=False)
        registry.add_directory(tmp_path)
        assert registry.names() == ["good"]
        assert any("bad.json" in warning for warning in registry.warnings)

    def test_registered_pack_shadows_bundled(self):
        registry = ScenarioRegistry(entry_points=False, search_env=False)
        mine = ScenarioPack.from_dict(tiny(name="wlcg-baseline"))
        registry.register(mine)
        assert registry.get("wlcg-baseline") is mine

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="unknown scenario pack 'nope'"):
            get_scenario_pack("nope")

    def test_underscore_name_gets_a_hint(self):
        with pytest.raises(ConfigurationError, match="did you mean 'wlcg-baseline'"):
            get_scenario_pack("wlcg_baseline")

    def test_entry_point_payload_shapes(self, tmp_path):
        registry = ScenarioRegistry(bundled=False, entry_points=False, search_env=False)
        packs = {}
        registry._adopt("test", ScenarioPack.from_dict(tiny(name="as-pack")), packs)
        registry._adopt("test", tiny(name="as-dict"), packs)
        file_path = tmp_path / "as_file.json"
        file_path.write_text(json.dumps(tiny(name="as-file")))
        registry._adopt("test", str(file_path), packs)
        registry._adopt("test", lambda: [tiny(name="as-callable")], packs)
        assert sorted(packs) == ["as-callable", "as-dict", "as-file", "as-pack"]

    def test_entry_point_bad_payload_type_rejected(self):
        registry = ScenarioRegistry(bundled=False, entry_points=False, search_env=False)
        with pytest.raises(ConfigurationError, match="unsupported type"):
            registry._adopt("test", 42, {})


class TestRunner:
    def test_single_run_produces_metrics(self):
        outcome = run_scenario_pack(ScenarioPack.from_dict(tiny()))
        assert outcome.mode == "single"
        assert outcome.metrics.finished_jobs == 15
        assert "finished" in outcome.render()
        json.dumps(outcome.to_dict())  # JSON-serialisable

    def test_sweep_replicate_zero_matches_the_single_run(self):
        single = run_scenario_pack(ScenarioPack.from_dict(tiny()))
        sweep_pack = ScenarioPack.from_dict(
            tiny(sweep={"axes": {"execution.plugin": ["least_loaded"]}})
        )
        swept = run_scenario_pack(sweep_pack, workers=1)
        assert swept.mode == "sweep"
        assert swept.scenario_metrics()["makespan"] == single.metrics.makespan
        assert (
            swept.scenario_metrics()["mean_queue_time"]
            == single.metrics.mean_queue_time
        )

    def test_sweep_is_worker_count_invariant(self):
        pack = ScenarioPack.from_dict(
            tiny(
                sweep={
                    "axes": {"execution.plugin": ["round_robin", "least_loaded"]},
                    "replications": 2,
                }
            )
        )
        sequential = run_scenario_pack(pack, workers=1)
        parallel = run_scenario_pack(pack, workers=2)
        assert [r.metrics for r in sequential.sweep.results] == [
            r.metrics for r in parallel.sweep.results
        ]

    def test_replicates_vary_the_workload(self):
        pack = ScenarioPack.from_dict(
            tiny(
                sweep={
                    "axes": {"execution.plugin": ["least_loaded"]},
                    "replications": 2,
                }
            )
        )
        outcome = run_scenario_pack(pack, workers=1)
        first, second = outcome.sweep.results
        assert first.metrics["mean_walltime"] != second.metrics["mean_walltime"]

    def test_sweep_spec_labels_use_axis_leaves(self):
        pack = ScenarioPack.from_dict(
            tiny(
                sweep={
                    "axes": {
                        "workload.jobs": [10, 20],
                        "execution.max_retries": [0],
                    }
                }
            )
        )
        specs = sweep_specs(pack)
        assert [s.scenario for s in specs] == [
            "jobs=10,max_retries=0",
            "jobs=20,max_retries=0",
        ]

    def test_colliding_axis_leaves_fall_back_to_full_paths(self):
        pack = ScenarioPack.from_dict(
            tiny(
                sweep={
                    "axes": {"workload.seed": [1], "grid.seed": [2]},
                }
            )
        )
        (spec,) = sweep_specs(pack)
        assert spec.scenario == "workload.seed=1,grid.seed=2"

    def test_failed_runs_are_recorded_not_raised(self):
        # FollowTracePolicy needs target sites the synthetic grid satisfies,
        # but a plugin name unknown to the registry fails inside the run.
        pack = ScenarioPack.from_dict(
            tiny(sweep={"axes": {"execution.plugin": ["no_such_policy"]}})
        )
        outcome = run_scenario_pack(pack, workers=1)
        assert not outcome.ok
        assert "no_such_policy" in outcome.sweep.failed[0].error

    def test_fault_extras_present(self):
        pack = ScenarioPack.from_dict(
            tiny(faults={"job_failures": {"default_rate": 0.4, "seed": 2}})
        )
        outcome = run_scenario_pack(pack)
        assert {"attempts", "lost_jobs", "wasted_core_hours"} <= set(outcome.extras)

    def test_data_extras_present(self):
        pack = ScenarioPack.from_dict(
            tiny(data={"datasets": 3, "dataset_size": 1e9, "seed": 1})
        )
        outcome = run_scenario_pack(pack)
        assert {"wan_transfers", "wan_terabytes"} <= set(outcome.extras)

    def test_calibration_mode(self):
        pack = ScenarioPack.from_dict(
            {
                "name": "cal",
                "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
                "workload": {"per_site_jobs": 25, "seed": 3},
                "calibration": {"budget": 8, "optimizer": "random"},
            }
        )
        outcome = run_scenario_pack(pack)
        assert outcome.mode == "calibration"
        assert outcome.calibration.sites
        assert "geomean_after_overall" in outcome.render()
        json.dumps(outcome.to_dict())

    def test_run_by_registry_name_with_overrides(self):
        outcome = run_scenario_pack(
            "wlcg-baseline",
            workers=1,
            overrides={
                "grid.sites": 3,
                "workload.jobs": 30,
                "sweep.axes": {"execution.plugin": ["round_robin"]},
            },
        )
        assert outcome.ok and len(outcome.sweep.results) == 1

    def test_scenario_metrics_on_calibration_raises(self):
        pack = ScenarioPack.from_dict(
            {
                "name": "cal",
                "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
                "workload": {"per_site_jobs": 25, "seed": 3},
                "calibration": {"budget": 5},
            }
        )
        outcome = run_scenario_pack(pack)
        with pytest.raises(CGSimError, match="no simulation metrics"):
            outcome.scenario_metrics()


class TestSweepCheckpoints:
    """Sweep-mode `--checkpoint-dir`: per-spec blobs, provenance-guarded resume."""

    def _sweep_pack(self) -> ScenarioPack:
        return ScenarioPack.from_dict(
            tiny(
                workload={"jobs": 6, "seed": 4},
                sweep={"axes": {"grid.sites": [2, 3]}, "replications": 2},
            )
        )

    @staticmethod
    def _rows(outcome) -> dict:
        return {
            (r.spec.scenario, r.spec.replicate): (r.metrics, r.simulated_time)
            for r in outcome.sweep.results
        }

    def test_each_spec_checkpoints_into_its_own_subdirectory(self, tmp_path):
        pack = self._sweep_pack()
        specs = sweep_specs(pack, checkpoint_dir=tmp_path, checkpoint_every=5000.0)
        dirs = [spec.params["checkpoint_dir"] for spec in specs]
        assert len(set(dirs)) == len(specs) == 4
        assert all(d.startswith(str(tmp_path)) for d in dirs)
        assert all(spec.params["checkpoint_every"] == 5000.0 for spec in specs)
        outcome = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path, checkpoint_every=5000.0
        )
        assert outcome.ok
        from pathlib import Path

        for directory in dirs:
            assert (Path(directory) / "latest.ckpt").exists()

    def test_rerunning_resumes_every_spec_with_identical_results(self, tmp_path):
        pack = self._sweep_pack()
        first = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path, checkpoint_every=5000.0
        )
        second = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path, checkpoint_every=5000.0
        )
        assert self._rows(first) == self._rows(second)

    def test_a_foreign_blob_is_ignored_and_the_spec_starts_cold(self, tmp_path):
        """The provenance guard: a blob from a different pack (or different
        axis combination) in a spec's directory must not be resumed."""
        from pathlib import Path
        import shutil

        from repro.scenarios.runner import _run_single

        pack = self._sweep_pack()
        baseline = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path / "clean",
            checkpoint_every=5000.0,
        )
        # Write a latest.ckpt from an unrelated pack into one spec's slot.
        foreign = ScenarioPack.from_dict(
            tiny(name="foreign", workload={"jobs": 4, "seed": 9})
        )
        _run_single(
            foreign, checkpoint_dir=tmp_path / "foreign", checkpoint_every=5000.0
        )
        specs = sweep_specs(
            pack, checkpoint_dir=tmp_path / "poisoned", checkpoint_every=5000.0
        )
        target = Path(specs[0].params["checkpoint_dir"])
        target.mkdir(parents=True)
        shutil.copy(tmp_path / "foreign" / "latest.ckpt", target / "latest.ckpt")
        poisoned = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path / "poisoned",
            checkpoint_every=5000.0,
        )
        assert self._rows(poisoned) == self._rows(baseline)

    def test_cross_combination_blobs_do_not_leak_between_spec_dirs(self, tmp_path):
        """Even a sibling combination's blob is rejected: the guard compares
        the overridden per-spec pack dict, not just the pack name."""
        from pathlib import Path
        import shutil

        pack = self._sweep_pack()
        baseline = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path / "clean",
            checkpoint_every=5000.0,
        )
        run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path / "swapped",
            checkpoint_every=5000.0,
        )
        specs = sweep_specs(
            pack, checkpoint_dir=tmp_path / "swapped", checkpoint_every=5000.0
        )
        # Swap the sites=2 and sites=3 blobs for replicate 0.
        dir_a = Path(specs[0].params["checkpoint_dir"])
        dir_b = Path(specs[2].params["checkpoint_dir"])
        assert dir_a != dir_b
        blob_a = (dir_a / "latest.ckpt").read_bytes()
        shutil.copy(dir_b / "latest.ckpt", dir_a / "latest.ckpt")
        (dir_b / "latest.ckpt").write_bytes(blob_a)
        rerun = run_scenario_pack(
            pack, workers=1, checkpoint_dir=tmp_path / "swapped",
            checkpoint_every=5000.0,
        )
        assert self._rows(rerun) == self._rows(baseline)

    def test_sweep_without_checkpoint_dir_gets_no_checkpoint_params(self):
        specs = sweep_specs(self._sweep_pack())
        assert all("checkpoint_dir" not in spec.params for spec in specs)

    def test_cli_scenario_run_accepts_checkpoint_dir_for_sweeps(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        pack_file = tmp_path / "sweepy.pack.json"
        pack_file.write_text(json.dumps(self._sweep_pack().to_dict()))
        checkpoint_dir = tmp_path / "ck"
        code = main([
            "scenario", "run", str(pack_file),
            "--checkpoint-dir", str(checkpoint_dir),
            "--checkpoint-every", "5000",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "single-run packs only" not in captured.err
        assert list(checkpoint_dir.rglob("latest.ckpt"))

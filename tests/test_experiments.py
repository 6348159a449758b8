"""Tests for the parallel experiment-runner subsystem (repro.experiments)."""

from __future__ import annotations

import pytest

from repro.calibration import GridCalibrator
from repro.calibration.search import get_optimizer
from repro.config.generators import generate_grid
from repro.experiments import (
    RunResult,
    RunSpec,
    SweepRunner,
    aggregate_results,
    execute_run,
    parallel_map,
    scenario_grid,
)
from repro.utils.errors import CGSimError
from repro.utils.rng import derive_seed
from repro.workload.generator import SyntheticWorkloadGenerator

#: Small enough for subsecond runs, large enough to exercise the simulator.
TINY = dict(sites=2, jobs=40)


def _square(x):
    return x * x


def _explode(spec: RunSpec) -> RunResult:
    raise RuntimeError(f"boom in {spec.label()}")


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "a", 3) == derive_seed(7, "a", 3)

    def test_varies_with_every_part(self):
        seeds = {
            derive_seed(7, "a", 3),
            derive_seed(8, "a", 3),
            derive_seed(7, "b", 3),
            derive_seed(7, "a", 4),
        }
        assert len(seeds) == 4

    def test_in_63_bit_range(self):
        seed = derive_seed(2**62, "scenario", 999)
        assert 0 <= seed < 2**63 - 1


class TestRunSpec:
    def test_run_seed_is_scenario_and_replicate_scoped(self):
        a = RunSpec(scenario="s", replicate=0, seed=1)
        b = RunSpec(scenario="s", replicate=1, seed=1)
        assert a.run_seed != b.run_seed
        assert a.scenario_seed_for("grid") == b.scenario_seed_for("grid")
        assert a.seed_for("workload") != b.seed_for("workload")

    def test_validation(self):
        with pytest.raises(CGSimError):
            RunSpec(sites=0)
        with pytest.raises(CGSimError):
            RunSpec(grid="cloud")
        with pytest.raises(CGSimError):
            RunSpec(failure_rate=1.5)

    def test_with_returns_modified_copy(self):
        base = RunSpec(jobs=10)
        other = base.with_(jobs=20, scenario="x")
        assert (base.jobs, other.jobs, other.scenario) == (10, 20, "x")


class TestScenarioGrid:
    def test_cartesian_product_with_replications(self):
        specs = scenario_grid(
            RunSpec(**TINY), replications=3, policy=["a", "b"], failure_rate=[0.0, 0.1]
        )
        assert len(specs) == 2 * 2 * 3
        scenarios = {s.scenario for s in specs}
        assert "policy=a,failure_rate=0.0" in scenarios
        assert {s.replicate for s in specs} == {0, 1, 2}

    def test_no_axes_replicates_the_base(self):
        specs = scenario_grid(RunSpec(scenario="only", **TINY), replications=2)
        assert [s.label() for s in specs] == ["only#0", "only#1"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(CGSimError):
            scenario_grid(RunSpec(), gpu_count=[1, 2])


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_workers=1) == [x * x for x in items]
        assert parallel_map(_square, items, n_workers=3) == [x * x for x in items]

    def test_on_error_none_substitutes(self):
        def bad(x):
            if x == 2:
                raise ValueError("nope")
            return x

        assert parallel_map(bad, [1, 2, 3], n_workers=1, on_error="none") == [1, None, 3]

    def test_on_error_raise_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_raise_on_two, [1, 2, 3], n_workers=1)

    def test_on_error_raise_preserves_exception_type_across_workers(self):
        """except SomeError: clauses must behave identically for any worker count."""
        with pytest.raises(ValueError):
            parallel_map(_raise_on_two, [1, 2, 3], n_workers=2)

    def test_on_error_none_in_workers(self):
        assert parallel_map(_raise_on_two, [1, 2, 3], n_workers=2, on_error="none") == [1, None, 3]

    def test_empty_input(self):
        assert parallel_map(_square, [], n_workers=4) == []


def _raise_on_two(x):
    if x == 2:
        raise ValueError("nope")
    return x


class TestSweepRunnerDeterminism:
    def test_same_aggregates_for_one_and_many_workers(self):
        specs = scenario_grid(
            RunSpec(seed=23, **TINY), replications=2, policy=["least_loaded", "round_robin"]
        )
        metrics = ("makespan", "mean_queue_time", "throughput", "finished_jobs")
        sequential = SweepRunner(n_workers=1).run(specs)
        parallel = SweepRunner(n_workers=3).run(specs)
        assert sequential.aggregate(metrics) == parallel.aggregate(metrics)
        # Per-run results, not just aggregates, are order- and value-identical.
        for a, b in zip(sequential.results, parallel.results):
            assert a.spec == b.spec
            assert a.metrics == b.metrics

    def test_rerun_is_bit_identical(self):
        specs = [RunSpec(seed=5, **TINY)]
        first = SweepRunner(n_workers=1).run(specs)
        second = SweepRunner(n_workers=1).run(specs)
        assert first.results[0].metrics == second.results[0].metrics

    def test_rerun_with_fault_injection_is_bit_identical(self):
        """Fault draws key on the trace identity, not the process-global job
        ids -- re-executing the same spec in the same process (where the id
        counter has advanced) must reproduce the same injected failures."""
        spec = RunSpec(seed=5, failure_rate=0.3, max_retries=2, **TINY)
        first = execute_run(spec)
        second = execute_run(spec)
        assert first.metrics == second.metrics
        assert first.metrics["failed_jobs"] > 0


class TestSweepRunnerErrors:
    def test_bad_spec_is_recorded_not_raised(self):
        specs = [
            RunSpec(scenario="good", seed=1, **TINY),
            RunSpec(scenario="bad", policy="no_such_policy", seed=1, **TINY),
        ]
        sweep = SweepRunner(n_workers=1).run(specs)
        assert len(sweep.ok) == 1 and len(sweep.failed) == 1
        failed = sweep.failed[0]
        assert failed.spec.scenario == "bad"
        assert failed.error and "no_such_policy" in failed.error
        with pytest.raises(CGSimError):
            failed.metric("makespan")

    def test_crashing_custom_run_fn_is_recorded(self):
        sweep = SweepRunner(run_fn=_explode, n_workers=1).run([RunSpec(**TINY)])
        assert not sweep.ok
        assert "boom" in sweep.failed[0].error

    def test_crashing_custom_run_fn_is_recorded_in_workers(self):
        sweep = SweepRunner(run_fn=_explode, n_workers=2).run(
            [RunSpec(**TINY), RunSpec(scenario="b", **TINY)]
        )
        assert len(sweep.failed) == 2

    def test_errors_are_counted_in_aggregates(self):
        specs = [
            RunSpec(scenario="s", replicate=0, seed=1, **TINY),
            RunSpec(scenario="s", replicate=1, policy="no_such_policy", seed=1, **TINY),
        ]
        rows = SweepRunner(n_workers=1).run(specs).aggregate(("makespan",))
        assert rows[0]["runs"] == 2 and rows[0]["errors"] == 1


class TestExecuteRun:
    def test_produces_grid_level_metrics(self):
        result = execute_run(RunSpec(seed=3, **TINY))
        assert result.ok
        assert result.metric("finished_jobs") == TINY["jobs"]
        assert result.simulated_time > 0

    def test_failure_injection_path(self):
        result = execute_run(RunSpec(seed=3, failure_rate=0.5, max_retries=1, **TINY))
        assert result.ok
        assert result.metric("failed_jobs") >= 0

    def test_wlcg_grid_path(self):
        result = execute_run(RunSpec(seed=3, grid="wlcg", sites=3, jobs=40))
        assert result.ok


class TestAggregation:
    def test_single_replicate_ci_collapses_to_mean(self):
        rows = aggregate_results(
            [execute_run(RunSpec(seed=9, **TINY))], metrics=("makespan",)
        )
        (row,) = rows
        assert row["makespan_ci_low"] == row["makespan_mean"] == row["makespan_ci_high"]

    def test_table_renders_every_scenario(self):
        specs = scenario_grid(RunSpec(seed=2, **TINY), replications=2, sites=[2, 3])
        sweep = SweepRunner(n_workers=1).run(specs)
        table = sweep.table(("makespan",))
        assert "sites=2" in table and "sites=3" in table


def _make_calibration_fixture(n_sites=4, n_jobs=200, seed=13):
    infrastructure, _topology = generate_grid(n_sites, seed=seed)
    jobs = SyntheticWorkloadGenerator(infrastructure, seed=seed).generate(n_jobs)
    site_names = [site.name for site in infrastructure.sites]
    for index, job in enumerate(jobs):
        site = infrastructure.sites[index % n_sites]
        job.target_site = site.name
        # Ground truth consistent with a speed ~1.25x away from nominal.
        job.true_walltime = max(1.0, job.work / (site.core_speed * 1.25 * job.cores))
    assert site_names
    return infrastructure, jobs


class TestParallelCalibration:
    def test_parallel_search_matches_sequential_best_points(self):
        """Regression: n_workers must not change the calibrated speeds."""
        infrastructure, jobs = _make_calibration_fixture()
        kwargs = dict(optimizer="random", budget=16, seed=3)
        sequential = GridCalibrator(infrastructure, jobs, **kwargs).calibrate()
        parallel = GridCalibrator(infrastructure, jobs, n_workers=2, **kwargs).calibrate()
        assert sequential.calibrated_speeds() == parallel.calibrated_speeds()
        assert sequential.summary() == parallel.summary()

    def test_calibrate_call_site_worker_override(self):
        infrastructure, jobs = _make_calibration_fixture()
        calibrator = GridCalibrator(infrastructure, jobs, optimizer="random", budget=8, seed=1)
        assert (
            calibrator.calibrate(n_workers=2).calibrated_speeds()
            == calibrator.calibrate(n_workers=1).calibrated_speeds()
        )


class TestOptimizerBatchMap:
    @pytest.mark.parametrize("name", ["random", "brute_force", "cmaes"])
    def test_batch_map_does_not_change_the_trajectory(self, name):
        calls = []

        def counting_map(fn, candidates):
            calls.append(len(list(candidates)))
            return [fn(x) for x in candidates]

        bounds = [(0.0, 3.0)]
        plain = get_optimizer(name, seed=4).minimize(_parabola, bounds, 20)
        mapped = get_optimizer(name, seed=4, batch_map=counting_map).minimize(
            _parabola, bounds, 20
        )
        assert calls, "batch_map was never consulted"
        assert sum(calls) == mapped.evaluations
        assert plain.best_value == mapped.best_value
        assert list(plain.best_x) == list(mapped.best_x)
        assert len(plain.history) == len(mapped.history)


def _parabola(x):
    return float((x[0] - 1.7) ** 2)


class TestBenchRegressionGate:
    """The machine-independent ratio gates of scripts/check_bench_regression.py."""

    @pytest.fixture(scope="class")
    def gate(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
        spec = importlib.util.spec_from_file_location("check_bench_regression", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    CEILINGS = {"e2e_ratio_ceiling": 100.0, "dispatch_ratio_ceiling": 160.0,
                "output_ratio_ceiling": 10.0, "served_ratio_ceiling": 1.9,
                "sites_ratio_ceiling": 2.0, "restore_ratio_ceiling": 1.2,
                "generate_ratio_ceiling": 16.0}

    @staticmethod
    def current(ratio, output_ratio=6.0, dispatch_ratio=120.0, served_ratio=1.4,
                sites_ratio=1.5, restore_ratio=0.8, generate_ratio=12.0):
        return {"cpu_count": 64, "scale": 0.05, "rates": {}, "e2e_ratio": {"ratio": ratio},
                "dispatch_ratio": {"ratio": dispatch_ratio},
                "output_ratio": {"ratio": output_ratio},
                "served_ratio": {"ratio": served_ratio},
                "sites_ratio": {"ratio": sites_ratio},
                "restore_ratio": {"ratio": restore_ratio},
                "generate_ratio": {"ratio": generate_ratio}}

    def test_ratio_gate_applies_on_any_machine(self, gate, capsys):
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {"timeout_churn": 1.0},
                    **self.CEILINGS}
        assert gate.compare(self.current(80.0), baseline) == 0
        assert gate.compare(self.current(140.0), baseline) == 1
        assert "above the committed ceiling 100.0" in capsys.readouterr().err

    def test_dispatch_gate_fails_above_its_own_ceiling(self, gate, capsys):
        """e2e_ratio runs follow_trace, which reads one site: only this gate sees
        what a dispatch over every site costs (the parent of PR 19 read 221-226)."""
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, dispatch_ratio=159.0), baseline) == 0
        assert "dispatch_ratio 159.0 vs ceiling 160.0 ok" in capsys.readouterr().out
        assert gate.compare(self.current(80.0, dispatch_ratio=221.5), baseline) == 1
        err = capsys.readouterr().err
        assert "dispatch_ratio 221.5 is above the committed ceiling 160.0" in err
        assert "e2e_ratio" not in err and "output_ratio" not in err

    def test_dispatch_gate_run_dispatches_every_job_over_every_site(self, gate, monkeypatch):
        from repro.plugins.bundled import PandaDispatcherPolicy

        seen = []
        assign = PandaDispatcherPolicy.assign_job
        monkeypatch.setattr(PandaDispatcherPolicy, "assign_job", lambda self, job, resources: (
            seen.append(len(resources)), assign(self, job, resources))[1])
        monkeypatch.setattr(gate, "DISPATCH_SHAPE", (5, 30))
        gate.dispatch_run()()
        assert seen == [5] * 30

    def test_output_gate_fails_above_its_own_ceiling(self, gate, capsys):
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, output_ratio=9.9), baseline) == 0
        assert "output_ratio 9.9 vs ceiling 10.0 ok" in capsys.readouterr().out
        assert gate.compare(self.current(80.0, output_ratio=17.0), baseline) == 1
        err = capsys.readouterr().err
        assert "output_ratio 17.0 is above the committed ceiling 10.0" in err
        assert "e2e_ratio" not in err
        del baseline["output_ratio_ceiling"]
        assert gate.compare(self.current(80.0), baseline) == 1
        assert "output_ratio_ceiling" in capsys.readouterr().err

    def test_output_gate_workload_writes_every_row_to_both_sinks(self, gate, tmp_path, monkeypatch):
        import sqlite3

        monkeypatch.setattr(gate, "OUTPUT_SHAPE", (60, 3, 4, 10))
        collector, jobs = gate.synthetic_run()
        assert gate.write_outputs(collector, jobs, tmp_path) == 60 + 3 * 4 + 10
        conn = sqlite3.connect(tmp_path / "run.sqlite")
        counts = [conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                  for table in ("events", "snapshots", "jobs")]
        conn.close()
        assert counts == [60, 12, 10]
        for name, rows in (("events.csv", 60), ("snapshots.csv", 12), ("jobs.csv", 10)):
            assert len((tmp_path / "csv" / name).read_text().splitlines()) == rows + 1

    def test_served_gate_fails_above_its_own_ceiling(self, gate, capsys):
        """The parent of PR 20 simulated every served session twice: 2.3-2.8."""
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, served_ratio=2.3), baseline) == 1
        err = capsys.readouterr().err
        assert "served_ratio 2.3 is above the committed ceiling 1.9" in err
        assert "e2e_ratio" not in err and "output_ratio" not in err

    def test_served_gate_runs_one_pack_both_ways(self, gate, tmp_path):
        plain, served = gate.served_runs()
        assert served(str(tmp_path)) == plain()
        assert gate.SERVED_PACK["workload"]["jobs"] == 40
        assert list(tmp_path.rglob("*")), "the served run stored no checkpoint blob"

    def test_sites_gate_fails_above_its_own_ceiling(self, gate, capsys):
        """A dispatch that reads every site makes a 160-site job dearer than a
        10-site one: 2.4-3.8 before panda_dispatcher read the sites in order."""
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, sites_ratio=1.9), baseline) == 0
        assert gate.compare(self.current(80.0, sites_ratio=2.9), baseline) == 1
        err = capsys.readouterr().err
        assert "sites_ratio 2.9 is above the committed ceiling 2.0" in err
        assert "e2e_ratio" not in err and "dispatch_ratio" not in err

    def test_sites_gate_runs_panda_on_a_small_and_a_wide_grid(self, gate, monkeypatch):
        from repro.plugins.bundled import PandaDispatcherPolicy

        seen = []
        assign = PandaDispatcherPolicy.assign_job
        monkeypatch.setattr(PandaDispatcherPolicy, "assign_job", lambda self, job, resources: (
            seen.append(len(resources)), assign(self, job, resources))[1])
        monkeypatch.setattr(gate, "SITES_SHAPE", (2, 6, 5))
        small, wide = gate.sites_runs()
        small()
        wide()
        assert seen == [2] * 10 + [6] * 30

    def test_restore_gate_fails_above_its_own_ceiling(self, gate, capsys):
        """A restore that decodes twice and regenerates the workload it throws
        away costs more than the cold run: 1.09-1.48 on the parent of this gate."""
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, restore_ratio=1.1), baseline) == 0
        assert "restore_ratio 1.1 vs ceiling 1.2 ok" in capsys.readouterr().out
        assert gate.compare(self.current(80.0, restore_ratio=1.3), baseline) == 1
        err = capsys.readouterr().err
        assert "restore_ratio 1.3 is above the committed ceiling 1.2" in err
        assert "e2e_ratio" not in err and "sites_ratio" not in err

    def test_restore_gate_restores_at_half_time_onto_the_cold_fingerprint(
        self, gate, monkeypatch
    ):
        from repro.state import fingerprint_result

        pack = dict(gate.RESTORE_PACK, workload=dict(gate.RESTORE_PACK["workload"], jobs=40))
        monkeypatch.setattr(gate, "RESTORE_PACK", pack)
        cold, restore = gate.restore_runs()
        finished = cold().finalize()
        ends = sorted(job.end_time for job in finished.jobs)
        restored = restore()
        assert restored.now == ends[len(ends) // 2]
        assert fingerprint_result(restored.advance_to_completion().finalize()) == (
            fingerprint_result(finished)
        )

    def test_generate_gate_fails_above_its_own_ceiling(self, gate, capsys):
        """Drawing every file size with its own scalar call, a site lookup and
        two logs per job read 16.9-20.2 on the parent of this gate."""
        baseline = {"cpu_count": 1, "scale": 0.05, "rates": {}, **self.CEILINGS}
        assert gate.compare(self.current(80.0, generate_ratio=15.9), baseline) == 0
        assert "generate_ratio 15.9 vs ceiling 16.0 ok" in capsys.readouterr().out
        assert gate.compare(self.current(80.0, generate_ratio=20.1), baseline) == 1
        err = capsys.readouterr().err
        assert "generate_ratio 20.1 is above the committed ceiling 16.0" in err
        assert "e2e_ratio" not in err and "restore_ratio" not in err
        del baseline["generate_ratio_ceiling"]
        assert gate.compare(self.current(80.0), baseline) == 1
        assert "generate_ratio_ceiling" in capsys.readouterr().err

    def test_generate_gate_draws_the_replay_batch_workload(self, gate, monkeypatch):
        from repro.workload.generator import SyntheticWorkloadGenerator

        drawn = []
        generate = SyntheticWorkloadGenerator.generate
        monkeypatch.setattr(SyntheticWorkloadGenerator, "generate", lambda self, count: (
            drawn.append((len(self.infrastructure), count)), generate(self, count))[1])
        monkeypatch.setattr(gate, "GENERATE_SHAPE", (3, 25))
        gate.generate_run()()
        assert drawn == [(3, 25)]

    def test_baseline_without_a_ceiling_fails(self, gate, capsys):
        assert gate.compare(self.current(80.0), {"cpu_count": 1, "rates": {}}) == 1
        assert "e2e_ratio_ceiling" in capsys.readouterr().err

    def test_committed_baseline_carries_the_ceiling(self, gate):
        import json

        baseline = json.loads(gate.BASELINE_PATH.read_text(encoding="utf-8"))
        for ceiling_key, _meaning in gate.RATIO_GATES.values():
            assert baseline[ceiling_key] > 0

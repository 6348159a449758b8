"""End-to-end tests of the Simulator facade and metrics (repro.core)."""

import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig, OutputConfig
from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core import Simulator, compute_metrics
from repro.monitoring.sqlite_store import SQLiteStore
from repro.plugins.bundled import FollowTracePolicy
from repro.workload.job import Job, JobState


class TestSimulatorBasics:
    def test_all_jobs_finish(self, small_infrastructure, small_topology, quiet_execution, small_jobs):
        simulator = Simulator(small_infrastructure, small_topology, quiet_execution)
        result = simulator.run(small_jobs)
        assert result.metrics.total_jobs == len(small_jobs)
        assert result.metrics.finished_jobs == len(small_jobs)
        assert result.metrics.failed_jobs == 0
        assert result.pending_jobs == 0
        assert result.simulated_time > 0

    def test_policy_from_execution_config(self, small_infrastructure, quiet_execution):
        simulator = Simulator(small_infrastructure, execution=quiet_execution)
        assert simulator.policy.name == "least_loaded"

    def test_explicit_policy_object_wins(self, small_infrastructure, quiet_execution):
        simulator = Simulator(
            small_infrastructure, execution=quiet_execution, policy=FollowTracePolicy()
        )
        assert simulator.policy.name == "follow_trace"

    def test_monitoring_events_cover_every_job(
        self, small_infrastructure, quiet_execution, small_jobs
    ):
        simulator = Simulator(small_infrastructure, execution=quiet_execution)
        result = simulator.run(small_jobs)
        job_ids_in_events = {e.job_id for e in result.collector.events}
        assert job_ids_in_events == {j.job_id for j in small_jobs}

    def test_determinism_across_runs(self, small_infrastructure, quiet_execution, workload_generator):
        jobs = workload_generator.generate(40)

        def run_once():
            sim = Simulator(small_infrastructure, execution=ExecutionConfig(
                plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=0.0)
            ))
            result = sim.run([j.copy_for_replay() for j in jobs])
            return (
                result.simulated_time,
                result.metrics.mean_walltime,
                sorted(result.assignments.items()),
            )

        assert run_once() == run_once()

    def test_follow_trace_respects_target_sites(self, small_infrastructure, quiet_execution, small_jobs):
        execution = ExecutionConfig(
            plugin="follow_trace", monitoring=MonitoringConfig(snapshot_interval=0.0)
        )
        simulator = Simulator(small_infrastructure, execution=execution)
        result = simulator.run(small_jobs)
        for job in result.jobs:
            assert job.assigned_site == job.target_site

    @pytest.mark.parametrize("plugin, options", [
        ("least_loaded", {}),
        ("follow_trace", {}),
        ("panda_dispatcher", {"respect_target": True}),
    ])
    def test_a_job_wider_than_every_host_of_the_emptier_site_still_runs(self, plugin, options):
        """At the parent this run never ended: eligibility read the site's total
        cores (16 >= 8), admission needs one host that wide (4 x 4 cores), the
        refused job was parked and every sweep offered it the same site again.
        The horizon is the guard: there the clock got to it with the job pending."""
        from dataclasses import replace

        from repro.config.generators import generate_grid

        infrastructure, topology = generate_grid(2, seed=1)
        infrastructure.sites[:] = [
            replace(site, cores=16, hosts=hosts) for site, hosts in zip(infrastructure.sites, (4, 1))
        ]
        narrow, wide = (site.name for site in infrastructure.sites)
        execution = ExecutionConfig(
            plugin=plugin, plugin_options=options, max_simulation_time=10_000.0
        )
        job = Job(work=1e9, cores=8, target_site=narrow)
        result = Simulator(infrastructure, topology, execution).run([job])
        assert (result.metrics.finished_jobs, result.metrics.failed_jobs) == (1, 0)
        assert result.jobs[0].assigned_site == wide and result.pending_jobs == 0

    def test_max_simulation_time_stops_early(self, small_infrastructure):
        execution = ExecutionConfig(
            plugin="least_loaded",
            max_simulation_time=1.0,
            monitoring=MonitoringConfig(snapshot_interval=0.0),
        )
        jobs = [Job(work=1e15) for _ in range(5)]  # far longer than 1 s
        result = Simulator(small_infrastructure, execution=execution).run(jobs)
        assert result.simulated_time == pytest.approx(1.0)
        assert result.metrics.finished_jobs == 0

    def test_snapshots_recorded_when_enabled(self, small_infrastructure, workload_generator):
        execution = ExecutionConfig(
            plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=100.0)
        )
        jobs = workload_generator.generate(30)
        result = Simulator(small_infrastructure, execution=execution).run(jobs)
        assert len(result.collector.snapshots) > 0
        sites_seen = {s.site for s in result.collector.snapshots}
        assert sites_seen == set(small_infrastructure.site_names)

    def test_rerunning_terminal_jobs_replays_cleanly(
        self, small_infrastructure, quiet_execution, small_jobs
    ):
        simulator = Simulator(small_infrastructure, execution=quiet_execution)
        first = simulator.run(small_jobs)
        # The same (now finished) job objects can be fed into a new simulator.
        second = Simulator(small_infrastructure, execution=quiet_execution).run(first.jobs)
        assert second.metrics.finished_jobs == len(small_jobs)

    def test_parallel_efficiency_slows_multicore_jobs(self, small_infrastructure):
        execution = ExecutionConfig(
            plugin="follow_trace", monitoring=MonitoringConfig(snapshot_interval=0.0)
        )
        job = Job(work=8e10, cores=8, target_site="FAST")
        perfect = Simulator(small_infrastructure, execution=execution).run([job])
        job2 = Job(work=8e10, cores=8, target_site="FAST")
        imperfect = Simulator(
            small_infrastructure, execution=execution, parallel_efficiency=0.5
        ).run([job2])
        assert imperfect.jobs[0].walltime > perfect.jobs[0].walltime

    def test_data_transfers_add_time(self, small_infrastructure, small_topology):
        execution = ExecutionConfig(
            plugin="follow_trace", monitoring=MonitoringConfig(snapshot_interval=0.0)
        )
        base_job = Job(work=1e10, cores=1, target_site="MED", input_size=5e9,
                       attributes={"dataset": "d1"})
        without = Simulator(small_infrastructure, small_topology, execution).run(
            [base_job.copy_for_replay()]
        )
        with_dm = Simulator(
            small_infrastructure, small_topology, execution, enable_data_transfers=True
        )
        # Place the dataset at FAST so staging to MED crosses the network.
        result = None
        job2 = base_job.copy_for_replay()
        with_dm._build([job2])  # pre-build to register the replica
        with_dm.data_manager.register_replica("d1", "FAST", 5e9)
        with_dm.env.run(until=with_dm.server.all_done)
        assert job2.walltime is not None
        assert job2.state_history[0][1] is JobState.CREATED
        assert any(s is JobState.TRANSFERRING for _t, s in job2.state_history)
        assert job2.end_time > without.jobs[0].end_time


class TestOutputs:
    def test_sqlite_output_written(self, tmp_path, small_infrastructure, small_jobs):
        db_path = tmp_path / "run.sqlite"
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(snapshot_interval=0.0),
            output=OutputConfig(sqlite_path=str(db_path)),
        )
        Simulator(small_infrastructure, execution=execution).run(small_jobs)
        store = SQLiteStore(db_path)
        assert store.count_jobs(state="finished") == len(small_jobs)
        assert store.count_events() > 0

    def test_csv_output_written(self, tmp_path, small_infrastructure, small_jobs):
        out_dir = tmp_path / "csv"
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(snapshot_interval=0.0),
            output=OutputConfig(csv_directory=str(out_dir)),
        )
        Simulator(small_infrastructure, execution=execution).run(small_jobs)
        assert (out_dir / "events.csv").exists()
        assert (out_dir / "jobs.csv").exists()
        assert (out_dir / "snapshots.csv").exists()


class TestMetrics:
    def test_compute_metrics_on_synthetic_lifecycle(self):
        jobs = []
        for i in range(4):
            job = Job(work=1, job_id=i + 1, submission_time=0.0, cores=2)
            job.advance(JobState.ASSIGNED, 1.0, site="A" if i % 2 else "B")
            job.advance(JobState.RUNNING, 2.0)
            job.advance(JobState.FINISHED, 2.0 + 10.0 * (i + 1))
            jobs.append(job)
        failed = Job(work=1, job_id=99)
        failed.advance(JobState.FAILED, 5.0, reason="x")
        jobs.append(failed)

        metrics = compute_metrics(jobs)
        assert metrics.total_jobs == 5
        assert metrics.finished_jobs == 4
        assert metrics.failed_jobs == 1
        assert metrics.failure_rate == pytest.approx(0.2)
        assert metrics.makespan == pytest.approx(42.0)
        assert metrics.mean_walltime == pytest.approx((10 + 20 + 30 + 40) / 4)
        assert metrics.mean_queue_time == pytest.approx(2.0)
        assert metrics.cpu_time == pytest.approx(2 * (10 + 20 + 30 + 40))
        assert metrics.throughput == pytest.approx(4 / 42.0)
        assert set(metrics.per_site) == {"A", "B"}

    def test_metrics_with_no_jobs(self):
        metrics = compute_metrics([])
        assert metrics.total_jobs == 0
        assert metrics.finished_jobs == 0
        assert metrics.makespan == 0.0
        assert metrics.throughput == 0.0
        assert metrics.failure_rate == 0.0

    def test_metrics_to_dict_roundtrips_through_json(self):
        import json

        job = Job(work=1)
        job.advance(JobState.ASSIGNED, 0.0, site="A")
        job.advance(JobState.RUNNING, 1.0)
        job.advance(JobState.FINISHED, 2.0)
        payload = json.loads(json.dumps(compute_metrics([job]).to_dict()))
        assert payload["finished_jobs"] == 1
        assert payload["per_site"]["A"]["finished_jobs"] == 1

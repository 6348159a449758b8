"""Tests for the job model and lifecycle (repro.workload.job)."""

import pytest

from repro.utils.errors import WorkloadError
from repro.workload.job import Job, JobState


class TestJobConstruction:
    def test_auto_assigned_ids_are_unique(self):
        a, b = Job(work=1.0), Job(work=1.0)
        assert a.job_id != b.job_id

    def test_explicit_id_preserved(self):
        assert Job(work=1.0, job_id=1234).job_id == 1234

    def test_invalid_fields_rejected(self):
        with pytest.raises(WorkloadError):
            Job(work=-1)
        with pytest.raises(WorkloadError):
            Job(work=1, cores=0)
        with pytest.raises(WorkloadError):
            Job(work=1, memory=-1)
        with pytest.raises(WorkloadError):
            Job(work=1, submission_time=-5)
        with pytest.raises(WorkloadError):
            Job(work=1, input_files=-1)
        with pytest.raises(WorkloadError):
            Job(work=1, input_size=-1)

    def test_is_multicore(self):
        assert not Job(work=1, cores=1).is_multicore
        assert Job(work=1, cores=8).is_multicore

    def test_initial_state_and_history(self):
        job = Job(work=1, submission_time=10.0)
        assert job.state is JobState.CREATED
        assert job.state_history == [(10.0, JobState.CREATED)]


class TestJobLifecycle:
    def test_full_successful_lifecycle(self):
        job = Job(work=1, submission_time=0.0)
        job.advance(JobState.PENDING, 1.0)
        job.advance(JobState.ASSIGNED, 2.0, site="BNL")
        job.advance(JobState.RUNNING, 5.0)
        job.advance(JobState.FINISHED, 15.0)
        assert job.assigned_site == "BNL"
        assert job.assigned_time == 2.0
        assert job.queue_time == 5.0
        assert job.walltime == 10.0
        assert job.total_time == 15.0
        assert job.state.is_terminal()

    def test_direct_assignment_without_pending(self):
        job = Job(work=1)
        job.advance(JobState.ASSIGNED, 1.0, site="X")
        assert job.state is JobState.ASSIGNED

    def test_transferring_state(self):
        job = Job(work=1)
        job.advance(JobState.ASSIGNED, 1.0, site="X")
        job.advance(JobState.TRANSFERRING, 2.0)
        job.advance(JobState.RUNNING, 3.0)
        job.advance(JobState.FINISHED, 4.0)
        states = [s for _t, s in job.state_history]
        assert JobState.TRANSFERRING in states

    def test_failure_records_reason(self):
        job = Job(work=1)
        job.advance(JobState.ASSIGNED, 1.0, site="X")
        job.advance(JobState.FAILED, 2.0, reason="node crashed")
        assert job.failure_reason == "node crashed"
        assert job.state.is_terminal()

    def test_illegal_transitions_rejected(self):
        job = Job(work=1)
        with pytest.raises(WorkloadError):
            job.advance(JobState.RUNNING, 1.0)  # cannot run before assignment
        job.advance(JobState.ASSIGNED, 1.0, site="X")
        job.advance(JobState.RUNNING, 2.0)
        job.advance(JobState.FINISHED, 3.0)
        with pytest.raises(WorkloadError):
            job.advance(JobState.RUNNING, 4.0)  # terminal states are final

    def test_metrics_none_before_completion(self):
        job = Job(work=1)
        assert job.queue_time is None
        assert job.walltime is None
        assert job.total_time is None


class TestJobHelpers:
    def test_copy_for_replay_resets_dynamic_state(self):
        job = Job(work=1, cores=4, target_site="BNL", true_walltime=100.0)
        job.advance(JobState.ASSIGNED, 1.0, site="OTHER")
        job.advance(JobState.RUNNING, 2.0)
        job.advance(JobState.FINISHED, 3.0)
        copy = job.copy_for_replay()
        assert copy.job_id == job.job_id
        assert copy.state is JobState.CREATED
        assert copy.assigned_site is None
        assert copy.target_site == "BNL"
        assert copy.true_walltime == 100.0

    def test_to_record_contains_static_and_dynamic_fields(self):
        job = Job(work=2.0, cores=2, target_site="BNL")
        job.advance(JobState.ASSIGNED, 1.0, site="BNL")
        record = job.to_record()
        assert record["work"] == 2.0
        assert record["assigned_site"] == "BNL"
        assert record["state"] == "assigned"

    def test_state_enum_terminal_classification(self):
        assert JobState.FINISHED.is_terminal()
        assert JobState.FAILED.is_terminal()
        assert not JobState.RUNNING.is_terminal()
        assert not JobState.PENDING.is_terminal()


class TestJobIdAllocator:
    """The scoped allocator behind per-simulator run ids."""

    def test_allocate_peek_reset(self):
        from repro.workload.job import JobIdAllocator

        allocator = JobIdAllocator(10)
        assert allocator.peek() == 10
        assert allocator.allocate() == 10
        assert allocator.allocate() == 11
        allocator.reset(5)
        assert allocator.allocate() == 5

    def test_ensure_above_only_raises(self):
        from repro.workload.job import JobIdAllocator

        allocator = JobIdAllocator(50)
        allocator.ensure_above(49)  # below: no effect
        assert allocator.peek() == 50
        allocator.ensure_above(80)
        assert allocator.peek() == 81

    def test_identical_runs_in_one_process_mint_identical_ids(self):
        """Run-scoped allocation: retry ids depend only on the run's inputs.

        Two identical retry-bearing runs back to back in one process must
        produce identical job-id sets and metric fingerprints *without* any
        global counter reset in between -- the regression the process-global
        counter used to cause (PR 6's known caveat).
        """
        from repro.config.execution import ExecutionConfig, MonitoringConfig
        from repro.config.generators import generate_grid
        from repro.core.simulator import Simulator
        from repro.faults.models import JobFailureModel
        from repro.workload.generator import SyntheticWorkloadGenerator

        infrastructure, topology = generate_grid(3, seed=1)
        jobs = SyntheticWorkloadGenerator(infrastructure, seed=4).generate(80)
        execution = ExecutionConfig(
            plugin="follow_trace",
            max_retries=2,
            monitoring=MonitoringConfig(enable_events=False, snapshot_interval=0.0),
        )
        model = JobFailureModel(default_rate=0.25, seed=9)

        def run_once():
            # A throwaway Job in between would have advanced the old global
            # counter and shifted the second run's retry ids.
            Job(work=1.0)
            simulator = Simulator(infrastructure, topology, execution, failure_model=model)
            result = simulator.run([job.copy_for_replay() for job in jobs])
            return (
                [job.job_id for job in result.jobs],
                result.metrics.to_dict(),
            )

        first_ids, first_metrics = run_once()
        second_ids, second_metrics = run_once()
        assert len(first_ids) > len(jobs)  # retries actually minted new ids
        assert first_ids == second_ids
        assert first_metrics == second_metrics

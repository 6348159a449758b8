"""Tests of the stepped session lifecycle (repro.core.session) and its
consumers: equivalence with ``Simulator.run()``, mid-run submission,
early-stop conditions, interrupted-run durability, the deprecation shim,
and the CLI/scenario/experiment wiring."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.config.execution import (
    ExecutionConfig,
    MonitoringConfig,
    OutputConfig,
    StopConfig,
)
from repro.core import SimulationSession, Simulator
from repro.core.job_manager import JobManager
from repro.core.server import MainServer
from repro.des import Environment
from repro.monitoring.dashboard import Dashboard
from repro.monitoring.sqlite_store import SQLiteStore
from repro.utils.errors import SchedulingError, SimulationError
from repro.workload.job import Job, JobState


def _quiet(**kwargs) -> ExecutionConfig:
    kwargs.setdefault("plugin", "least_loaded")
    kwargs.setdefault("monitoring", MonitoringConfig(snapshot_interval=0.0))
    return ExecutionConfig(**kwargs)


def _fingerprint(result):
    return (
        result.metrics.to_dict(),
        sorted(result.assignments.items()),
        [(j.job_id, j.state.value, j.end_time) for j in result.jobs],
    )


class TestSteppedEquivalence:
    def test_chunked_session_matches_single_run(
        self, small_infrastructure, small_topology, workload_generator
    ):
        """Acceptance: advance_until in chunks + finalize == one run()."""
        jobs = workload_generator.generate(40)
        single = Simulator(small_infrastructure, small_topology, _quiet()).run(
            [j.copy_for_replay() for j in jobs]
        )
        session = Simulator(small_infrastructure, small_topology, _quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        horizon = 0.0
        while not session.done:
            horizon += 500.0
            session.advance_until(horizon)
        stepped = session.advance_to_completion().finalize()
        assert _fingerprint(stepped) == _fingerprint(single)

    def test_step_by_step_matches_single_run(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(12)
        single = Simulator(small_infrastructure, execution=_quiet()).run(
            [j.copy_for_replay() for j in jobs]
        )
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        steps = 0
        while session.step():
            steps += 1
        assert steps > 0
        assert session.done
        assert _fingerprint(session.finalize()) == _fingerprint(single)

    @pytest.mark.parametrize("count", [1, 400])
    def test_a_job_costs_the_calendar_at_most_six_events(
        self, small_infrastructure, workload_generator, count
    ):
        """Inbox put and get, site-queue get, core grant, the duration's
        timeout, and a capacity wake-up when the receiver was waiting for
        cores -- no process start or end, no event nobody waits on, no idle
        sweep tick (13 events a job here with a process per job and a
        perpetual sweeper).  The 8 are the five actors starting, ``all_done``
        and the two ends of the feeder."""
        execution = _quiet(monitoring=MonitoringConfig(snapshot_interval=0.0, enable_events=False))
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(count)
        )
        steps = 0
        while session.step():
            steps += 1
        assert session.done and steps <= 6 * count + 8
        assert session.now == max(job.end_time for job in session.jobs)  # no timer left behind

    def test_run_is_a_session_wrapper(self, small_infrastructure, small_jobs):
        result = Simulator(small_infrastructure, execution=_quiet()).run(small_jobs)
        assert result.stopped_reason is None
        assert result.metrics.finished_jobs == len(small_jobs)

    def test_advance_for_and_now(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        assert session.now == 0.0
        session.advance_for(250.0)
        assert session.now == pytest.approx(250.0)
        session.advance_for(0.0)
        assert session.now == pytest.approx(250.0)

    def test_advance_until_past_raises(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_until(100.0)
        with pytest.raises(SimulationError):
            session.advance_until(50.0)

    def test_a_finished_run_leaves_no_timer_behind(self, small_infrastructure, small_jobs):
        """Draining the calendar after completion used to jump to the sweeper's next tick."""
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_to_completion()
        completed_at = session.now
        assert completed_at % 60.0 != 0.0
        session.env.run()
        assert session.now == completed_at

    def test_clock_parks_exactly_at_deadline(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_to_completion()
        completed_at = session.now
        session.advance_until(completed_at + 1e6)  # calendar long drained
        assert session.now == pytest.approx(completed_at + 1e6)

    def test_legacy_max_simulation_time_still_runs_to_deadline(self, small_infrastructure):
        execution = _quiet(max_simulation_time=1.0)
        jobs = [Job(work=1e15) for _ in range(3)]
        result = Simulator(small_infrastructure, execution=execution).run(jobs)
        assert result.simulated_time == pytest.approx(1.0)
        assert result.metrics.finished_jobs == 0


class TestMidRunSubmission:
    def test_submit_counts_towards_completion(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(30)
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs[:20]]
        )
        session.advance_until(50.0)
        session.submit([j.copy_for_replay() for j in jobs[20:]])
        result = session.advance_to_completion().finalize()
        assert result.metrics.total_jobs == 30
        assert result.metrics.finished_jobs == 30

    def test_submit_matches_upfront_submission(self, small_infrastructure, workload_generator):
        """A wave injected mid-run at its future submission time reproduces
        the closed-workload run where that wave was known upfront."""
        first = workload_generator.generate(15)
        second = workload_generator.generate(10)
        for job in second:
            job.submission_time = 3600.0  # arrives while the grid is busy

        upfront = Simulator(small_infrastructure, execution=_quiet()).run(
            [j.copy_for_replay() for j in first + second]
        )
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in first]
        )
        session.advance_until(1000.0)  # pause well before the wave lands
        session.submit([j.copy_for_replay() for j in second])
        openworld = session.advance_to_completion().finalize()
        assert openworld.metrics.to_dict() == upfront.metrics.to_dict()

    def test_submit_past_submission_time_releases_now(self, small_infrastructure):
        session = Simulator(small_infrastructure, execution=_quiet()).session([])
        session.advance_until(500.0)
        batch = session.submit([Job(work=1e9, submission_time=10.0)])
        assert batch[0].submission_time == pytest.approx(500.0)
        session.advance_to_completion()
        assert session.progress().finished_jobs == 1

    def test_submit_rearms_a_completed_session(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(10)
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs[:5]]
        )
        session.advance_to_completion()
        assert session.done
        session.submit([j.copy_for_replay() for j in jobs[5:]])
        assert not session.done
        result = session.advance_to_completion().finalize()
        assert result.metrics.finished_jobs == 10

    def test_submit_replays_terminal_jobs(self, small_infrastructure, small_jobs):
        finished = Simulator(small_infrastructure, execution=_quiet()).run(small_jobs)
        session = Simulator(small_infrastructure, execution=_quiet()).session([])
        session.submit(finished.jobs[:4])
        result = session.advance_to_completion().finalize()
        assert result.metrics.finished_jobs == 4

    def test_job_manager_submit_validates(self, env):
        manager = JobManager(env, [])
        with pytest.raises(Exception):
            manager.submit([Job(work=1.0, submission_time=-5.0)])
        assert manager.submit([]) == []


class TestStopAndConditions:
    def test_stop_between_chunks(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_until(100.0)
        session.stop("operator said so")
        # Further advances are no-ops, not errors.
        session.advance_until(1e9)
        assert session.now == pytest.approx(100.0)
        result = session.finalize()
        assert result.stopped_reason == "operator said so"

    def test_submit_after_stop_raises(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.stop("done here")
        with pytest.raises(SimulationError):
            session.submit([Job(work=1.0)])

    def test_max_finished_jobs_condition(self, small_infrastructure, workload_generator):
        execution = _quiet(stop=StopConfig(max_finished_jobs=7))
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(40)
        )
        result = session.advance_to_completion().finalize()
        assert result.stopped_reason == "max_finished_jobs=7"
        assert result.metrics.finished_jobs == 7

    def test_metric_predicate_condition(self, small_infrastructure, workload_generator):
        execution = _quiet(
            stop=StopConfig(metric="finished_jobs", op=">=", value=5)
        )
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(30)
        )
        result = session.advance_to_completion().finalize()
        assert result.stopped_reason == "finished_jobs >= 5.0"
        assert result.metrics.finished_jobs == 5

    def test_time_budget_stops_at_first_of_budget_or_completion(
        self, small_infrastructure, workload_generator
    ):
        execution = _quiet(stop=StopConfig(max_simulated_time=300.0))
        jobs = [Job(work=1e15) for _ in range(3)]  # far longer than the budget
        session = Simulator(small_infrastructure, execution=execution).session(jobs)
        result = session.advance_to_completion().finalize()
        assert result.stopped_reason == "max_simulated_time"
        assert result.simulated_time == pytest.approx(300.0)

        # ... but a workload completing inside the budget records no stop.
        execution = _quiet(stop=StopConfig(max_simulated_time=1e9))
        result = Simulator(small_infrastructure, execution=execution).run(
            workload_generator.generate(10)
        )
        assert result.stopped_reason is None
        assert result.metrics.finished_jobs == 10

    def test_budget_caps_advance_until(self, small_infrastructure):
        execution = _quiet(stop=StopConfig(max_simulated_time=200.0))
        jobs = [Job(work=1e15)]
        session = Simulator(small_infrastructure, execution=execution).session(jobs)
        session.advance_until(5000.0)
        assert session.now == pytest.approx(200.0)
        assert session.stopped_reason == "max_simulated_time"

    def test_programmatic_stop_condition(self, small_infrastructure, workload_generator):
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(30)
        )
        session.add_stop_condition(
            lambda s: s.progress().fraction_complete >= 0.5, reason="half done"
        )
        result = session.advance_to_completion().finalize()
        assert result.stopped_reason == "half done"
        assert 15 <= result.metrics.finished_jobs < 30

    def test_stop_config_validation(self):
        with pytest.raises(Exception):
            StopConfig(max_finished_jobs=0)
        with pytest.raises(Exception):
            StopConfig(metric="failure_rate")  # value missing
        with pytest.raises(Exception):
            StopConfig(metric="failure_rate", op="!=", value=0.5)
        with pytest.raises(Exception):
            StopConfig(max_simulated_time=-1.0)
        assert not StopConfig().enabled()
        assert StopConfig(max_failed_jobs=3).enabled()

    def test_stop_config_roundtrips_through_execution_dict(self):
        execution = _quiet(stop=StopConfig(max_simulated_time=120.0, metric="failure_rate",
                                           op=">=", value=0.5))
        rebuilt = ExecutionConfig.from_dict(json.loads(json.dumps(execution.to_dict())))
        assert rebuilt.stop is not None
        assert rebuilt.stop.max_simulated_time == pytest.approx(120.0)
        assert rebuilt.stop.metric == "failure_rate"
        # No stop section -> key absent, config round-trips unchanged.
        assert "stop" not in _quiet().to_dict()


class TestObservation:
    def test_on_progress_ticks(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        snapshots = []
        session.on_progress(100.0, snapshots.append)
        session.advance_until(1000.0)
        # Ticks at 100..900; the pause lands *before* same-time events, so
        # the tick at exactly t=1000 belongs to the next advance.
        assert len(snapshots) == 9
        session.advance_until(1001.0)
        assert len(snapshots) == 10
        assert snapshots[0].time == pytest.approx(100.0)
        assert snapshots[0].total_jobs == len(small_jobs)
        assert "jobs" in snapshots[0].describe()

    def test_progress_callback_can_stop(self, small_infrastructure):
        jobs = [Job(work=1e15)]
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        session.on_progress(
            50.0, lambda p: session.stop("tick limit") if p.time >= 150.0 else None
        )
        session.advance_until(1e6)
        assert session.now == pytest.approx(150.0)
        assert session.finalize().stopped_reason == "tick limit"

    def test_on_job_state_sees_every_transition(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(10)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        seen = []
        session.on_job_state(lambda job, state, time, site: seen.append((job.job_id, state)))
        session.advance_to_completion()
        finished = [job_id for job_id, state in seen if state is JobState.FINISHED]
        assert sorted(finished) == sorted(j.job_id for j in jobs)

    def test_on_job_state_requires_event_monitoring(self, small_infrastructure, small_jobs):
        execution = _quiet(
            monitoring=MonitoringConfig(snapshot_interval=0.0, enable_events=False)
        )
        session = Simulator(small_infrastructure, execution=execution).session(small_jobs)
        with pytest.raises(SimulationError):
            session.on_job_state(lambda *args: None)

    def test_peek_metrics_is_read_only(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(30)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        session.advance_until(2000.0)
        mid = session.peek_metrics()
        assert mid.total_jobs == 30
        assert not session.finalized
        result = session.advance_to_completion().finalize()
        assert result.metrics.finished_jobs == 30
        assert mid.finished_jobs <= result.metrics.finished_jobs

    def test_progress_snapshot_fields(self, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(20)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        before = session.progress()
        assert before.completed_jobs == 0 and not before.done
        session.advance_to_completion()
        after = session.progress()
        assert after.done
        assert after.finished_jobs == 20
        assert after.fraction_complete == pytest.approx(1.0)

    def test_dashboard_live_summary(self, small_infrastructure, workload_generator):
        execution = ExecutionConfig(
            plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=100.0)
        )
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(20)
        )
        session.advance_until(500.0)
        text = Dashboard.live_summary(session)
        assert "session:" in text
        assert "t=500s" in text
        for site in small_infrastructure.site_names:
            assert site in text


class TestFinalizeAndInterruption:
    def test_finalize_is_idempotent(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_to_completion()
        first = session.finalize()
        assert session.finalize() is first
        with pytest.raises(SimulationError):
            session.advance_until(1e9)

    def test_finalize_after_early_stop_writes_outputs(self, tmp_path, small_infrastructure,
                                                      workload_generator):
        db_path = tmp_path / "partial.sqlite"
        execution = _quiet(
            output=OutputConfig(sqlite_path=str(db_path)),
            stop=StopConfig(max_finished_jobs=5),
        )
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(30)
        )
        result = session.advance_to_completion().finalize()
        assert result.stopped_reason == "max_finished_jobs=5"
        store = SQLiteStore(db_path)
        assert store.count_jobs(state="finished") == 5
        assert store.count_events() > 0

    def test_interrupt_mid_advance_flushes_live_sinks_and_session_survives(
        self, tmp_path, small_infrastructure, workload_generator
    ):
        """A KeyboardInterrupt escaping an advance must leave the streamed
        SQLite rows committed and the session resumable *and* finalizable."""
        db_path = tmp_path / "live.sqlite"
        execution = _quiet(
            monitoring=MonitoringConfig(
                snapshot_interval=0.0, keep_in_memory=False, batch_size=8
            ),
            output=OutputConfig(sqlite_path=str(db_path)),
        )
        jobs = workload_generator.generate(30)
        session = Simulator(small_infrastructure, execution=execution).session(jobs)

        def interrupter(progress):
            if progress.completed_jobs >= 5:
                raise KeyboardInterrupt

        session.on_progress(50.0, interrupter)
        with pytest.raises(KeyboardInterrupt):
            session.advance_until(1e9)

        # Whatever the sink received before the abort is durable already.
        committed = SQLiteStore(db_path).count_events()
        assert committed > 0

        # Resumable: a fresh advance picks up where the abort left off ...
        interrupted_at = session.now
        session.advance_for(10.0)
        assert session.now == pytest.approx(interrupted_at + 10.0)
        # ... and finalizable: outputs are completed exactly once.
        result = session.advance_to_completion().finalize()
        assert result.metrics.finished_jobs == 30
        store = SQLiteStore(db_path)
        assert store.count_events() >= committed
        assert store.count_jobs(state="finished") == 30

    def test_finalize_directly_after_aborted_advance(
        self, tmp_path, small_infrastructure, workload_generator
    ):
        out_dir = tmp_path / "csv"
        execution = _quiet(
            monitoring=MonitoringConfig(
                snapshot_interval=0.0, keep_in_memory=False, batch_size=4
            ),
            output=OutputConfig(csv_directory=str(out_dir)),
        )
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(20)
        )

        def boom(progress):
            raise RuntimeError("observer crashed")

        session.on_progress(200.0, boom)
        with pytest.raises(RuntimeError):
            session.advance_until(1e9)
        result = session.finalize()  # no resume: straight to the output layer
        assert (out_dir / "events.csv").exists()
        assert (out_dir / "jobs.csv").exists()
        assert result.metrics.total_jobs == 20

    def test_run_wrapper_still_closes_live_sinks_on_interrupt(
        self, tmp_path, small_infrastructure, workload_generator
    ):
        """The one-shot run() keeps its historical contract: abort -> sinks
        flushed *and closed* (no open handles leak out of run())."""
        db_path = tmp_path / "closed.sqlite"
        execution = _quiet(
            monitoring=MonitoringConfig(
                snapshot_interval=300.0, keep_in_memory=False, batch_size=8
            ),
            output=OutputConfig(sqlite_path=str(db_path)),
        )
        simulator = Simulator(small_infrastructure, execution=execution)

        def sabotage(sim):
            def exploder():
                yield sim.env.timeout(500.0)
                raise KeyboardInterrupt

            sim.env.process(exploder())

        simulator.on_build(sabotage)
        with pytest.raises(KeyboardInterrupt):
            simulator.run(workload_generator.generate(30))
        assert simulator._live_sinks == []
        assert SQLiteStore(db_path).count_events() > 0


class TestDeprecationAndRegistry:
    def test_on_build_registry_runs_in_order_every_build(
        self, small_infrastructure, small_jobs
    ):
        simulator = Simulator(small_infrastructure, execution=_quiet())
        order = []
        simulator.on_build(lambda sim: order.append("first"))

        @simulator.on_build
        def second(sim):
            order.append("second")

        simulator.run(small_jobs)
        assert order == ["first", "second"]
        simulator.run([j.copy_for_replay() for j in small_jobs])
        assert order == ["first", "second", "first", "second"]

    def test_scenario_runner_does_not_warn(self):
        from repro.scenarios import ScenarioPack, run_scenario_pack

        pack = ScenarioPack.from_dict({
            "name": "quiet-build",
            "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
            "workload": {"jobs": 10, "seed": 3},
            "execution": {"plugin": "least_loaded",
                          "monitoring": {"snapshot_interval": 0.0}},
            "data": {"datasets": 2, "dataset_size": 1e9},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_scenario_pack(pack)
        assert outcome.metrics is not None
        assert not any(issubclass(w.category, DeprecationWarning) for w in caught)


class TestBugfixes:
    def test_repr_survives_lenless_infrastructure(self):
        class Weird:
            sites = []

        class Policy:
            name = "noop"

        simulator = Simulator.__new__(Simulator)
        simulator.infrastructure = Weird()
        simulator.policy = Policy()
        simulator.enable_data_transfers = False
        assert "sites=?" in repr(simulator)

    def test_finished_jobs_property(self, small_infrastructure, small_jobs):
        result = Simulator(small_infrastructure, execution=_quiet()).run(small_jobs)
        assert len(result.finished_jobs) == len(small_jobs)
        assert all(j.state is JobState.FINISHED for j in result.finished_jobs)


class TestDetachAndServerLifecycle:
    def test_new_session_detaches_the_previous_one(self, small_infrastructure, small_jobs):
        simulator = Simulator(small_infrastructure, execution=_quiet())
        first = simulator.session([j.copy_for_replay() for j in small_jobs])
        second = simulator.session([j.copy_for_replay() for j in small_jobs])
        with pytest.raises(SimulationError):
            first.advance_until(10.0)
        assert second.advance_to_completion().finalize().metrics.finished_jobs == len(
            small_jobs
        )

    def test_server_expect_validates(self, env):
        server = MainServer(env, {}, _NullPolicy(), inbox=_store(env), total_jobs=0)
        with pytest.raises(SchedulingError):
            server.expect(-1)
        server.expect(0)  # no-op

    def test_server_expect_rearms_all_done(self, env):
        server = MainServer(env, {}, _NullPolicy(), inbox=_store(env), total_jobs=0)
        env.run()
        assert server.all_done.triggered
        first_event = server.all_done
        server.expect(2)
        assert server.all_done is not first_event
        assert not server.all_done.triggered
        assert server.total_jobs == 2


class TestRearmHygiene:
    def test_repeated_resubmission_does_not_leak_sweepers(
        self, small_infrastructure, workload_generator
    ):
        """Each post-completion submit() must not stack another perpetual
        pending-sweeper process (one sweep per interval, not N)."""
        execution = _quiet(pending_retry_interval=30.0)
        simulator = Simulator(small_infrastructure, execution=execution)
        session = simulator.session(workload_generator.generate(2))
        session.advance_to_completion()
        for _ in range(4):  # four re-arm cycles
            session.submit([Job(work=1e9)])
            session.advance_to_completion()

        # Keep the run alive with one long job and count sweeps in a window.
        session.submit([Job(work=1e15)])
        calls = []
        original = simulator.server._retry_pending
        simulator.server._retry_pending = lambda: (calls.append(session.now), original())
        session.advance_for(600.0)
        # One healthy sweeper -> ~600/30 = 20 sweeps; leaked ones multiply it.
        assert len(calls) <= 21

    def test_snapshot_loop_restarts_for_a_resubmitted_wave(
        self, small_infrastructure, workload_generator
    ):
        """Snapshots must keep covering waves submitted after the first
        completion (the snapshot loop exits on all_done and is restarted
        when the server re-arms)."""
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(snapshot_interval=100.0),
        )
        session = Simulator(small_infrastructure, execution=execution).session(
            workload_generator.generate(5)
        )
        session.advance_to_completion()
        # Let the exited loop's last wake pass, then idle well beyond it.
        session.advance_for(500.0)
        resubmit_time = session.now
        session.submit([j.copy_for_replay() for j in workload_generator.generate(5)])
        session.advance_to_completion()
        result = session.finalize()
        assert max(s.time for s in result.collector.snapshots) > resubmit_time

    def test_hooked_and_hookless_advance_pause_in_the_same_state(
        self, small_infrastructure, workload_generator
    ):
        """advance_until(T) must observe identical progress whether or not a
        (no-op) callback is registered -- callbacks must not shift the pause
        relative to same-time events."""
        jobs = workload_generator.generate(10)
        reference = Simulator(small_infrastructure, execution=_quiet()).run(
            [j.copy_for_replay() for j in jobs]
        )
        boundaries = sorted({j.end_time for j in reference.jobs})[:5]

        for boundary in boundaries:
            plain = Simulator(small_infrastructure, execution=_quiet()).session(
                [j.copy_for_replay() for j in jobs]
            )
            plain.advance_until(boundary)

            hooked = Simulator(small_infrastructure, execution=_quiet()).session(
                [j.copy_for_replay() for j in jobs]
            )
            hooked.on_progress(1e12, lambda p: None)  # never ticks; forces hook path
            hooked.advance_until(boundary)

            assert hooked.progress().completed_jobs == plain.progress().completed_jobs, (
                f"divergent pause state at t={boundary}"
            )
            assert hooked.now == plain.now == pytest.approx(boundary)


class TestDESReentrancy:
    def test_stale_sentinel_from_aborted_run_is_ignored(self):
        env = Environment()

        def fails_at(t):
            yield env.timeout(t)
            raise RuntimeError("boom")

        env.process(fails_at(5.0))
        with pytest.raises(RuntimeError):
            env.run(until=100.0)  # aborts at t=5, sentinel left at t=100

        marks = []

        def marker():
            yield env.timeout(200.0)
            marks.append(env.now)

        env.process(marker())
        env.run(until=300.0)  # must sail past the stale t=100 sentinel
        assert env.now == pytest.approx(300.0)
        assert marks == [pytest.approx(205.0)]

    def test_resumed_numeric_runs_compose(self):
        env = Environment()
        ticks = []

        def ticker():
            while True:
                yield env.timeout(10.0)
                ticks.append(env.now)

        env.process(ticker())
        env.run(until=25.0)
        assert env.now == pytest.approx(25.0)
        env.run(until=45.0)
        assert env.now == pytest.approx(45.0)
        assert ticks == [pytest.approx(t) for t in (10.0, 20.0, 30.0, 40.0)]


class TestExperimentsBudget:
    def test_run_spec_budget_validation(self):
        from repro.experiments import RunSpec
        from repro.utils.errors import CGSimError

        with pytest.raises(CGSimError):
            RunSpec(max_simulated_time=0.0)

    def test_execute_run_records_stopped_reason(self):
        from repro.experiments import RunSpec
        from repro.experiments.runner import execute_run

        bounded = execute_run(RunSpec(jobs=60, sites=2, max_simulated_time=2000.0))
        assert bounded.ok
        assert bounded.stopped_reason == "max_simulated_time"
        assert bounded.simulated_time <= 2000.0
        assert bounded.metrics["finished_jobs"] < 60
        assert bounded.to_dict()["stopped_reason"] == "max_simulated_time"

        unbounded = execute_run(RunSpec(jobs=10, sites=2))
        assert unbounded.stopped_reason is None

    def test_budget_is_sweepable(self):
        from repro.experiments import RunSpec, SweepRunner, scenario_grid

        specs = scenario_grid(
            RunSpec(jobs=30, sites=2), max_simulated_time=[1000.0, 1e9]
        )
        sweep = SweepRunner(n_workers=1).run(specs)
        assert [r.stopped_reason for r in sweep.ok] == ["max_simulated_time", None]


class TestScenarioStopConditions:
    PACK = {
        "name": "stop-pack",
        "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
        "workload": {"jobs": 30, "seed": 7},
        "execution": {
            "plugin": "least_loaded",
            "monitoring": {"snapshot_interval": 0.0},
            "stop": {"max_finished_jobs": 8},
        },
    }

    def test_pack_stop_condition_via_runner(self):
        from repro.scenarios import ScenarioPack, run_scenario_pack

        outcome = run_scenario_pack(ScenarioPack.from_dict(dict(self.PACK)))
        assert outcome.stopped_reason == "max_finished_jobs=8"
        assert outcome.metrics.finished_jobs == 8
        assert outcome.to_dict()["stopped_reason"] == "max_finished_jobs=8"
        assert "stopped early" in outcome.render()

    def test_pack_stop_condition_in_sweep_runs(self):
        from repro.scenarios import ScenarioPack, run_scenario_pack

        pack = dict(self.PACK)
        pack["sweep"] = {"axes": {"execution.stop.max_finished_jobs": [4, 1000]}}
        outcome = run_scenario_pack(ScenarioPack.from_dict(pack))
        assert outcome.ok
        reasons = {r.spec.scenario: r.stopped_reason for r in outcome.sweep.ok}
        assert reasons["max_finished_jobs=4"] == "max_finished_jobs=4"
        assert reasons["max_finished_jobs=1000"] is None

    def test_pack_stop_condition_end_to_end_via_cli(self, tmp_path, capsys):
        """Acceptance: a pack-level stop condition exercised through
        ``repro scenario run``."""
        from repro.cli import main

        pack_path = tmp_path / "stop-pack.json"
        pack_path.write_text(json.dumps(self.PACK), encoding="utf-8")
        out_path = tmp_path / "outcome.json"
        code = main(["scenario", "run", str(pack_path), "--output", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "stopped early: max_finished_jobs=8" in captured.out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["stopped_reason"] == "max_finished_jobs=8"
        assert payload["metrics"]["finished_jobs"] == 8


class TestCLISessionFlags:
    @pytest.fixture
    def config_dir(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "cfg"
        main(["generate-config", "--sites", "2", "--seed", "1",
              "--output-dir", str(out)])
        main(["generate-trace", "--infrastructure", str(out / "infrastructure.json"),
              "--jobs", "40", "--seed", "2", "--output", str(tmp_path / "trace.csv")])
        return out, tmp_path / "trace.csv"

    def test_run_until_reports_partial(self, config_dir, capsys):
        from repro.cli import main

        cfg, trace = config_dir
        code = main([
            "run",
            "--infrastructure", str(cfg / "infrastructure.json"),
            "--topology", str(cfg / "topology.json"),
            "--execution", str(cfg / "execution.json"),
            "--trace", str(trace),
            "--until", "1h",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "paused at t=3600s (--until)" in out

    def test_run_progress_prints_lines(self, config_dir, capsys):
        from repro.cli import main

        cfg, trace = config_dir
        code = main([
            "run",
            "--infrastructure", str(cfg / "infrastructure.json"),
            "--topology", str(cfg / "topology.json"),
            "--execution", str(cfg / "execution.json"),
            "--trace", str(trace),
            "--progress", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "throughput" in captured.err

    def test_scenario_run_progress_flag(self, tmp_path, capsys):
        from repro.cli import main

        pack = {
            "name": "progress-pack",
            "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
            "workload": {"jobs": 20, "seed": 3},
            "execution": {"plugin": "least_loaded",
                          "monitoring": {"snapshot_interval": 0.0}},
        }
        pack_path = tmp_path / "progress-pack.json"
        pack_path.write_text(json.dumps(pack), encoding="utf-8")
        assert main(["scenario", "run", str(pack_path), "--progress", "0"]) == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err


class _NullPolicy:
    """Minimal allocation-policy stand-in for server-level unit tests."""

    name = "null"

    def initialize(self, platform_description):
        pass

    def assign_job(self, job, view):
        return None

    def on_job_finished(self, job):
        pass

    def finalize(self):
        pass


def _store(env):
    from repro.des import Store

    return Store(env)


class TestBrokenRestoredSessions:
    """A restore that dies partway must leave a clearly-unusable session."""

    def _interrupt_restore(self, small_infrastructure, workload_generator, monkeypatch):
        from repro.utils.errors import CheckpointError

        jobs = workload_generator.generate(15)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        session.advance_until(500.0)
        blob = session.checkpoint()

        captured = []

        def sabotaged(self, payload, monitoring_mode):
            captured.append(self)
            raise CheckpointError("verification interrupted (simulated crash)")

        monkeypatch.setattr(SimulationSession, "_verify_replay", sabotaged)
        with pytest.raises(CheckpointError, match="interrupted"):
            SimulationSession.restore(None, blob)
        monkeypatch.undo()
        (broken,) = captured
        return broken, blob

    def test_finalize_raises_clear_session_error(
        self, small_infrastructure, workload_generator, monkeypatch
    ):
        from repro.utils.errors import SessionError

        broken, _ = self._interrupt_restore(
            small_infrastructure, workload_generator, monkeypatch
        )
        with pytest.raises(SessionError, match="restore did not complete"):
            broken.finalize()

    def test_peek_metrics_and_advances_raise(
        self, small_infrastructure, workload_generator, monkeypatch
    ):
        from repro.utils.errors import SessionError

        broken, _ = self._interrupt_restore(
            small_infrastructure, workload_generator, monkeypatch
        )
        for poke in (
            broken.peek_metrics,
            broken.step,
            broken.advance_to_completion,
            lambda: broken.advance_until(1000.0),
            broken.checkpoint,
        ):
            with pytest.raises(SessionError, match="restore did not complete"):
                poke()

    def test_error_names_the_original_failure(
        self, small_infrastructure, workload_generator, monkeypatch
    ):
        from repro.utils.errors import SessionError

        broken, _ = self._interrupt_restore(
            small_infrastructure, workload_generator, monkeypatch
        )
        with pytest.raises(SessionError, match="CheckpointError"):
            broken.finalize()

    def test_blob_remains_restorable_after_failed_attempt(
        self, small_infrastructure, workload_generator, monkeypatch
    ):
        _, blob = self._interrupt_restore(
            small_infrastructure, workload_generator, monkeypatch
        )
        restored = SimulationSession.restore(None, blob)
        result = restored.advance_to_completion().finalize()
        assert result.metrics.total_jobs == 15

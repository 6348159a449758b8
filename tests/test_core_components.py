"""Tests for the simulation-core building blocks: job manager, site, server, data manager."""

import pytest

from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.data_manager import DataManager
from repro.core.job_manager import JobManager
from repro.core.server import MainServer
from repro.core.site import SiteRuntime
from repro.des import Environment, Store
from repro.monitoring.collector import MonitoringCollector
from repro.platform.builder import build_platform
from repro.plugins.bundled import LeastLoadedPolicy, RoundRobinPolicy
from repro.utils.errors import SchedulingError
from repro.workload.job import Job, JobState


def build_site(env, name="SITE", cores=8, speed=1e9, hosts=1, collector=None, overhead=0.0):
    config = SiteConfig(
        name=name, cores=cores, core_speed=speed, hosts=hosts, walltime_overhead=overhead
    )
    infrastructure = InfrastructureConfig(sites=[config])
    platform = build_platform(env, infrastructure)
    return SiteRuntime(env, platform, config, collector=collector), platform


class TestJobManager:
    def test_jobs_released_at_submission_time(self, env):
        inbox = Store(env)
        jobs = [Job(work=1, submission_time=t) for t in (5.0, 1.0, 3.0)]
        manager = JobManager(env, jobs, inbox=inbox)
        received = []

        def consumer(env):
            for _ in range(3):
                job = yield inbox.get()
                received.append((env.now, job.submission_time))

        env.process(consumer(env))
        env.run()
        assert received == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]
        assert manager.released_jobs == 3
        assert manager.total_jobs == 3

    def test_batch_submission_all_at_time_zero(self, env):
        manager = JobManager(env, [Job(work=1) for _ in range(5)])
        env.run()
        assert manager.released_jobs == 5
        assert env.now == 0.0


class TestSiteRuntime:
    def test_single_job_execution_walltime(self, env):
        site, _platform = build_site(env, cores=4, speed=1e9)
        job = Job(work=2e9, cores=1)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        assert job.state is JobState.FINISHED
        assert job.walltime == pytest.approx(2.0)
        assert site.finished_jobs == 1

    def test_multicore_job_uses_more_cores_and_less_time(self, env):
        site, _platform = build_site(env, cores=8, speed=1e9)
        job = Job(work=8e9, cores=8)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        assert job.walltime == pytest.approx(1.0)

    def test_walltime_overhead_added(self, env):
        site, _platform = build_site(env, cores=1, speed=1e9, overhead=5.0)
        job = Job(work=1e9)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        assert job.walltime == pytest.approx(6.0)

    def test_jobs_queue_when_cores_exhausted(self, env):
        site, _platform = build_site(env, cores=1, speed=1e9)
        jobs = [Job(work=1e9) for _ in range(3)]
        for job in jobs:
            job.advance(JobState.ASSIGNED, 0.0, site="SITE")
            site.submit(job)
        env.run()
        ends = sorted(j.end_time for j in jobs)
        assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        queue_times = sorted(j.queue_time for j in jobs)
        assert queue_times == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_fifo_admission_wide_job_blocks(self, env):
        site, _platform = build_site(env, cores=4, speed=1e9)
        wide = Job(work=4e9, cores=4)
        narrow = Job(work=1e9, cores=1)
        for job in (wide, narrow):
            job.advance(JobState.ASSIGNED, 0.0, site="SITE")
            site.submit(job)
        env.run()
        # FIFO admission: the narrow job waits for the wide one to finish.
        assert wide.end_time == pytest.approx(1.0)
        assert narrow.start_time == pytest.approx(1.0)

    def test_job_wider_than_any_host_fails(self, env):
        site, _platform = build_site(env, cores=4, speed=1e9)
        job = Job(work=1e9, cores=16)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        assert job.state is JobState.FAILED
        assert site.failed_jobs == 1

    def test_completion_callbacks_invoked(self, env):
        site, _platform = build_site(env)
        seen = []
        site.completion_callbacks.append(lambda job: seen.append(job.job_id))
        job = Job(work=1e9)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        assert seen == [job.job_id]

    def test_collector_receives_running_and_finished_events(self, env):
        collector = MonitoringCollector()
        site, _platform = build_site(env, collector=collector)
        job = Job(work=1e9)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run()
        states = [e.state for e in collector.events]
        assert states == ["running", "finished"]

    def test_counters_track_lifecycle(self, env):
        site, _platform = build_site(env, cores=2, speed=1e9)
        jobs = [Job(work=1e9) for _ in range(2)]
        for job in jobs:
            job.advance(JobState.ASSIGNED, 0.0, site="SITE")
            site.submit(job)
        env.run()
        assert site.assigned_jobs == 2
        assert site.finished_jobs == 2
        assert site.backlog == 0
        assert site.queued_jobs == 0


    def test_snapshot_audits_the_zone_core_counters(self, env):
        from repro.utils.errors import CheckpointError

        site, _ = build_site(env, cores=8, hosts=2)
        job = Job(work=8e9, cores=2)
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)
        env.run(until=0.5)
        assert site.snapshot()["available_cores"] == 6
        site.zone._busy.in_use -= 1  # a pool that forgot to report a grant
        with pytest.raises(CheckpointError, match="site 'SITE'.*core counters"):
            site.snapshot()


    def test_snapshot_audits_the_free_core_host_order(self, env):
        """A grant the zone was not told about: the counters still add up (the
        pools report to the tally), the order ``best_fit`` searches does not."""
        from repro.utils.errors import CheckpointError

        site, _ = build_site(env, cores=8, hosts=2)
        host = next(iter(site.zone))
        request = host.core_pool.request(amount=1)
        with pytest.raises(CheckpointError, match="site 'SITE'.*free-core host order"):
            site.snapshot()
        site.zone.refile(host)
        assert site.snapshot()["available_cores"] == 7
        request.cancel()
        with pytest.raises(CheckpointError, match="site 'SITE'.*free-core host order"):
            site.snapshot()

    def test_the_admitted_job_starts_after_the_next_one_left_the_queue(self, env):
        """The RUNNING row reports the site queue as it is once the receiver has
        taken the next job -- the order the per-job process used to give."""
        collector = MonitoringCollector()
        site, _ = build_site(env, cores=4, collector=collector)
        for _ in range(3):
            job = Job(work=1e9)
            job.advance(JobState.ASSIGNED, 0.0, site="SITE")
            site.submit(job)
        env.run()
        running = [e.pending_jobs for e in collector.events if e.state == "running"]
        assert running == [1, 0, 0]

    def test_a_raising_completion_callback_surfaces_with_the_job_booked_once(self, env):
        collector = MonitoringCollector()
        site, _ = build_site(env, cores=4, collector=collector)

        def listener(job):
            raise RuntimeError("listener blew up")

        site.completion_callbacks.append(listener)
        for work in (1e9, 2e9):
            job = Job(work=work)
            job.advance(JobState.ASSIGNED, 0.0, site="SITE")
            site.submit(job)
        with pytest.raises(RuntimeError, match="listener blew up"):
            env.run()
        assert (site.finished_jobs, site.failed_jobs, len(site.completed)) == (1, 0, 1)
        assert [e.state for e in collector.events if e.time == 1.0] == ["finished"]
        # The first job's cores came back all the same; the second is still running.
        assert (site.running_jobs, site.available_cores) == (1, 3)
        site.completion_callbacks.remove(listener)
        env.run()
        assert (site.finished_jobs, site.failed_jobs, len(site.completed)) == (2, 0, 2)


def build_grid(env, policy, jobs, collector=None, **server_kwargs):
    """Wire a two-site grid with a main server around ``policy``."""
    infrastructure = InfrastructureConfig(
        sites=[
            SiteConfig(name="BIG", cores=16, core_speed=1e9, hosts=1),
            SiteConfig(name="SMALL", cores=2, core_speed=1e9, hosts=1),
        ]
    )
    platform = build_platform(env, infrastructure)
    sites = {
        cfg.name: SiteRuntime(env, platform, cfg, collector=collector)
        for cfg in infrastructure.sites
    }
    manager = JobManager(env, jobs)
    server = MainServer(
        env,
        sites,
        policy,
        inbox=manager.inbox,
        total_jobs=manager.total_jobs,
        collector=collector,
        platform_description=platform.describe(),
        **server_kwargs,
    )
    return server, sites


class TestMainServer:
    def test_all_jobs_dispatched_and_finished(self, env):
        jobs = [Job(work=1e9) for _ in range(10)]
        server, _sites = build_grid(env, LeastLoadedPolicy(), jobs)
        env.run(until=server.all_done)
        assert len(server.completed) == 10
        assert all(j.state is JobState.FINISHED for j in jobs)
        assert server.pending == []

    def test_assignments_recorded(self, env):
        jobs = [Job(work=1e9, job_id=1000 + i) for i in range(4)]
        server, _sites = build_grid(env, RoundRobinPolicy(), jobs)
        env.run(until=server.all_done)
        assert set(server.assignments) == {1000, 1001, 1002, 1003}
        assert set(server.assignments.values()) <= {"BIG", "SMALL"}

    def test_unplaceable_job_fails_instead_of_hanging(self, env):
        jobs = [Job(work=1e9, cores=64)]  # wider than any host
        server, _sites = build_grid(env, LeastLoadedPolicy(), jobs)
        env.run(until=server.all_done)
        assert jobs[0].state is JobState.FAILED
        assert "unplaceable" not in (jobs[0].failure_reason or "") or jobs[0].failure_reason

    def test_pending_job_dispatched_when_capacity_appears(self, env):
        # SMALL site (2 cores) is the only site that a policy targeting SMALL
        # can use; a 16-core job must go to BIG.  Use a policy that refuses to
        # assign until at least half the grid is idle to exercise the pending path.
        from repro.plugins.base import AllocationPolicy

        class PickyPolicy(AllocationPolicy):
            def assign_job(self, job, resources):
                idle = resources.total_available_cores()
                if idle < 10:
                    return None
                return "BIG"

        long_job = Job(work=16e9, cores=16)   # occupies BIG entirely for 1 s
        late_job = Job(work=1e9, submission_time=0.1)
        server, _sites = build_grid(
            env, PickyPolicy(), [long_job, late_job], pending_retry_interval=10.0
        )
        env.run(until=server.all_done)
        assert late_job.state is JobState.FINISHED
        # It had to wait for the long job to release BIG's cores.
        assert late_job.start_time >= 1.0

    def test_scheduling_overhead_delays_dispatch(self, env):
        jobs = [Job(work=1e9) for _ in range(3)]
        server, _sites = build_grid(
            env, LeastLoadedPolicy(), jobs, scheduling_overhead=2.0
        )
        env.run(until=server.all_done)
        assigned_times = sorted(j.assigned_time for j in jobs)
        assert assigned_times[0] >= 2.0
        assert assigned_times[2] >= 6.0

    def test_policy_returning_unknown_site_raises(self, env):
        from repro.plugins.base import AllocationPolicy

        class BrokenPolicy(AllocationPolicy):
            def assign_job(self, job, resources):
                return "NOWHERE"

        jobs = [Job(work=1e9)]
        server, _sites = build_grid(env, BrokenPolicy(), jobs)
        with pytest.raises(SchedulingError):
            env.run(until=server.all_done)

    def test_pending_retry_naming_unknown_site_raises_too(self, env):
        """The pending-list retry used to swallow this and leave the run hanging."""
        from repro.plugins.base import AllocationPolicy

        class LaterBrokenPolicy(AllocationPolicy):
            calls = 0

            def assign_job(self, job, resources):
                self.calls += 1
                return None if self.calls == 1 else "NOWHERE"

        server, _sites = build_grid(
            env, LaterBrokenPolicy(), [Job(work=1e9)], pending_retry_interval=5.0
        )
        with pytest.raises(SchedulingError, match="unknown site 'NOWHERE'"):
            env.run(until=server.all_done)

    @pytest.mark.parametrize("park_first", [False, True], ids=["dispatch", "pending-retry"])
    def test_policy_naming_a_site_too_narrow_for_the_job_raises(self, env, park_first):
        """SMALL's widest host has 2 cores.  Refusing quietly parked the 4-core job,
        and every completion and sweep offered it SMALL again: a run that never ended."""
        from repro.plugins.base import AllocationPolicy

        class NarrowPolicy(AllocationPolicy):
            calls = 0

            def assign_job(self, job, resources):
                self.calls += 1
                return None if park_first and self.calls == 1 else "SMALL"

        server, _sites = build_grid(
            env, NarrowPolicy(), [Job(work=1e9, cores=4)], pending_retry_interval=5.0
        )
        message = (r"policy 'custom' assigned the 4-core job \d+ to site 'SMALL', "
                   r"whose widest host has 2 cores")
        with pytest.raises(SchedulingError, match=message):
            env.run(until=server.all_done)

    def test_policy_lifecycle_hooks_called(self, env):
        calls = {"init": 0, "finished": 0, "final": 0}

        class HookedPolicy(LeastLoadedPolicy):
            def initialize(self, platform_description):
                calls["init"] += 1

            def on_job_finished(self, job):
                calls["finished"] += 1

            def finalize(self):
                calls["final"] += 1

        jobs = [Job(work=1e9) for _ in range(3)]
        server, _sites = build_grid(env, HookedPolicy(), jobs)
        env.run(until=server.all_done)
        assert calls == {"init": 1, "finished": 3, "final": 1}

    def test_a_raising_policy_hook_does_not_book_the_finished_job_as_failed_too(self, env):
        """At the parent the job's own failure handler caught the hook's
        exception: two jobs came out as 2 finished *and* 2 failed, four
        completions, a ``failed`` row after each ``finished`` one."""

        class RaisingPolicy(LeastLoadedPolicy):
            def on_job_finished(self, job):
                raise RuntimeError("policy hook blew up")

        collector = MonitoringCollector()
        jobs = [Job(work=1e9), Job(work=1e9)]
        server, sites = build_grid(env, RaisingPolicy(), jobs, collector=collector)
        with pytest.raises(RuntimeError, match="policy hook blew up"):
            env.run(until=server.all_done)
        site = sites["BIG"]
        assert (site.finished_jobs, site.failed_jobs) == (1, 0)
        assert len(site.completed) == len(server.completed) == 1
        states = [event.state for event in collector.events]
        assert states.count("finished") == 1 and "failed" not in states

    def test_zero_jobs_completes_immediately(self, env):
        server, _sites = build_grid(env, LeastLoadedPolicy(), [])
        assert server.all_done.triggered

    def test_resource_view_reflects_site_state(self, env):
        jobs = [Job(work=1e9)]
        server, sites = build_grid(env, LeastLoadedPolicy(), jobs)
        view = server.resource_view()
        assert set(view.site_names) == {"BIG", "SMALL"}
        assert view.site("BIG").total_cores == 16

    def test_every_dispatch_gets_the_same_live_status(self, env):
        server, sites = build_grid(env, LeastLoadedPolicy(), [])
        view = server.resource_view()
        big = view.site("BIG")
        assert (big.assigned_jobs, big.pending_jobs, big.backlog) == (0, 0, 0)
        job = Job(work=1e9)
        job.advance(JobState.ASSIGNED, 0.0, site="BIG")
        sites["BIG"].submit(job)  # after the read: the status is the site as it is now
        assert (big.assigned_jobs, big.pending_jobs, big.backlog) == (1, 1, 2)
        assert server.resource_view().site("BIG") is big
        assert [s.name for s in view.sites] == ["BIG", "SMALL"] and view.sites[0] is big
        assert "SMALL" in view and "NOWHERE" not in view and len(view) == 2
        with pytest.raises(SchedulingError):
            view.site("NOWHERE")
        env.run()
        assert (big.finished_jobs, big.available_cores, big.backlog) == (1, 16, 0)

    def test_a_live_status_refuses_writes(self, env):
        from dataclasses import fields

        from repro.plugins.base import SiteStatus

        server, _sites = build_grid(env, LeastLoadedPolicy(), [])
        status = server.resource_view().site("BIG")
        assert isinstance(status, SiteStatus)
        for name in [f.name for f in fields(SiteStatus)] + ["backlog", "anything_else"]:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(status, name, 0)
        assert (status.total_cores, status.max_host_cores, status.available_cores) == (16, 16, 16)

    def test_status_properties_are_shared_read_only(self, env):
        server, sites = build_grid(env, LeastLoadedPolicy(), [])
        sites["BIG"].config.properties["tier"] = "1"
        status = server.resource_view().site("BIG")
        assert status.properties == {"tier": "1"}
        with pytest.raises(TypeError):
            status.properties["tier"] = "2"

    def test_a_monitored_run_constructs_no_site_status(self, env, monkeypatch):
        """The 40-records-per-dispatch cost as a count: one status per site when
        the server is built, none for any dispatch, retry or monitoring row."""
        from repro.plugins.base import SiteStatus
        from repro.plugins.bundled import PandaDispatcherPolicy

        built = []

        def counted(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            return counting_init

        for cls in (SiteStatus, *SiteStatus.__subclasses__()):
            monkeypatch.setattr(cls, "__init__", counted(cls))
        jobs = [Job(work=1e9, cores=1 + i % 2, submission_time=0.1 * i) for i in range(40)]
        server, sites = build_grid(
            env, PandaDispatcherPolicy(), jobs, collector=MonitoringCollector()
        )
        assert len(built) == len(sites) == 2 and "SiteStatus" not in built
        env.run(until=server.all_done)
        assert len(server.completed) == 40 and len(built) == 2

    def test_snapshot_audits_the_run_constants_a_live_status_stores(self, env):
        from repro.platform.host import Host
        from repro.utils.errors import CheckpointError

        server, sites = build_grid(env, LeastLoadedPolicy(), [])
        server.snapshot()
        sites["SMALL"].zone.add_host(Host(env, "late-host", speed=1e9, cores=4))
        message = r"site 'SMALL'.*\(2, 2, 1000000000\.0\) but the site now has \(6, 4, 1000000000\.0\)"
        with pytest.raises(CheckpointError, match=message):
            server.snapshot()


class GatedPolicy(LeastLoadedPolicy):
    """Parks a job until its ``gate`` attribute (a simulated time); logs every call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def assign_job(self, job, resources):
        self.calls.append((resources.time, int(job.job_id)))
        if resources.time < job.attributes.get("gate", 0.0):
            return None
        return super().assign_job(job, resources)


def perpetual_sweeper_ticks(interval, lifecycle, horizon):
    """Wake times of the deleted ``MainServer._pending_sweeper`` under ``lifecycle``.

    The generator and the re-arm test of ``expect()`` are the parent's, run on
    the real kernel; ``lifecycle`` is ``("done" | "expect", time)`` steps
    applied from outside the run loop, as a session applies them.
    """
    env, ticks, done = Environment(), [], [False]

    def sweeper():
        while not done[0]:
            yield env.timeout(interval)
            ticks.append(env.now)

    process = env.process(sweeper())
    for kind, time in lifecycle:
        env.run(until=time)
        done[0] = kind == "done"
        if kind == "expect" and process.triggered:
            process = env.process(sweeper())
    env.run(until=horizon)
    return ticks


class TestPendingSweep:
    """The fallback sweep: ticks on the perpetual sweeper's grid, on the calendar
    only while jobs are pending."""

    def test_a_job_parked_at_37_is_retried_at_exactly_60(self, env):
        policy = GatedPolicy()
        job = Job(work=5e9, submission_time=37.0, job_id=1, attributes={"gate": 50.0})
        server, _sites = build_grid(env, policy, [job], pending_retry_interval=30.0)
        env.run(until=1.0)
        # Nothing pending: the next thing on the calendar is the job's arrival, not a tick.
        assert (env.peek(), server.snapshot()["sweep_armed"]) == (37.0, False)
        env.run(until=38.0)
        assert server.pending == [job] and env.peek() == 60.0
        assert server.snapshot()["next_sweep"] == 60.0 and server.snapshot()["sweep_armed"]
        env.run(until=server.all_done)
        assert policy.calls == [(37.0, 1), (60.0, 1)]
        assert (job.assigned_time, job.end_time) == (60.0, 65.0)
        assert not server.snapshot()["sweep_armed"]
        env.run()
        assert env.now == 65.0  # no tick at 90: a finished run leaves no timer behind

    def test_a_completion_that_empties_the_pending_list_takes_the_tick_off_the_calendar(self, env):
        class OneAtATime(LeastLoadedPolicy):
            def assign_job(self, job, resources):
                idle = not any(site.backlog for site in resources.sites)
                return super().assign_job(job, resources) if idle else None

        jobs = [Job(work=7e9), Job(work=2e9)]
        server, _sites = build_grid(env, OneAtATime(), jobs, pending_retry_interval=30.0)
        env.run(until=1.0)
        assert server.pending == [jobs[1]] and server.snapshot()["sweep_armed"]
        env.run(until=8.0)  # the first job finished at 7: its completion placed the second
        assert server.pending == [] and not server.snapshot()["sweep_armed"]
        env.run()
        assert env.now == 9.0 and jobs[1].end_time == 9.0  # the clock never went to 30

    @pytest.mark.parametrize("gate, resubmit_at", [
        # Job 1 parked until the tick at 0.4, done at 0.719; a perpetual sweeper would
        # wake to the finished run at 0.7999999999999999 (0.1 summed eight times).
        (0.35, None), (0.35, 0.75), (0.35, 0.7999999999999999), (0.35, 0.8), (0.35, 0.97),
        # Job 1 never parked (no tick was ever armed), done at 0.369; exit tick 0.4.
        (0.0, None), (0.0, 0.39), (0.0, 0.4), (0.0, 0.41),
    ])
    def test_ticks_land_where_the_perpetual_sweeper_would_have_woken(self, gate, resubmit_at):
        """Two waves, the second submitted when the first completes, later but
        before the tick at which a perpetual sweeper would have woken to the
        finished run and exited (the grid carries on), exactly on that tick,
        or after it (the grid restarts at the submission).  0.1 s does not sum
        exactly, so the ticks are compared as the floats they are."""
        from repro.config import ExecutionConfig
        from repro.config.execution import MonitoringConfig
        from repro.core.simulator import Simulator

        infrastructure = InfrastructureConfig(
            sites=[SiteConfig(name="ONLY", cores=4, core_speed=1e9, hosts=1)]
        )
        execution = ExecutionConfig(
            pending_retry_interval=0.1, monitoring=MonitoringConfig(snapshot_interval=0.0)
        )
        policy = GatedPolicy()
        session = Simulator(infrastructure, execution=execution, policy=policy).session(
            [Job(work=0.319e9, submission_time=0.05, job_id=1, attributes={"gate": gate})]
        )
        session.advance_to_completion()
        done = session.now
        if resubmit_at is not None:
            session.advance_until(resubmit_at)
        resubmitted = session.now
        session.submit([Job(work=0.3e9, job_id=2, attributes={"gate": resubmitted + 0.42})])
        session.advance_to_completion()

        reference = perpetual_sweeper_ticks(
            0.1, [("done", done), ("expect", resubmitted)], horizon=session.now
        )
        first, second = ([t for t, job_id in policy.calls if job_id == n] for n in (1, 2))
        assert (first[0], second[0]) == (0.05, resubmitted)  # the dispatches that parked them
        assert first[1:] == ([0.1, 0.2, 0.30000000000000004, 0.4] if gate else [])
        assert second[1:] == [t for t in reference if resubmitted < t <= second[-1]]
        assert len(second) >= 5
        exit_tick = next(t for t in reference if t > done)
        if resubmitted != exit_tick:  # on it, both rules give the same next tick
            assert (second[1] == resubmitted + 0.1) == (resubmitted > exit_tick)

    def test_an_empty_workload_starts_its_grid_at_the_first_submission(self):
        from repro.config import ExecutionConfig
        from repro.core.simulator import Simulator

        infrastructure = InfrastructureConfig(
            sites=[SiteConfig(name="ONLY", cores=4, core_speed=1e9, hosts=1)]
        )
        policy = GatedPolicy()
        session = Simulator(
            infrastructure, execution=ExecutionConfig(pending_retry_interval=30.0), policy=policy
        ).session([])
        session.advance_until(37.0)
        session.submit([Job(work=1e9, job_id=1, attributes={"gate": 50.0})])
        session.advance_to_completion()
        assert policy.calls == [(37.0, 1), (67.0, 1)]
        assert perpetual_sweeper_ticks(30.0, [("done", 0.0), ("expect", 37.0)], 70.0) == [67.0]

    def test_restore_verifies_the_sweep_state(self, env):
        from repro.utils.errors import CheckpointError

        job = Job(work=5e9, submission_time=37.0, attributes={"gate": 50.0})
        server, _sites = build_grid(env, GatedPolicy(), [job], pending_retry_interval=30.0)
        env.run(until=40.0)
        state = server.snapshot()
        server.restore(state)
        with pytest.raises(CheckpointError, match="next_sweep: expected 90.0, got 60.0"):
            server.restore({**state, "next_sweep": 90.0})
        with pytest.raises(CheckpointError, match="sweep_armed: expected False, got True"):
            server.restore({**state, "sweep_armed": False})


class TestDataManager:
    def build(self, env):
        infrastructure = InfrastructureConfig(
            sites=[
                SiteConfig(name="A", cores=4, core_speed=1e9,
                           storage_read_bandwidth=1e9, storage_write_bandwidth=1e9),
                SiteConfig(name="B", cores=4, core_speed=1e9),
            ]
        )
        platform = build_platform(env, infrastructure)
        return DataManager(env, platform), platform

    def test_register_and_query_replicas(self, env):
        dm, _platform = self.build(env)
        dm.register_replica("dataset1", "A", 1e9)
        assert dm.sites_holding("dataset1") == {"A"}
        assert dm.datasets_at("A") == {"dataset1"}
        assert dm.replicas_of("dataset1")[0].size == 1e9
        assert dm.replicas_of("unknown") == []

    def test_register_on_unknown_site_raises(self, env):
        dm, _platform = self.build(env)
        with pytest.raises(Exception):
            dm.register_replica("d", "NOWHERE", 1.0)

    def test_transfer_creates_new_replica(self, env):
        dm, _platform = self.build(env)
        dm.register_replica("dataset1", "A", 1e6)
        done = dm.transfer("dataset1", "B")
        env.run(until=done)
        assert "B" in dm.sites_holding("dataset1")
        assert len(dm.transfer_log) == 1
        assert dm.transfer_log[0]["source"] == "A"
        assert dm.transfer_log[0]["end"] > dm.transfer_log[0]["start"]

    def test_transfer_to_holder_is_free(self, env):
        dm, _platform = self.build(env)
        dm.register_replica("dataset1", "A", 1e9)
        done = dm.transfer("dataset1", "A")
        env.run(until=done)
        assert env.now == 0.0
        assert dm.transfer_log == []

    def test_unknown_dataset_transfer_is_trivial(self, env):
        dm, _platform = self.build(env)
        done = dm.transfer("ghost", "B")
        env.run(until=done)
        assert env.now == 0.0

    def test_stage_in_uses_target_site_as_origin(self, env):
        dm, _platform = self.build(env)
        job = Job(work=1, input_size=1e6, target_site="A")
        done = dm.stage_in(job, "B")
        env.run(until=done)
        assert env.now > 0.0  # a real WAN transfer happened

    def test_stage_out_registers_output(self, env):
        dm, _platform = self.build(env)
        job = Job(work=1, output_size=1e6, job_id=77)
        done = dm.stage_out(job, "A")
        env.run(until=done)
        assert f"job77.output" in dm.datasets_at("A")

    def test_invalid_replication_policy(self, env):
        _dm, platform = self.build(env)
        with pytest.raises(SchedulingError):
            DataManager(env, platform, replication_policy="teleport")

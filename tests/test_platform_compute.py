"""Tests for the slot execution model as the simulator runs it.

A job is granted whole cores of one host and holds them for
``work / (speed * cores * efficiency)`` seconds (:meth:`Host.duration_for`)
plus the site's ``walltime_overhead``; when it ends, the host books the
core-seconds it held (:meth:`Host.account_busy`).
"""

import pytest

from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.site import SiteRuntime
from repro.platform import Host
from repro.platform.builder import build_platform
from repro.utils.errors import ConfigurationError, PlatformError
from repro.workload.job import Job, JobState


def build_site(env, cores, overhead=0.0, failure_model=None):
    config = SiteConfig(
        name="SITE", cores=cores, core_speed=1e9, hosts=1, walltime_overhead=overhead
    )
    platform = build_platform(env, InfrastructureConfig(sites=[config]))
    site = SiteRuntime(env, platform, config, failure_model=failure_model)
    (host,) = platform.zone("SITE").hosts
    return site, host


def submit(site, *jobs):
    for job in jobs:
        job.advance(JobState.ASSIGNED, 0.0, site="SITE")
        site.submit(job)


class TestSlotModel:
    def test_execution_duration(self, env):
        site, host = build_site(env, cores=4)
        assert host.duration_for(4e9, cores=2) == pytest.approx(2.0)
        assert host.duration_for(4e9, cores=2, efficiency=0.5) == pytest.approx(4.0)
        job = Job(work=4e9, cores=2)
        submit(site, job)
        env.run()
        assert job.walltime == pytest.approx(2.0)
        assert env.now == pytest.approx(2.0)

    def test_overhead_adds_to_duration(self, env):
        # The overhead is wall-clock seconds: more cores do not shrink it.
        site, _host = build_site(env, cores=2, overhead=5.0)
        job = Job(work=2e9, cores=2)
        submit(site, job)
        env.run()
        assert job.walltime == pytest.approx(6.0)

    def test_executions_queue_for_cores(self, env):
        site, _host = build_site(env, cores=4)
        jobs = [Job(work=2e9, cores=2) for _ in range(3)]
        submit(site, *jobs)
        env.run()
        # Two 2-core jobs fill the host; the third starts when one ends.
        assert [job.start_time for job in jobs] == pytest.approx([0.0, 0.0, 1.0])
        assert env.now == pytest.approx(2.0)

    def test_parallel_when_cores_allow(self, env):
        site, _host = build_site(env, cores=2)
        jobs = [Job(work=1e9) for _ in range(2)]
        submit(site, *jobs)
        env.run()
        assert [job.end_time for job in jobs] == pytest.approx([1.0, 1.0])

    def test_negative_work_rejected(self, env):
        host = Host(env, "h", speed=1e9, cores=2)
        with pytest.raises(PlatformError):
            host.duration_for(-1)
        with pytest.raises(PlatformError):
            host.duration_for(1, cores=3)

    def test_negative_overhead_rejected(self, env):
        with pytest.raises(ConfigurationError):
            build_site(env, cores=1, overhead=-1.0)

    def test_completed_list_and_metadata(self, env):
        site, _host = build_site(env, cores=1)
        long = Job(work=2e9, job_id=1, attributes={"task": "long"})
        short = Job(work=1e9, job_id=2, attributes={"task": "short"})
        submit(site, long, short)
        env.run()
        assert [job.job_id for job in site.completed] == [1, 2]
        assert [job.attributes for job in site.completed] == [{"task": "long"}, {"task": "short"}]

    def test_host_busy_accounting(self, env):
        site, host = build_site(env, cores=2)
        submit(site, Job(work=2e9, cores=2))
        env.run()
        assert host.busy_core_seconds == pytest.approx(2.0)
        assert host.utilisation(horizon=env.now) == pytest.approx(1.0)

    def test_failed_execution_books_only_the_held_fraction(self, env):
        class FailHalfway:
            def failure_fraction(self, job, site):
                return 0.5

        site, host = build_site(env, cores=2, failure_model=FailHalfway())
        job = Job(work=4e9, cores=2)
        submit(site, job)
        env.run()
        assert job.state is JobState.FAILED
        assert env.now == pytest.approx(1.0)
        assert host.busy_core_seconds == pytest.approx(2.0)

"""Site runtime: the receiver actor executing jobs at one computing site.

Each site owns a local job queue; its receiver actor admits jobs in FIFO
order, waits until one of the site's hosts has enough free cores, stages
input data when a data manager is attached, runs the job on the chosen host
and finally stages the output.  Admission is FIFO (a wide job at the head of
the queue waits for enough cores before narrower jobs behind it are
considered), matching how a simple batch queue without backfilling behaves;
backfilling can instead be expressed at the allocation-policy level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config.infrastructure import SiteConfig
from repro.des import Environment, Event, Store
from repro.platform.host import Host
from repro.platform.platform import Platform
from repro.utils.errors import CheckpointError, SchedulingError
from repro.utils.logging import NullLogger, SimLogger
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.data_manager import DataManager
    from repro.faults.models import JobFailureModel
    from repro.monitoring.collector import MonitoringCollector

__all__ = ["SiteRuntime"]


class SiteRuntime:
    """The receiver-actor side of one computing site.

    Parameters
    ----------
    env:
        Discrete-event environment.
    platform:
        The platform the site's zone belongs to.
    site_config:
        Static configuration of the site (overhead, name).
    collector:
        Monitoring collector receiving job transition events.
    data_manager:
        Optional data manager used to stage input/output files.
    parallel_efficiency:
        Efficiency factor applied to multi-core executions.
    failure_model:
        Optional :class:`~repro.faults.models.JobFailureModel`; when present
        it is consulted for every admitted job and may fail it partway
        through execution (the cores are held for the wasted fraction, as on
        a real grid).
    streaming_io:
        When data transfers are enabled, overlap input staging with
        computation (the job effectively takes ``max(stage-in, compute)``
        instead of their sum).  This models the streaming/pipelined I/O mode
        DCSim introduced for CMS-style workloads; the default is the
        conventional stage-in -> compute -> stage-out pipeline.
    logger:
        Structured logger (silent by default).
    """

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        site_config: SiteConfig,
        collector: Optional["MonitoringCollector"] = None,
        data_manager: Optional["DataManager"] = None,
        parallel_efficiency: float = 1.0,
        failure_model: Optional["JobFailureModel"] = None,
        streaming_io: bool = False,
        logger: Optional[SimLogger] = None,
    ) -> None:
        self.env = env
        self.platform = platform
        self.config = site_config
        self.name = site_config.name
        self.zone = platform.zone(self.name)
        self.collector = collector
        self.data_manager = data_manager
        self.parallel_efficiency = parallel_efficiency
        self.failure_model = failure_model
        self.streaming_io = streaming_io
        self.logger = logger or NullLogger()

        #: Local job queue the main server pushes into (the paper's site queue).
        self.queue: Store = Store(env)
        #: Event re-created every time cores are released; admission waits on it.
        self._capacity_event: Event = env.event()
        #: Whether the site currently admits jobs (outage injection toggles this).
        self.online: bool = True
        #: Event re-created on every outage; admission waits on it while offline.
        self._online_event: Event = env.event()
        #: Cumulative downtime actually served (seconds), for reporting.
        self.downtime_seconds: float = 0.0
        self._offline_since: Optional[float] = None
        #: Per-state counters.
        self.assigned_jobs = 0
        self.running_jobs = 0
        self.finished_jobs = 0
        self.failed_jobs = 0
        #: Jobs completed at this site, in completion order.
        self.completed: List[Job] = []
        #: Callbacks invoked (with the job) whenever a job reaches a terminal state.
        self.completion_callbacks: List = []

        self._receiver_process = env.process(self._receiver())

    # -- public API ----------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Place ``job`` into the site's local queue (called by the main server)."""
        self.assigned_jobs += 1
        self.queue.put(job)

    @property
    def queued_jobs(self) -> int:
        """Jobs waiting in the local queue (not yet admitted to a host)."""
        return len(self.queue)

    @property
    def total_cores(self) -> int:
        """Total cores of the site."""
        return self.zone.total_cores

    @property
    def available_cores(self) -> int:
        """Currently free cores across the site's hosts."""
        return self.zone.available_cores

    @property
    def backlog(self) -> int:
        """Jobs assigned to the site and not yet finished."""
        return self.assigned_jobs - self.finished_jobs - self.failed_jobs

    def max_host_cores(self) -> int:
        """Largest single-host core count (widest job the site can ever run)."""
        return self.zone.max_host_cores

    # -- checkpoint support -------------------------------------------------------
    # cgsim: lint-ignore[snap-field-coverage] the queue store and availability events are rebuilt by replay
    def snapshot(self) -> dict:
        """Capture the site's checkpointable counters and availability state.

        Part of the :class:`repro.state.Snapshottable` protocol: queue
        depth, per-state job counters, free cores and the outage bookkeeping
        are all replay-derived, so this snapshot is the per-site
        verification record a checkpoint restore is compared against.  The
        zone's incrementally maintained core counters are audited against a
        scan of its hosts on the way (:class:`CheckpointError` on mismatch).
        """
        cores = [host.cores for host in self.zone]
        scan = (sum(cores), sum(h.available_cores for h in self.zone), max(cores, default=0))
        counters = (self.total_cores, self.available_cores, self.max_host_cores())
        if counters != scan:
            raise CheckpointError(
                f"site {self.name!r}: core counters (total, free, widest host) "
                f"{counters} disagree with the host scan {scan}"
            )
        return {
            "queued": self.queued_jobs,
            "assigned": self.assigned_jobs,
            "running": self.running_jobs,
            "finished": self.finished_jobs,
            "failed": self.failed_jobs,
            "completed": len(self.completed),
            "available_cores": self.available_cores,
            "online": bool(self.online),
            "downtime_seconds": self.downtime_seconds,
            "offline_since": self._offline_since,
        }

    def restore(self, state: dict) -> None:
        """Verify the replayed site matches a snapshot (replay-derived state).

        The receiver/executor processes are rebuilt by replaying the event
        stream; ``restore`` therefore checks the live counters against the
        snapshot and raises :class:`~repro.utils.errors.CheckpointError`
        naming every divergent field.
        """
        from repro.state.protocol import diff_states

        diffs = diff_states(state, self.snapshot())
        if diffs:
            raise CheckpointError(
                f"site {self.name!r} diverged during replay: " + "; ".join(diffs)
            )

    # -- availability (outage injection) -----------------------------------------
    def set_offline(self) -> None:
        """Stop admitting new jobs (running jobs drain normally)."""
        if not self.online:
            return
        self.online = False
        self._offline_since = self.env.now
        self.logger.info("site", f"{self.name} offline")

    def set_online(self) -> None:
        """Resume admission after an outage."""
        if self.online:
            return
        self.online = True
        if self._offline_since is not None:
            self.downtime_seconds += self.env.now - self._offline_since
            self._offline_since = None
        event, self._online_event = self._online_event, self.env.event()
        event.succeed()
        self.logger.info("site", f"{self.name} online")

    # -- internal actors -----------------------------------------------------------
    def _receiver(self):
        """The receiver actor: admit jobs FIFO, run each in its own process."""
        while True:
            get_event = self.queue.get()
            job = yield get_event
            # During an outage the queue keeps accumulating but nothing is
            # admitted until the site comes back online.
            while not self.online:
                yield self._online_event
            host = yield from self._wait_for_host(job)
            # Start the execution handler; admission then moves to the next job.
            self.env.process(self._execute(job, host))

    def _wait_for_host(self, job: Job):
        """Block until some host can fit ``job``; reserve its cores and return it."""
        if job.cores > self.max_host_cores():
            # This should have been filtered by the policy; fail the job
            # rather than dead-locking the whole site queue.
            self._fail(job, f"no host at {self.name} has {job.cores} cores")
            # Return a sentinel the caller understands.
            return None
        while True:
            host = self._pick_host(job.cores)
            if host is not None:
                request = host.core_pool.request(amount=job.cores)
                yield request
                return (host, request)
            yield self._capacity_event

    def _pick_host(self, cores: int) -> Optional[Host]:
        """Best-fit host with at least ``cores`` free cores (None if none)."""
        if self.zone.available_cores < cores:
            return None
        # Best fit: smallest sufficient free-core count, ties by name.
        best, best_key = None, None
        for host in self.zone:
            free = host.available_cores
            if free >= cores and (best is None or (free, host.name) < best_key):
                best, best_key = host, (free, host.name)
        return best

    def _signal_capacity(self) -> None:
        """Wake the admission loop after cores were released."""
        event, self._capacity_event = self._capacity_event, self.env.event()
        event.succeed()

    def _execute(self, job: Job, allocation):
        """Run one admitted job: stage-in, execute, stage-out, record."""
        if allocation is None:
            return
        host, request = allocation
        try:
            needs_input = self.data_manager is not None and job.input_size > 0
            streaming = self.streaming_io and needs_input

            # Conventional pipeline: input staging completes before compute.
            if needs_input and not streaming:
                job.advance(JobState.TRANSFERRING, self.env.now)
                self._record(job, JobState.TRANSFERRING)
                yield self.data_manager.stage_in(job, self.name)

            job.advance(JobState.RUNNING, self.env.now)
            self.running_jobs += 1
            self._record(job, JobState.RUNNING)

            duration = host.duration_for(
                job.work, cores=job.cores, efficiency=self.parallel_efficiency
            )
            duration += self.config.walltime_overhead

            failure_fraction = None
            if self.failure_model is not None:
                failure_fraction = self.failure_model.failure_fraction(job, self.name)
            if failure_fraction is not None:
                # The job dies partway through: the cores are wasted for the
                # completed fraction, then released; listeners see a failure.
                wasted = duration * failure_fraction
                yield self.env.timeout(wasted)
                host.account_busy(job.cores, wasted)
                self.running_jobs -= 1
                self._fail(
                    job,
                    f"injected failure after {failure_fraction:.0%} of execution",
                )
                return

            if streaming:
                # Streaming/pipelined I/O (DCSim-style): the input is read
                # while the job computes, so the job holds its cores for
                # max(stage-in, compute) rather than their sum.
                stage_in = self.data_manager.stage_in(job, self.name)
                compute = self.env.timeout(duration)
                yield self.env.all_of([stage_in, compute])
                host.account_busy(job.cores, self.env.now - job.start_time)
            else:
                yield self.env.timeout(duration)
                host.account_busy(job.cores, duration)

            # Output staging (optional).
            if self.data_manager is not None and job.output_size > 0:
                yield self.data_manager.stage_out(job, self.name)

            self.running_jobs -= 1
            self.finished_jobs += 1
            job.advance(JobState.FINISHED, self.env.now)
            self.completed.append(job)
            self._record(job, JobState.FINISHED)
            self._notify_completion(job)
        except Exception as exc:  # noqa: BLE001 - convert into a failed job
            if job.state is JobState.RUNNING:
                self.running_jobs -= 1
            self._fail(job, str(exc))
        finally:
            host.core_pool.release(request)
            self._signal_capacity()

    def _fail(self, job: Job, reason: str) -> None:
        """Mark ``job`` failed and notify listeners."""
        self.failed_jobs += 1
        if not job.state.is_terminal():
            job.advance(JobState.FAILED, self.env.now, reason=reason)
        self.completed.append(job)
        self.logger.warning("site", f"job {job.job_id} failed at {self.name}", reason=reason)
        self._record(job, JobState.FAILED)
        self._notify_completion(job)

    def _notify_completion(self, job: Job) -> None:
        for callback in self.completion_callbacks:
            callback(job)

    def _record(self, job: Job, state: JobState) -> None:
        if self.collector is None:
            return
        self.collector.record_transition(
            job,
            state,
            time=self.env.now,
            site=self.name,
            available_cores=self.available_cores,
            pending_jobs=self.queued_jobs,
            assigned_jobs=self.backlog,
        )

    def __repr__(self) -> str:
        return (
            f"<SiteRuntime {self.name} queued={self.queued_jobs} running={self.running_jobs} "
            f"finished={self.finished_jobs}>"
        )

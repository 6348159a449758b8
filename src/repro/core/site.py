"""Site runtime: the receiver actor executing jobs at one computing site.

Each site owns a local job queue; its receiver actor admits jobs in FIFO
order, waits until one of the site's hosts has enough free cores, stages
input data when a data manager is attached, runs the job on the chosen host
and finally stages the output.  Admission is FIFO (a wide job at the head of
the queue waits for enough cores before narrower jobs behind it are
considered), matching how a simple batch queue without backfilling behaves;
backfilling can instead be expressed at the allocation-policy level.

Only the receiver is a process.  An admitted job is one :class:`_Execution`
whose steps run as callbacks on the events it waits for: no process per job
and no event nobody waits on ("What one job costs the calendar" in
``docs/architecture.md`` has the count and the two ordering rules the receiver
keeps so that results stay bit-identical).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.config.infrastructure import SiteConfig
from repro.des import Environment, Event
from repro.des.resources import Request
from repro.platform.host import Host
from repro.platform.platform import Platform
from repro.utils.errors import CheckpointError
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
        self.queue: Deque[Job] = deque()
        #: The receiver's request for its next job while the queue is empty.
        self._idle: Optional[Event] = None
        #: What the receiver waits on while no host fits the job at the head.
        self._capacity_event: Optional[Event] = None
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
        #: Called (no arguments) right after :attr:`backlog` or the queue changes,
        #: before anyone is notified: the main server sets it once a policy reads
        #: the sites in backlog order, so it can re-file this site.
        self.backlog_changed: Optional[Callable[[], None]] = None

        self._receiver_process = env.process(self._receiver())

    # -- public API ----------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Place ``job`` into the site's local queue (called by the main server)."""
        self.assigned_jobs += 1
        if self._idle is None:
            self.queue.append(job)
        else:
            waiting, self._idle = self._idle, None
            waiting.succeed(job)
        if self.backlog_changed is not None:
            self.backlog_changed()

    def _next_job(self) -> Event:
        """Take the head of the queue; the event carries it one calendar hop later."""
        event = self.env.event()
        if self.queue:
            event.succeed(self.queue.popleft())
            if self.backlog_changed is not None:
                self.backlog_changed()
        else:
            self._idle = event
        return event

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
    # cgsim: lint-ignore[snap-field-coverage] the job queue and the events the receiver waits on are rebuilt by replay
    def snapshot(self) -> dict:
        """Capture the site's checkpointable counters and availability state.

        Part of the :class:`repro.state.Snapshottable` protocol: queue
        depth, per-state job counters, free cores and the outage bookkeeping
        are all replay-derived, so this snapshot is the per-site
        verification record a checkpoint restore is compared against.  The
        zone's incrementally maintained core counters and its free-core host
        order are audited against a scan of its hosts on the way
        (:class:`CheckpointError` on mismatch).
        """
        cores = [host.cores for host in self.zone]
        free = sorted((host.available_cores, host.name) for host in self.zone)
        scan = (sum(cores), sum(count for count, _ in free), max(cores, default=0))
        counters = (self.total_cores, self.available_cores, self.max_host_cores())
        if counters != scan:
            raise CheckpointError(
                f"site {self.name!r}: core counters (total, free, widest host) "
                f"{counters} disagree with the host scan {scan}"
            )
        if self.zone.free_core_order() != free:
            raise CheckpointError(
                f"site {self.name!r}: the free-core host order {self.zone.free_core_order()} "
                f"disagrees with the host scan {free} (a pool changed without NetZone.refile)"
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

        The receiver process and the running executions are rebuilt by replaying
        the event stream; ``restore`` therefore checks the live counters against the
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
        """The receiver actor: admit jobs FIFO, start each as an :class:`_Execution`."""
        next_job = self._next_job()
        while True:
            job = yield next_job
            # During an outage the queue keeps accumulating but nothing is
            # admitted until the site comes back online.
            while not self.online:
                yield self._online_event
            if job.cores > self.max_host_cores():
                # This should have been filtered by the policy; fail the job
                # rather than dead-locking the whole site queue.
                self._fail(job, f"no host at {self.name} has {job.cores} cores")
                next_job = self._next_job()
                continue
            host = self.zone.best_fit(job.cores)
            while host is None:
                self._capacity_event = self.env.event()
                yield self._capacity_event
                host = self.zone.best_fit(job.cores)
            request = host.core_pool.request(amount=job.cores)
            self.zone.refile(host)
            # Granted at once, yet the receiver resumes only when the grant is
            # processed: that hop orders same-timestamp admissions across sites.
            yield request
            # The next job leaves the queue *before* this one starts: its
            # RUNNING row reports the queue as it is after this pop.
            next_job = self._next_job()
            _Execution(self, job, host, request).advance()

    def _signal_capacity(self) -> None:
        """Wake the admission loop if it is waiting for cores."""
        event, self._capacity_event = self._capacity_event, None
        if event is not None:
            event.succeed()

    def _fail(self, job: Job, reason: str) -> None:
        """Mark ``job`` failed and notify listeners."""
        self.failed_jobs += 1
        if self.backlog_changed is not None:
            self.backlog_changed()
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


class _Execution:
    """One admitted job from stage-in to its terminal state, without a process.

    :meth:`advance` runs the job's steps -- each names its successor in
    ``step`` and returns the event it waits for -- and registers itself on
    that event, so the job resumes as a plain kernel callback.  Only a step
    (staging, the duration, the failure model) or a failed event fails the
    job; :meth:`_end` books the terminal state and notifies the listeners
    outside that handler, so their exceptions surface from ``env.run``.
    """

    __slots__ = ("site", "job", "host", "request", "step", "held", "failure")

    def __init__(self, site: SiteRuntime, job: Job, host: Host, request: Request) -> None:
        self.site, self.job, self.host, self.request = site, job, host, request
        stage_first = site.data_manager is not None and job.input_size > 0 and not site.streaming_io
        self.step = self._stage_in if stage_first else self._compute
        #: Seconds the cores count as busy (``None``: measured, streaming I/O).
        self.held: Optional[float] = None
        #: Why the job fails once its cores have been held (an injected failure).
        self.failure: Optional[str] = None

    def advance(self, event: Optional[Event] = None) -> None:
        """Run steps until one has to wait for an event not yet processed."""
        while True:
            if event is not None:
                if event.callbacks is not None:
                    event.callbacks.append(self.advance)
                    return
                if not event._ok:
                    event.defused = True  # handled: it fails this job
                    return self._end(str(event._value))
            if self.step is None:
                return self._end(self.failure)
            try:
                event = self.step()
            except Exception as exc:  # noqa: BLE001 - convert into a failed job
                return self._end(str(exc))

    def _stage_in(self) -> Event:
        """Conventional pipeline: input staging completes before compute."""
        site, job = self.site, self.job
        job.advance(JobState.TRANSFERRING, site.env.now)
        site._record(job, JobState.TRANSFERRING)
        self.step = self._compute
        return site.data_manager.stage_in(job, site.name)

    def _compute(self) -> Event:
        site, job, env = self.site, self.job, self.site.env
        job.advance(JobState.RUNNING, env.now)
        site.running_jobs += 1
        if site.backlog_changed is not None:
            site.backlog_changed()
        site._record(job, JobState.RUNNING)
        duration = self.host.duration_for(
            job.work, cores=job.cores, efficiency=site.parallel_efficiency
        )
        duration += site.config.walltime_overhead
        self.step = self._computed
        if site.failure_model is not None:
            fraction = site.failure_model.failure_fraction(job, site.name)
            if fraction is not None:
                # The job dies partway through: the cores are wasted for the
                # completed fraction, then released; listeners see a failure.
                self.held = duration * fraction
                self.failure = f"injected failure after {fraction:.0%} of execution"
                return env.timeout(self.held)
        if site.streaming_io and site.data_manager is not None and job.input_size > 0:
            # Streaming/pipelined I/O (DCSim-style): the input is read while
            # the job computes, so the job holds its cores for
            # max(stage-in, compute) rather than their sum.
            return env.all_of([site.data_manager.stage_in(job, site.name), env.timeout(duration)])
        self.held = duration
        return env.timeout(duration)

    def _computed(self) -> Optional[Event]:
        site, job = self.site, self.job
        held = self.held if self.held is not None else site.env.now - job.start_time
        self.host.account_busy(job.cores, held)
        self.step = None
        if self.failure is None and site.data_manager is not None and job.output_size > 0:
            return site.data_manager.stage_out(job, site.name)
        return None

    def _end(self, failure: Optional[str]) -> None:
        """Book the terminal state and tell the listeners, then hand the cores back."""
        site, job = self.site, self.job
        try:
            if job.state is JobState.RUNNING:
                site.running_jobs -= 1
            if failure is not None:
                site._fail(job, failure)  # marks the change, the decrement above included
            else:
                site.finished_jobs += 1
                if site.backlog_changed is not None:
                    site.backlog_changed()
                job.advance(JobState.FINISHED, site.env.now)
                site.completed.append(job)
                site._record(job, JobState.FINISHED)
                site._notify_completion(job)
        finally:
            self.request.cancel()  # the cores return without a Release event
            site.zone.refile(self.host)
            site._signal_capacity()

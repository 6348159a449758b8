"""Main server: the dispatcher and central controller of the simulation.

The main server reproduces the workflow described in the paper (Section 3.2):
on an engine run it receives workload from the job manager, consults the
allocation policy (the user plugin) for every job, and sends the job to the
assigned site's queue.  If no suitable resource is found, the job goes to a
*pending list*; whenever a resource on the grid becomes available (a job
finishes) -- or periodically as a fallback -- the pending list is revisited.
The simulation finishes once every job has been assigned and executed.

The server reads its inbox through hops, not a process: the get hop carries
one job to :meth:`MainServer._received`, which dispatches it (after a
``scheduling_overhead`` timeout, when there is one) and asks for the next.

The periodic fallback is a *sweep grid*: the times ``t0 + interval``,
``+ interval``, ... a perpetual sweeper started with the server would wake at.
A tick is on the event calendar only while the pending list is non-empty, so
an idle server costs the kernel nothing and a finished run leaves no timer.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.des import Environment, Event
from repro.plugins.base import AllocationPolicy, ResourceView, SiteStatus
from repro.utils.errors import CheckpointError, SchedulingError
from repro.utils.logging import NullLogger, SimLogger
from repro.workload.job import Job, JobState, allocate_job_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.data_manager import DataManager
    from repro.core.job_manager import Inbox
    from repro.core.site import SiteRuntime
    from repro.monitoring.collector import MonitoringCollector

__all__ = ["MainServer"]


class _LiveSiteStatus(SiteStatus):
    """The one status of a site for the whole run, handed to every dispatch.

    What is constant for the run (name, speed, properties, total cores, widest
    host) is stored once; every dynamic field is a read of the site's O(1)
    counters as they are now, so nothing is copied and nothing goes stale.
    Writing any field raises.
    """

    def __init__(self, name: str, site: "SiteRuntime", data: Optional["DataManager"]) -> None:
        self.__dict__.update(
            name=name,
            total_cores=site.total_cores,
            max_host_cores=site.max_host_cores(),
            core_speed=site.config.core_speed,
            properties=MappingProxyType(site.config.properties),
            _site=site,
            _data=data,
        )

    def __setattr__(self, field: str, value: object) -> None:
        raise AttributeError(f"the status of site {self.name!r} is read-only: cannot set {field!r}")

    available_cores = property(lambda self: self._site.available_cores)
    pending_jobs = property(lambda self: self._site.queued_jobs)
    running_jobs = property(lambda self: self._site.running_jobs)
    assigned_jobs = property(lambda self: self._site.backlog)
    finished_jobs = property(lambda self: self._site.finished_jobs)
    failed_jobs = property(lambda self: self._site.failed_jobs)

    @property
    def resident_data(self) -> frozenset:
        return self._data.resident_data(self.name) if self._data is not None else frozenset()

    @property
    def backlog(self) -> int:
        """``pending_jobs + assigned_jobs + running_jobs`` straight from the site's counters."""
        site = self._site
        return (
            len(site.queue) + site.assigned_jobs - site.finished_jobs - site.failed_jobs
            + site.running_jobs
        )


#: One filed site of a backlog order: ``(backlog / weight, name, live status)``.
_Entry = Tuple[float, str, SiteStatus]


class _BacklogOrder:
    """The run's live statuses in ``(backlog / weight, name)`` order, for one weight.

    One sort builds it, at the first query for ``weight`` (positive and
    run-constant, see :meth:`ResourceView.sites_by_backlog`).  After that a
    site's entry moves only when a query finds the site in :attr:`dirty`,
    which its :attr:`SiteRuntime.backlog_changed` hook fills: the old entry
    is bisected out and the new one inserted.  Names are unique, so entries
    never compare their statuses and the order does not depend on the order
    the dirty sites are re-filed in.
    """

    __slots__ = ("weight", "weights", "filed", "entries", "dirty")

    def __init__(self, statuses: Dict[str, SiteStatus], weight: Callable[[SiteStatus], float]):
        self.weight = weight
        self.weights = {name: weight(status) for name, status in statuses.items()}
        self.filed: Dict[str, _Entry] = {
            name: (status.backlog / self.weights[name], name, status)
            for name, status in statuses.items()
        }
        self.entries: List[_Entry] = sorted(self.filed.values())
        #: Sites to re-file at the next query (a dict as an insertion-ordered set).
        self.dirty: Dict[str, None] = {}

    def refile(self) -> List[_Entry]:
        """Move the dirty sites to where their backlog files them now."""
        entries, filed, weights = self.entries, self.filed, self.weights
        for name in self.dirty:
            old = filed[name]
            key = old[2].backlog / weights[name]
            if key != old[0]:
                del entries[bisect_left(entries, old)]
                filed[name] = new = (key, name, old[2])
                insort(entries, new)
        self.dirty.clear()
        return entries


def _mark_dirty(dirty_sets: List[Dict[str, None]], name: str) -> None:
    """A site's backlog hook while more than one order is built."""
    for dirty in dirty_sets:
        dirty[name] = None


class _LiveResourceView(ResourceView):
    """The view of one dispatch: the run's live statuses, the time, and the
    backlog orders the main server keeps for the run."""

    def __init__(self, sites: Dict[str, SiteStatus], time: float,
                 orders: Callable[[Callable[[SiteStatus], float]], Iterator[_Entry]]) -> None:
        # ResourceView.__init__'s two fields, set here: one frame less a dispatch.
        self._sites, self.time, self._orders = sites, time, orders

    def sites_by_backlog(self, weight: Callable[[SiteStatus], float]) -> Iterator[_Entry]:
        return self._orders(weight)


class MainServer:
    """The dispatcher: sends workload to site queues via the policy plugin.

    Parameters
    ----------
    env:
        Discrete-event environment.
    sites:
        Site runtimes keyed by name.
    policy:
        The allocation policy plugin.
    inbox:
        The :class:`~repro.core.job_manager.Inbox` the job manager releases
        jobs into; the server is its one reader.
    total_jobs:
        Total number of jobs expected; the :attr:`all_done` event fires when
        that many jobs have reached a terminal state.
    collector:
        Optional monitoring collector.
    data_manager:
        Optional data manager (only used to expose resident datasets to
        data-aware policies).
    scheduling_overhead:
        Simulated seconds consumed per dispatched job (workload-management
        latency).
    pending_retry_interval:
        Period of the fallback pending-list sweep: parked jobs are retried at
        the server's start time plus whole multiples of it (summed one period
        at a time), besides on every job completion.
    max_retries:
        Automatic resubmissions of failed jobs (0 disables retries).  Each
        retry is a fresh attempt with the same static job record; the failed
        attempt stays in the output (so the failure-rate metric reflects
        attempts, as in production monitoring).
    id_allocator:
        Callable handing out ids for runtime-created jobs (retry attempts).
        The simulator passes its scoped
        :class:`~repro.workload.job.JobIdAllocator` so retry ids depend only
        on the run's inputs; defaults to the process-global
        :func:`~repro.workload.job.allocate_job_id` shim.
    """

    def __init__(
        self,
        env: Environment,
        sites: Dict[str, "SiteRuntime"],
        policy: AllocationPolicy,
        inbox: "Inbox",
        total_jobs: int,
        collector: Optional["MonitoringCollector"] = None,
        data_manager: Optional["DataManager"] = None,
        scheduling_overhead: float = 0.0,
        pending_retry_interval: float = 60.0,
        max_retries: int = 0,
        platform_description: Optional[dict] = None,
        id_allocator: Optional[Callable[[], int]] = None,
        logger: Optional[SimLogger] = None,
    ) -> None:
        if total_jobs < 0:
            raise SchedulingError("total_jobs must be >= 0")
        if max_retries < 0:
            raise SchedulingError("max_retries must be >= 0")
        self.env = env
        self.sites = dict(sites)
        self.policy = policy
        self.inbox = inbox
        self.total_jobs = int(total_jobs)
        self.collector = collector
        self.data_manager = data_manager
        self.scheduling_overhead = float(scheduling_overhead)
        self.pending_retry_interval = float(pending_retry_interval)
        self.max_retries = int(max_retries)
        self._allocate_id = id_allocator if id_allocator is not None else allocate_job_id
        self.logger = logger or NullLogger()

        #: Jobs the policy could not place yet, in arrival order.
        self.pending: List[Job] = []
        #: Jobs that reached a terminal state.
        self.completed: List[Job] = []
        #: Dispatch decisions made (job_id -> site), for analysis.
        self.assignments: Dict[int, str] = {}
        #: Retry attempts created for failed jobs (included in the run output).
        self.retry_jobs: List[Job] = []
        #: Observers called with each job after its completion bookkeeping
        #: (retries, pending revisits, all_done accounting) has run; the seam
        #: sessions use for progress counters and early-stop predicates.
        self.completion_listeners: List = []
        #: Callables invoked whenever :meth:`expect` re-arms a completed run
        #: (fresh ``all_done``); the simulator uses this to restart its
        #: snapshot loop for the new wave.
        self.rearm_listeners: List = []
        #: Attempts consumed per original job id.
        self._attempts: Dict[int, int] = {}
        #: Event fired once every expected job is terminal.
        self.all_done: Event = env.event()
        if self.total_jobs == 0:
            self.all_done.succeed()

        #: The live status of every site: built here, the same for every dispatch.
        self._statuses: Dict[str, SiteStatus] = {
            name: _LiveSiteStatus(name, site, data_manager) for name, site in self.sites.items()
        }
        #: The backlog orders policies have asked for, by weight (built on first use).
        self._orders: Dict[Callable[[SiteStatus], float], _BacklogOrder] = {}

        self.policy.initialize(platform_description or {})
        for site in self.sites.values():
            site.completion_callbacks.append(self._on_job_completed)

        # Urgent, as every chain's start: ahead of the events already due now.
        env.hop(self._take, urgent=True)
        #: The next time on the sweep grid not known to have passed (an empty
        #: workload's sweeper would exit as it starts: ``expect`` restarts its grid).
        self._next_sweep = env.now + (self.pending_retry_interval if self.total_jobs else 0.0)
        #: The tick on the calendar at ``_next_sweep`` while jobs are pending.
        self._sweep_tick: Optional[Event] = None

    # -- resource view ------------------------------------------------------------
    def resource_view(self) -> ResourceView:
        """The view handed to the policy for one dispatch: the run's live statuses
        and the current time.  Nothing is read or built here."""
        return _LiveResourceView(self._statuses, self.env.now, self._sites_by_backlog)

    def _sites_by_backlog(self, weight: Callable[[SiteStatus], float]) -> Iterator[_Entry]:
        """:meth:`ResourceView.sites_by_backlog` over the live statuses: the
        order kept for ``weight``, with the sites changed since the last query
        re-filed (the first query for a weight sorts every site and hooks the
        sites up to mark their changes in every order)."""
        order = self._orders.get(weight)
        if order is None:
            order = self._orders[weight] = _BacklogOrder(self._statuses, weight)
            dirty_sets = [built.dirty for built in self._orders.values()]
            for name, site in self.sites.items():
                site.backlog_changed = (
                    partial(dirty_sets[0].setdefault, name) if len(dirty_sets) == 1
                    else partial(_mark_dirty, dirty_sets, name)
                )
            return iter(order.entries)
        return iter(order.refile() if order.dirty else order.entries)

    # -- lifecycle -----------------------------------------------------------------
    def expect(self, count: int) -> None:
        """Announce ``count`` additional jobs joining the workload mid-run.

        Raises :attr:`total_jobs` so the completion accounting waits for the
        newcomers.  If the run had already completed (:attr:`all_done`
        triggered), a *fresh* ``all_done`` event is armed, so a finished
        session becomes runnable again -- the open-workload contract behind
        :meth:`repro.core.session.SimulationSession.submit`.  The sweep grid
        carries on unless one of its ticks has passed since the run completed
        (a perpetual sweeper would have woken to the finished run and exited);
        then it restarts here, first tick one interval from now.
        """
        count = int(count)
        if count < 0:
            raise SchedulingError("expect() count must be >= 0")
        if count == 0:
            return
        self.total_jobs += count
        if self.all_done.triggered:
            self.all_done = self.env.event()
            if self._next_sweep < self.env.now:
                self._next_sweep = self.env.now + self.pending_retry_interval
            for listener in self.rearm_listeners:
                listener()

    # -- reading the inbox -------------------------------------------------------
    def _take(self, _event: Optional[Event] = None) -> None:
        """Ask the inbox for the next job (the reader waits on an empty one).

        The workload is open-ended (:meth:`expect` can raise the job count at
        any time), so the server reads for the lifetime of the simulation; a
        waiting reader holds no calendar events and never keeps the run loop
        alive on its own.
        """
        self.inbox.get(self._received)

    def _received(self, hop: Event) -> None:
        """The get hop: serve its job now, or after the scheduling overhead."""
        if self.scheduling_overhead > 0:
            self.env.timeout(self.scheduling_overhead, hop._value).callbacks.append(self._serve)
        else:
            self._serve(hop)

    def _serve(self, event: Event) -> None:
        """Dispatch the job ``event`` carries, then read on."""
        self._dispatch(event._value)
        self.inbox.get(self._received)

    def _dispatch(self, job: Job) -> None:
        """Consult the policy for one job; queue it or park it as pending."""
        if not self._place(job):
            self._park(job)

    def _place(self, job: Job) -> bool:
        """Submit ``job`` to the site the policy names; False if it has to wait."""
        site_name = self.policy.assign_job(job, self.resource_view())
        if site_name is None:
            return False
        site = self.sites.get(site_name)
        if site is None:
            raise SchedulingError(
                f"policy {self.policy.name!r} assigned job {job.job_id} to unknown site "
                f"{site_name!r}"
            )
        if job.cores > site.max_host_cores():
            # Parking the job would offer it the same site again at every
            # completion and sweep: a run that never ends.
            raise SchedulingError(
                f"policy {self.policy.name!r} assigned the {job.cores}-core job {job.job_id} to "
                f"site {site_name!r}, whose widest host has {site.max_host_cores()} cores"
            )
        job.advance(JobState.ASSIGNED, self.env.now, site=site_name)
        self.assignments[int(job.job_id)] = site_name
        self._record(job, JobState.ASSIGNED, site_name)
        site.submit(job)
        return True

    def _park(self, job: Job) -> None:
        """Put a job on the pending list (or fail it if it can never be placed)."""
        if not any(job.cores <= site.max_host_cores() for site in self.sites.values()):
            widest = max((site.max_host_cores() for site in self.sites.values()), default=0)
            self._fail_unplaceable(
                job, f"no site has a host with {job.cores} cores (widest host: {widest})"
            )
            return
        if job.state is JobState.CREATED:
            job.advance(JobState.PENDING, self.env.now)
        self.pending.append(job)
        if self._sweep_tick is None:
            self._arm_sweep()
        self._record(job, JobState.PENDING, "")
        self.logger.debug("server", f"job {job.job_id} pending", pending=len(self.pending))

    def _fail_unplaceable(self, job: Job, reason: str) -> None:
        """Terminate a job the grid can never run, so the simulation still ends."""
        job.attributes["no_retry"] = True  # resubmitting an unplaceable job cannot help
        job.advance(JobState.FAILED, self.env.now, reason=reason)
        self._record(job, JobState.FAILED, "")
        self.logger.warning("server", f"job {job.job_id} unplaceable", reason=reason)
        self._on_job_completed(job)

    def _retry_pending(self) -> None:
        """Re-run the policy over the pending list (oldest first)."""
        if self.pending:
            self.pending = [job for job in self.pending if not self._place(job)]
            if not self.pending and self._sweep_tick is not None:
                self.env.unschedule(self._sweep_tick, at=self._next_sweep)
                self._sweep_tick = None

    def _sweep_grid_after(self, time: float) -> float:
        """Move the grid to its first tick after ``time``, by the additions a
        perpetual sweeper's timeouts would have made (``now + interval`` each
        time it woke), so the tick is the bit-identical float."""
        while self._next_sweep <= time:
            self._next_sweep += self.pending_retry_interval
        return self._next_sweep

    def _arm_sweep(self) -> None:
        """Put the next grid tick on the calendar (``pending`` just became non-empty)."""
        tick = self._sweep_tick = Event(self.env)
        tick._ok, tick._value = True, None
        tick.callbacks.append(self._sweep)
        self.env.schedule(tick, at=self._sweep_grid_after(self.env.now))

    def _sweep(self, _tick: Event) -> None:
        """Fallback periodic sweep of the pending list."""
        self._sweep_tick = None
        self._retry_pending()
        if self.pending:
            self._arm_sweep()

    # -- completion handling ----------------------------------------------------------
    def _on_job_completed(self, job: Job) -> None:
        """Called by site runtimes whenever a job reaches a terminal state."""
        self.completed.append(job)
        self.policy.on_job_finished(job)
        if job.state is JobState.FAILED:
            self._maybe_retry(job)
        # A resource has become available: revisit the pending list now.
        self._retry_pending()
        if len(self.completed) >= self.total_jobs and not self.all_done.triggered:
            self.policy.finalize()
            self.all_done.succeed(len(self.completed))
            # The first tick a perpetual sweeper would wake to the finished run at.
            self._sweep_grid_after(self.env.now)
        for listener in self.completion_listeners:
            listener(job)

    def _maybe_retry(self, job: Job) -> None:
        """Resubmit a failed job as a fresh attempt while retries remain."""
        if self.max_retries <= 0 or job.attributes.get("no_retry"):
            return
        original_id = int(job.attributes.get("retry_of", job.job_id))
        attempts = self._attempts.get(original_id, 0)
        if attempts >= self.max_retries:
            return
        self._attempts[original_id] = attempts + 1
        attempt = job.copy_for_replay()
        attempt.job_id = self._allocate_id()  # every attempt is distinguishable downstream
        attempt.attributes["retry_of"] = original_id
        attempt.attributes["attempt"] = attempts + 2  # first attempt was #1
        # Resubmission happens "now": the retry enters the dispatch path at
        # the current simulated time, not at the original submission time.
        attempt.submission_time = self.env.now
        self.retry_jobs.append(attempt)
        self.total_jobs += 1
        self.logger.info(
            "server",
            f"retrying job {original_id}",
            attempt=attempts + 2,
        )
        self._dispatch(attempt)

    # -- checkpoint support ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the dispatch state: totals, pending ids, assignments, retries, sweep.

        Part of the :class:`repro.state.Snapshottable` protocol.  Everything
        here is replay-derived (the inbox reads and the completion
        callbacks rebuild it when the session re-executes its op log), so the
        snapshot serves as the verification record a restore is checked
        against -- job ids in the pending list keep arrival order, and the
        sweep grid its float, which replay must reproduce exactly.  The
        run-constant values each live status stores, and every backlog order
        built (after re-filing its dirty sites), are audited against the sites
        on the way (:class:`CheckpointError` on mismatch).
        """
        for name, status in self._statuses.items():
            site = self.sites[name]
            kept = (status.total_cores, status.max_host_cores, status.core_speed)
            current = (site.total_cores, site.max_host_cores(), site.config.core_speed)
            if kept != current:
                raise CheckpointError(
                    f"site {name!r}: its live status holds (total cores, widest host, core "
                    f"speed) {kept} but the site now has {current}"
                )
        for order in self._orders.values():
            kept = [entry[:2] for entry in order.refile()]
            fresh = sorted(
                (status.backlog / order.weight(status), name)
                for name, status in self._statuses.items()
            )
            for filed, due in zip(kept, fresh):
                if filed != due:
                    raise CheckpointError(
                        f"site {filed[1]!r} is filed at backlog/weight {filed[0]!r} in the "
                        f"backlog order of {order.weight!r}, where a fresh sort has site "
                        f"{due[1]!r} at {due[0]!r} (a backlog changed without "
                        f"SiteRuntime.backlog_changed)"
                    )
        return {
            "next_sweep": self._next_sweep,
            "sweep_armed": self._sweep_tick is not None,
            "total_jobs": self.total_jobs,
            "completed": len(self.completed),
            "pending": [int(job.job_id) for job in self.pending],
            "assignments": {int(k): v for k, v in self.assignments.items()},
            "attempts": {int(k): int(v) for k, v in self._attempts.items()},
            "retry_jobs": [int(job.job_id) for job in self.retry_jobs],
            "all_done": bool(self.all_done.triggered),
        }

    def restore(self, state: dict) -> None:
        """Verify the replayed server matches a snapshot (replay-derived state).

        Raises :class:`~repro.utils.errors.CheckpointError` listing every
        divergent field; a clean pass means the replay reproduced dispatch
        decisions, pending order, retry accounting and completion state
        bit-identically.
        """
        from repro.state.protocol import diff_states

        diffs = diff_states(state, self.snapshot())
        if diffs:
            raise CheckpointError(
                "main server diverged during replay: " + "; ".join(diffs)
            )

    # -- monitoring --------------------------------------------------------------------
    def _record(self, job: Job, state: JobState, site_name: str) -> None:
        if self.collector is None:
            return
        if site_name and site_name in self.sites:
            site = self.sites[site_name]
            self.collector.record_transition(
                job,
                state,
                time=self.env.now,
                site=site_name,
                available_cores=site.available_cores,
                pending_jobs=len(self.pending),
                assigned_jobs=site.backlog,
            )
        else:
            self.collector.record_transition(
                job,
                state,
                time=self.env.now,
                site="",
                available_cores=sum(s.available_cores for s in self.sites.values()),
                pending_jobs=len(self.pending),
                assigned_jobs=sum(s.backlog for s in self.sites.values()),
            )

    def __repr__(self) -> str:
        return (
            f"<MainServer jobs={self.total_jobs} completed={len(self.completed)} "
            f"pending={len(self.pending)}>"
        )

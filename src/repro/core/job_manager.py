"""Job manager: feeds the workload into the main server.

The job manager holds the full workload (a trace or a synthetic batch) and
releases each job into the main server's :class:`Inbox` at its submission
time, which is how "the main server starts receiving workload information from
the job manager" in the paper's description of an engine run.

Releasing a batch is a chain of calendar hops, not a process: an urgent start
event, then per job its submission-time timeout (when it lies ahead) and the
put hop that counts it released ("What one job costs the calendar" in
``docs/architecture.md`` has the order these keep).

Open workloads
--------------
The workload is no longer fixed at construction time:
:meth:`JobManager.submit` injects additional jobs while the simulation is
running (each batch is released by its own chain), which is what
:meth:`repro.core.session.SimulationSession.submit` builds on to express
jobs-arrive-while-the-grid-runs scenarios.  A job submitted after its
nominal ``submission_time`` has passed is released immediately.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional

from repro.des import Environment, Event
from repro.utils.errors import WorkloadError
from repro.workload.job import Job

__all__ = ["Inbox", "JobManager"]


class Inbox:
    """The main server's inbox: released jobs, oldest first, and their one reader.

    :meth:`get` hands the oldest job to the reader one calendar hop later (the
    get hop); on an empty inbox the reader waits, and the next :meth:`put`
    files its get hop right behind that put's own hop.
    """

    __slots__ = ("env", "jobs", "_reader")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.jobs: Deque[Job] = deque()
        #: The reader waiting on an empty inbox.
        self._reader: Optional[Callable[[Event], None]] = None

    def put(self, job: Job) -> None:
        """Add ``job``; a waiting reader gets it one hop from now."""
        reader, self._reader = self._reader, None
        if reader is None:
            self.jobs.append(job)
        else:
            self.env.hop(reader, job)

    def get(self, reader: Callable[[Event], None]) -> None:
        """Call ``reader(hop)`` with the oldest job as ``hop.value``, one hop after one is here."""
        if self.jobs:
            self.env.hop(reader, self.jobs.popleft())
        else:
            self._reader = reader


class JobManager:
    """Releases jobs into the main server's inbox at their submission times.

    Parameters
    ----------
    env:
        Discrete-event environment.
    jobs:
        The initial workload.  Jobs are released in submission-time order
        regardless of input order; ties preserve input order.  More jobs can
        join mid-run through :meth:`submit`.
    """

    def __init__(self, env: Environment, jobs: Iterable[Job]) -> None:
        self.env = env
        self.jobs: List[Job] = self._ordered_batch(jobs)
        self.inbox = Inbox(env)
        self._released = 0
        # Feed a snapshot: submit() extends self.jobs while this runs.
        self._release(list(self.jobs))

    @staticmethod
    def _ordered_batch(jobs: Iterable[Job]) -> List[Job]:
        """Validate and order one batch of jobs by submission time."""
        batch = sorted(jobs, key=lambda j: j.submission_time)
        for job in batch:
            if job.submission_time < 0:
                raise WorkloadError(f"job {job.job_id}: negative submission time")
        return batch

    @property
    def total_jobs(self) -> int:
        """Number of jobs in the workload (initial plus submitted batches)."""
        return len(self.jobs)

    @property
    def released_jobs(self) -> int:
        """Jobs already handed to the main server."""
        return self._released

    def submit(self, jobs: Iterable[Job]) -> List[Job]:
        """Inject additional jobs into the running workload.

        The batch is released by its own chain: each job enters the main
        server's inbox at ``max(submission_time, now)`` (a submission time
        already in the past means "submit now"), in submission-time order
        within the batch.  Returns the ordered batch.

        The caller is responsible for telling the main server to expect the
        extra jobs (see :meth:`repro.core.server.MainServer.expect`);
        :meth:`repro.core.session.SimulationSession.submit` does both.
        """
        batch = self._ordered_batch(jobs)
        if not batch:
            return batch
        self.jobs.extend(batch)
        self._release(batch)
        return batch

    def _release(self, batch: List[Job]) -> None:
        """Start releasing one batch: an urgent hop, ahead of the events already due now."""
        self.env.hop(_Feed(self, iter(batch)).next, urgent=True)

    # -- checkpoint support ------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the feeder's checkpointable counters (totals and releases).

        Part of the :class:`repro.state.Snapshottable` protocol: the
        workload itself is recorded by the session as pristine job waves, so
        the manager only contributes the verification counters -- how many
        jobs it holds and how many it has already fed to the main server.
        """
        return {"total": len(self.jobs), "released": self._released}

    def restore(self, state: dict) -> None:
        """Verify the replayed feeder matches a snapshot (replay-derived state).

        The release chains are rebuilt by replay, so ``restore`` checks the
        live counters against the snapshot and raises
        :class:`~repro.utils.errors.CheckpointError` on divergence instead
        of mutating anything.
        """
        from repro.state.protocol import diff_states
        from repro.utils.errors import CheckpointError

        diffs = diff_states(state, self.snapshot())
        if diffs:
            raise CheckpointError(
                "job manager diverged during replay: " + "; ".join(diffs)
            )

    def __repr__(self) -> str:
        return f"<JobManager total={len(self.jobs)} released={self._released}>"


class _Feed:
    """The release of one batch: per job, its submission-time timeout when it
    lies ahead, then the put into the inbox, whose hop counts it released."""

    __slots__ = ("manager", "jobs", "job")

    def __init__(self, manager: JobManager, jobs: Iterator[Job]) -> None:
        self.manager, self.jobs = manager, jobs
        self.job: Optional[Job] = None

    def next(self, _event: Event) -> None:
        job = self.job = next(self.jobs, None)
        if job is None:
            return
        env = self.manager.env
        delay = job.submission_time - env.now
        if delay > 0:
            env.timeout(delay).callbacks.append(self.put)
        else:
            self.put(None)

    def put(self, _event: Optional[Event]) -> None:
        manager = self.manager
        manager.env.hop(self.released)
        manager.inbox.put(self.job)

    def released(self, event: Event) -> None:
        self.manager._released += 1
        self.next(event)

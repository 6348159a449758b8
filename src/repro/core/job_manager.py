"""Job manager: feeds the workload into the main server.

The job manager holds the full workload (a trace or a synthetic batch) and
releases each job to the main server's inbox at its submission time, which is
how "the main server starts receiving workload information from the job
manager" in the paper's description of an engine run.

Open workloads
--------------
The workload is no longer fixed at construction time:
:meth:`JobManager.submit` injects additional jobs while the simulation is
running (each batch gets its own feeder process), which is what
:meth:`repro.core.session.SimulationSession.submit` builds on to express
jobs-arrive-while-the-grid-runs scenarios.  A job submitted after its
nominal ``submission_time`` has passed is released immediately.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.des import Environment, Store
from repro.utils.errors import WorkloadError
from repro.workload.job import Job

__all__ = ["JobManager"]


class JobManager:
    """Releases jobs into an inbox store at their submission times.

    Parameters
    ----------
    env:
        Discrete-event environment.
    jobs:
        The initial workload.  Jobs are released in submission-time order
        regardless of input order; ties preserve input order.  More jobs can
        join mid-run through :meth:`submit`.
    inbox:
        The store the main server reads from (created here if not supplied).
    """

    def __init__(
        self,
        env: Environment,
        jobs: Iterable[Job],
        inbox: Optional[Store] = None,
    ) -> None:
        self.env = env
        self.jobs: List[Job] = self._ordered_batch(jobs)
        self.inbox = inbox if inbox is not None else Store(env)
        self._released = 0
        # Feed a snapshot: submit() extends self.jobs while this runs.
        self._process = env.process(self._feeder(list(self.jobs)))

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

        The batch is released by its own feeder process: each job enters the
        main server's inbox at ``max(submission_time, now)`` (a submission
        time already in the past means "submit now"), in submission-time
        order within the batch.  Returns the ordered batch.

        The caller is responsible for telling the main server to expect the
        extra jobs (see :meth:`repro.core.server.MainServer.expect`);
        :meth:`repro.core.session.SimulationSession.submit` does both.
        """
        batch = self._ordered_batch(jobs)
        if not batch:
            return batch
        self.jobs.extend(batch)
        self.env.process(self._feeder(batch))
        return batch

    # -- checkpoint support ------------------------------------------------
    # cgsim: lint-ignore[snap-field-coverage] the inbox store is rebuilt by replaying recorded submit ops
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

        The feeder processes are rebuilt by replay, so ``restore`` checks
        the live counters against the snapshot and raises
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

    def _feeder(self, batch: List[Job]):
        """Release each job of one batch into the inbox at its submission time."""
        for job in batch:
            delay = job.submission_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            yield self.inbox.put(job)
            self._released += 1

    def __repr__(self) -> str:
        return f"<JobManager total={len(self.jobs)} released={self._released}>"

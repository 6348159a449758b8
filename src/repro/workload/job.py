"""The standardized job (workload) structure and its lifecycle.

CGSim dispatches *jobs*: units of work with computational requirements,
timestamps, input/output file counts and a target site assignment.  The
simulator tracks each job through the states reported in the paper's
event-level monitoring (pending, assigned, running, finished, failed), with
precise timestamps for every transition, from which the evaluation metrics
(queue time, walltime, total execution time) are derived.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.errors import WorkloadError

__all__ = [
    "JobState",
    "Job",
    "JobIdAllocator",
    "allocate_job_id",
    "reset_job_id_counter",
]


class JobIdAllocator:
    """Resettable job-id source, scoped to whatever owns it.

    Two instances exist in practice:

    * the module-global counter backing ``Job`` auto-ids and the
      :func:`allocate_job_id` compatibility shim;
    * one per built :class:`~repro.core.simulator.Simulator` run
      (``simulator.job_ids``), seeded deterministically from the workload's
      own ids.  Runtime-derived jobs (the main server's automatic retries)
      allocate from the per-simulator instance, so the ids a run hands out
      -- and therefore its result fingerprint -- depend only on the run's
      inputs, never on how many jobs the process created beforehand.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = int(start)

    def __next__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def allocate(self) -> int:
        """Hand out the next unique id."""
        return next(self)

    def peek(self) -> int:
        """The id :meth:`allocate` would hand out next."""
        return self._next

    def reset(self, next_value: int) -> None:
        self._next = int(next_value)

    def ensure_above(self, job_id: int) -> None:
        """Guarantee future allocations exceed ``job_id`` (no collisions)."""
        if int(job_id) >= self._next:
            self._next = int(job_id) + 1

    def __repr__(self) -> str:
        return f"<JobIdAllocator next={self._next}>"


#: Backwards-compatible private alias (pre-existing callers).
_JobIdCounter = JobIdAllocator

_job_counter = JobIdAllocator(1)


def allocate_job_id() -> int:
    """Hand out the next id from the *process-global* counter (legacy shim).

    Auto-assigned ``Job`` ids come from this counter.  Runtime components
    that create derived jobs (the main server's automatic retries) no longer
    call it -- they allocate from the owning simulator's scoped
    :class:`JobIdAllocator` -- but the function remains for compatibility
    with external callers.
    """
    return next(_job_counter)


def reset_job_id_counter(next_value: int) -> None:
    """Re-seat the process-global job-id counter to hand out ``next_value`` next.

    A compatibility shim: per-simulator id allocation made the global
    counter irrelevant to run reproducibility, so nothing in the library
    needs this anymore.  It remains for external code that pinned auto-ids
    through it.  Simulations are single-threaded per process; resetting
    while another live session allocates ids is undefined.
    """
    if int(next_value) < 1:
        raise WorkloadError(f"job id counter must be >= 1, got {next_value}")
    _job_counter.reset(int(next_value))


class JobState(str, enum.Enum):
    """Lifecycle states of a job, matching the paper's monitoring output."""

    CREATED = "created"
    PENDING = "pending"
    ASSIGNED = "assigned"
    TRANSFERRING = "transferring"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"

    def is_terminal(self) -> bool:
        """True for states a job never leaves."""
        return self in (JobState.FINISHED, JobState.FAILED)


#: Legal state transitions; anything else raises :class:`WorkloadError`.
_ALLOWED_TRANSITIONS: Dict[JobState, tuple] = {
    JobState.CREATED: (JobState.PENDING, JobState.ASSIGNED, JobState.FAILED),
    JobState.PENDING: (JobState.ASSIGNED, JobState.FAILED),
    JobState.ASSIGNED: (JobState.TRANSFERRING, JobState.RUNNING, JobState.FAILED),
    JobState.TRANSFERRING: (JobState.RUNNING, JobState.FAILED),
    JobState.RUNNING: (JobState.FINISHED, JobState.FAILED),
    JobState.FINISHED: (),
    JobState.FAILED: (),
}


@dataclass
class Job:
    """One unit of work dispatched through the simulated grid.

    The field set mirrors the preprocessed PanDA job records used by the
    paper: computational requirement, core count, memory, submission
    timestamp, input/output file counts and sizes, plus (for calibration) the
    ground-truth walltime and target site observed in production.

    Parameters
    ----------
    job_id:
        Unique identifier; auto-assigned when omitted.
    work:
        Computational requirement in operations (speed-normalised units).
    cores:
        Number of cores the job needs simultaneously.
    memory:
        Memory requirement in bytes.
    submission_time:
        Simulated time at which the job enters the system.
    input_files / output_files:
        Number of input and output files.
    input_size / output_size:
        Total bytes of input to stage in and output to stage out.
    target_site:
        Site the production system ran the job at (used when replaying
        historical assignments during calibration); ``None`` lets the
        allocation policy decide.
    true_walltime:
        Ground-truth processing duration from the historical record
        (calibration target); ``None`` for purely synthetic jobs.
    true_queue_time:
        Ground-truth queueing delay from the historical record.
    task_id:
        Identifier of the task (group of jobs) this job belongs to.
    attributes:
        Free-form additional fields carried through to the output datasets.
    """

    work: float
    cores: int = 1
    memory: float = 2 * 2**30
    submission_time: float = 0.0
    input_files: int = 0
    output_files: int = 0
    input_size: float = 0.0
    output_size: float = 0.0
    job_id: Optional[int] = None
    target_site: Optional[str] = None
    true_walltime: Optional[float] = None
    true_queue_time: Optional[float] = None
    task_id: Optional[int] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    # -- dynamic state (set by the simulator) -------------------------------
    state: JobState = JobState.CREATED
    assigned_site: Optional[str] = None
    state_history: List[tuple] = field(default_factory=list)
    #: Timestamps of the main lifecycle transitions.
    assigned_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    failure_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.job_id is None:
            self.job_id = next(_job_counter)
        if self.work < 0:
            raise WorkloadError(f"job {self.job_id}: work must be >= 0")
        if self.cores < 1:
            raise WorkloadError(f"job {self.job_id}: cores must be >= 1")
        if self.memory < 0:
            raise WorkloadError(f"job {self.job_id}: memory must be >= 0")
        if self.submission_time < 0:
            raise WorkloadError(f"job {self.job_id}: submission_time must be >= 0")
        if self.input_files < 0 or self.output_files < 0:
            raise WorkloadError(f"job {self.job_id}: file counts must be >= 0")
        if self.input_size < 0 or self.output_size < 0:
            raise WorkloadError(f"job {self.job_id}: file sizes must be >= 0")
        if not self.state_history:
            self.state_history.append((self.submission_time, JobState.CREATED))

    # -- lifecycle ------------------------------------------------------------
    def advance(self, new_state: JobState, time: float, **info) -> None:
        """Move the job to ``new_state`` at simulated ``time``.

        Illegal transitions raise :class:`WorkloadError`; timestamps of the
        key transitions are recorded on the job.
        """
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise WorkloadError(
                f"job {self.job_id}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        self.state_history.append((time, new_state))
        if new_state is JobState.ASSIGNED:
            self.assigned_time = time
            self.assigned_site = info.get("site", self.assigned_site)
        elif new_state is JobState.RUNNING:
            self.start_time = time
        elif new_state in (JobState.FINISHED, JobState.FAILED):
            self.end_time = time
            if new_state is JobState.FAILED:
                self.failure_reason = info.get("reason")

    # -- derived metrics ----------------------------------------------------------
    @property
    def is_multicore(self) -> bool:
        """True for jobs requesting more than one core."""
        return self.cores > 1

    @property
    def queue_time(self) -> Optional[float]:
        """Delay between submission and execution start (None until started)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submission_time

    @property
    def walltime(self) -> Optional[float]:
        """Simulated processing duration (None until finished)."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def total_time(self) -> Optional[float]:
        """Submission-to-completion duration (None until finished)."""
        if self.end_time is None:
            return None
        return self.end_time - self.submission_time

    def copy_for_replay(self) -> "Job":
        """Return a pristine copy of this job (static fields only).

        The calibration loop replays the same historical jobs against many
        candidate platform configurations; each replay needs jobs with clean
        dynamic state.
        """
        return Job(
            work=self.work,
            cores=self.cores,
            memory=self.memory,
            submission_time=self.submission_time,
            input_files=self.input_files,
            output_files=self.output_files,
            input_size=self.input_size,
            output_size=self.output_size,
            job_id=self.job_id,
            target_site=self.target_site,
            true_walltime=self.true_walltime,
            true_queue_time=self.true_queue_time,
            task_id=self.task_id,
            attributes=dict(self.attributes),
        )

    def to_record(self) -> dict:
        """Flatten the job (static + dynamic fields) into a plain dict."""
        return {
            "job_id": self.job_id,
            "task_id": self.task_id,
            "work": self.work,
            "cores": self.cores,
            "memory": self.memory,
            "submission_time": self.submission_time,
            "input_files": self.input_files,
            "output_files": self.output_files,
            "input_size": self.input_size,
            "output_size": self.output_size,
            "target_site": self.target_site,
            "true_walltime": self.true_walltime,
            "true_queue_time": self.true_queue_time,
            "state": self.state.value,
            "assigned_site": self.assigned_site,
            "assigned_time": self.assigned_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "queue_time": self.queue_time,
            "walltime": self.walltime,
            "failure_reason": self.failure_reason,
        }

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} cores={self.cores} state={self.state.value} "
            f"site={self.assigned_site}>"
        )

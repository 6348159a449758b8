"""Event-level monitoring records.

:class:`EventRecord` reproduces the rows of the paper's Table 1: every job
state transition is captured together with the concurrent state of the site
involved (available cores, pending/assigned/finished counters), giving the
dual job-level + site-level view that supports both real-time monitoring and
ML dataset generation.

:class:`SiteSnapshot` is the periodic (timestep) site-level record used by
the dashboard and by aggregate utilisation analyses.

This module also owns the output layer's row contract: a row is a plain
tuple in ``EVENT_FIELDS`` / ``SNAPSHOT_FIELDS`` / ``JOB_FIELDS`` order.  The
builders ``event_row`` / ``snapshot_row`` / ``job_row`` are derived from those
lists (a column is declared once), and every writer -- CSV exports, the CSV
sink, the SQLite store -- hands such tuples to one ``writerows`` /
``executemany``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List

__all__ = [
    "EventRecord",
    "SiteSnapshot",
    "EVENT_FIELDS",
    "SNAPSHOT_FIELDS",
    "JOB_FIELDS",
    "event_row",
    "snapshot_row",
    "job_row",
]


@dataclass
class EventRecord:
    """One event-level monitoring row (Table 1 schema).

    Attributes
    ----------
    event_id:
        Monotonically increasing event counter.
    time:
        Simulation time of the transition (seconds).
    job_id:
        Identifier of the job whose state changed.
    state:
        New job state (``pending``, ``assigned``, ``running``, ``finished``,
        ``failed``).
    site:
        Site involved (empty string for grid-level events such as submission
        before any assignment).
    available_cores:
        Free cores at the site at the time of the event.
    pending_jobs:
        Jobs waiting on the main server's pending list for this site (or
        globally for grid-level events).
    assigned_jobs:
        Jobs assigned to the site and not yet finished.
    finished_jobs:
        Cumulative jobs finished at the site.
    extra:
        Additional numeric features for ML export (queue length, cores
        requested, ...).
    """

    event_id: int
    time: float
    job_id: int
    state: str
    site: str
    available_cores: int
    pending_jobs: int
    assigned_jobs: int
    finished_jobs: int
    extra: Dict[str, float] = field(default_factory=dict)

    def to_row(self) -> dict:
        """Flatten to a plain dict (``extra`` merged in with an ``x_`` prefix)."""
        row = dict(zip(EVENT_FIELDS, event_row(self)))
        for key, value in self.extra.items():
            row[f"x_{key}"] = value
        return row


@dataclass
class SiteSnapshot:
    """Periodic site-level state capture (dashboard / utilisation analysis)."""

    time: float
    site: str
    total_cores: int
    available_cores: int
    running_jobs: int
    queued_jobs: int
    pending_jobs: int
    finished_jobs: int
    failed_jobs: int

    @property
    def used_cores(self) -> int:
        """Cores currently busy."""
        return self.total_cores - self.available_cores

    @property
    def node_pressure(self) -> float:
        """Fraction of the site's cores in use (the dashboard's node pressure)."""
        total = self.total_cores
        return (total - self.available_cores) / total if total else 0.0

    def to_row(self) -> dict:
        """Flatten to a plain dict for CSV/SQLite export."""
        return dict(zip(SNAPSHOT_FIELDS, snapshot_row(self)))


#: Column order of event rows in CSV/SQLite exports.
EVENT_FIELDS: List[str] = [
    "event_id",
    "time",
    "job_id",
    "state",
    "site",
    "available_cores",
    "pending_jobs",
    "assigned_jobs",
    "finished_jobs",
]

#: Column order of snapshot rows in CSV/SQLite exports.
SNAPSHOT_FIELDS: List[str] = [
    "time",
    "site",
    "total_cores",
    "available_cores",
    "used_cores",
    "running_jobs",
    "queued_jobs",
    "pending_jobs",
    "finished_jobs",
    "failed_jobs",
    "node_pressure",
]

#: Column order of per-job summary rows in CSV exports (the SQLite ``jobs``
#: table stores all of them but ``target_site``).
JOB_FIELDS: List[str] = [
    "job_id",
    "task_id",
    "cores",
    "work",
    "submission_time",
    "target_site",
    "assigned_site",
    "state",
    "assigned_time",
    "start_time",
    "end_time",
    "queue_time",
    "walltime",
    "true_walltime",
    "true_queue_time",
    "failure_reason",
]

#: ``event_row(record)`` -> tuple in ``EVENT_FIELDS`` order (``extra`` is not exported).
event_row = attrgetter(*EVENT_FIELDS)
#: ``snapshot_row(snapshot)`` -> tuple in ``SNAPSHOT_FIELDS`` order.
snapshot_row = attrgetter(*SNAPSHOT_FIELDS)
#: ``job_row(job)`` -> tuple in ``JOB_FIELDS`` order (a :class:`~repro.workload.job.Job`).
job_row = attrgetter(*("state.value" if name == "state" else name for name in JOB_FIELDS))

"""CSV export of monitoring output.

The output layer "supports CSV exports for statistical analysis"; these
helpers write the event-level dataset, the periodic snapshots and the final
per-job summaries produced by a simulation run into plain CSV files.

Two flavours exist, both fed row tuples in ``*_FIELDS`` order (the row
contract of :mod:`repro.monitoring.events`):

* the one-shot :func:`export_events_csv` / :func:`export_snapshots_csv` /
  :func:`export_jobs_csv` functions, used after a run on retained data: a
  header row plus one ``csv.writer.writerows`` call each;
* :class:`CSVSink`, the collector sink whose ``write_batch`` /
  ``write_snapshots`` append the batches a simulation hands over.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Union

from repro.monitoring.events import (
    EVENT_FIELDS,
    JOB_FIELDS,
    SNAPSHOT_FIELDS,
    EventRecord,
    SiteSnapshot,
    event_row,
    job_row,
    snapshot_row,
)
from repro.workload.job import Job

__all__ = ["CSVSink", "export_events_csv", "export_snapshots_csv", "export_jobs_csv"]

PathLike = Union[str, Path]


def _export(path: PathLike, fieldnames: List[str], rows: Iterable[tuple]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fieldnames)
        writer.writerows(rows)
    return path


def export_events_csv(events, path: PathLike) -> Path:
    """Write event-level records (Table 1 rows) to ``path``.

    ``events`` may be a :class:`TraceBuffer` (whose columns become row tuples
    without materialising a record) or any iterable of :class:`EventRecord`.
    """
    rows = getattr(events, "rows", None)
    return _export(path, EVENT_FIELDS, rows() if rows is not None else map(event_row, events))


def export_snapshots_csv(snapshots: Iterable[SiteSnapshot], path: PathLike) -> Path:
    """Write periodic site-level snapshots to ``path`` as CSV.

    One row per :class:`~repro.monitoring.events.SiteSnapshot` -- the
    queue/running/used-core gauges sampled every
    ``monitoring.snapshot_interval`` simulated seconds -- with the columns of
    ``SNAPSHOT_FIELDS``.  Returns the written path, e.g.
    ``export_snapshots_csv(result.collector.snapshots, "snapshots.csv")``
    after a monitored :meth:`~repro.core.Simulator.run`.
    """
    return _export(path, SNAPSHOT_FIELDS, map(snapshot_row, snapshots))


def export_jobs_csv(jobs: Iterable[Job], path: PathLike) -> Path:
    """Write final per-job summaries to ``path`` as CSV.

    One row per job (static description plus final dynamic state: assigned
    site, queue time, walltime, failure reason) with the columns of
    ``JOB_FIELDS`` -- the job-level companion of the event-level dataset,
    e.g. ``export_jobs_csv(result.jobs, "jobs.csv")`` after a
    :meth:`~repro.core.Simulator.run`.
    """
    return _export(path, JOB_FIELDS, map(job_row, jobs))


class CSVSink:
    """Collector sink writing ``events.csv`` / ``snapshots.csv`` / ``jobs.csv``.

    Fed row-tuple batches which go straight through ``csv.writer.writerows``:
    by the batching collector during a run with ``keep_in_memory=False``
    (events per ``batch_size``, snapshots per tick), or all at once by the
    post-run export of a retained run.  Both streamed files are created (with
    their header rows) at construction so a run that records nothing still
    leaves them behind; the sink must be :meth:`close`\\ d (or used as a
    context manager) to flush.  With ``append=True`` (a session restored
    from a checkpoint continuing its original's files) existing streams are
    appended to, and only a new or empty file gets a header.
    """

    def __init__(self, directory: PathLike, append: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._event_handle, self._event_writer = self._open("events.csv", EVENT_FIELDS, append)
        self._snapshot_handle, self._snapshot_writer = self._open(
            "snapshots.csv", SNAPSHOT_FIELDS, append
        )

    def _open(self, name: str, fields: List[str], append: bool) -> tuple:
        handle = (self.directory / name).open("a" if append else "w", encoding="utf-8", newline="")
        writer = csv.writer(handle)
        if not handle.tell():
            writer.writerow(fields)
        return handle, writer

    # -- sink protocol -------------------------------------------------------
    def write_batch(self, rows: Iterable[tuple]) -> None:
        """Append a batch of event rows (``EVENT_FIELDS`` order)."""
        self._event_writer.writerows(rows)

    def write_event(self, record: EventRecord) -> None:
        """Append one event row (legacy per-record path)."""
        self.write_batch((event_row(record),))

    def write_snapshots(self, rows: Iterable[tuple]) -> None:
        """Append a batch of snapshot rows (``SNAPSHOT_FIELDS`` order)."""
        self._snapshot_writer.writerows(rows)

    def write_snapshot(self, snapshot: SiteSnapshot) -> None:
        """Append one site snapshot row."""
        self.write_snapshots((snapshot_row(snapshot),))

    def write_jobs(self, jobs: Iterable[Job]) -> None:
        """Write the final per-job summaries to ``jobs.csv`` beside the two streams."""
        export_jobs_csv(jobs, self.directory / "jobs.csv")

    # -- lifecycle -----------------------------------------------------------
    def flush(self) -> None:
        """Push buffered rows to disk without closing the files.

        Called when a session pauses or aborts mid-run so whatever the sink
        already received survives, while the sink stays open for a resumed
        session to keep appending.
        """
        for handle in (self._event_handle, self._snapshot_handle):
            if handle is not None:
                handle.flush()

    def close(self) -> None:
        """Flush and close any open files."""
        for handle in (self._event_handle, self._snapshot_handle):
            if handle is not None:
                handle.close()
        self._event_handle = self._event_writer = None
        self._snapshot_handle = self._snapshot_writer = None

    def __enter__(self) -> "CSVSink":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

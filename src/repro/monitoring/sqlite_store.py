"""SQLite persistence back-end.

The CGSim output layer "collects and stores results in SQLite databases".
:class:`SQLiteStore` is a collector sink that writes event rows, snapshot
rows and final job summaries into three tables of one SQLite file; it also
offers simple read-back queries so post-processing scripts (and the tests)
can verify what was stored.

Rows arrive as tuples in ``*_FIELDS`` order (the row contract of
:mod:`repro.monitoring.events`), one ``executemany`` per batch, and the file
is loaded tables, then rows, then indexes (built by :meth:`SQLiteStore.close`).
"""

from __future__ import annotations

import sqlite3
from operator import itemgetter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

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

__all__ = ["SQLiteStore"]

PathLike = Union[str, Path]

# Both scripts open a transaction and leave it open: run bare, every CREATE
# would be committed (and synced) on its own; this way the tables become
# durable with the first rows and the indexes with the final commit.
_TABLES = """
BEGIN;
CREATE TABLE IF NOT EXISTS events (
    event_id INTEGER PRIMARY KEY,
    time REAL NOT NULL,
    job_id INTEGER NOT NULL,
    state TEXT NOT NULL,
    site TEXT NOT NULL,
    available_cores INTEGER NOT NULL,
    pending_jobs INTEGER NOT NULL,
    assigned_jobs INTEGER NOT NULL,
    finished_jobs INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    time REAL NOT NULL,
    site TEXT NOT NULL,
    total_cores INTEGER NOT NULL,
    available_cores INTEGER NOT NULL,
    running_jobs INTEGER NOT NULL,
    queued_jobs INTEGER NOT NULL,
    pending_jobs INTEGER NOT NULL,
    finished_jobs INTEGER NOT NULL,
    failed_jobs INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id INTEGER PRIMARY KEY,
    task_id INTEGER,
    cores INTEGER NOT NULL,
    work REAL NOT NULL,
    submission_time REAL NOT NULL,
    assigned_site TEXT,
    state TEXT NOT NULL,
    assigned_time REAL,
    start_time REAL,
    end_time REAL,
    queue_time REAL,
    walltime REAL,
    true_walltime REAL,
    true_queue_time REAL,
    failure_reason TEXT
);
"""
_INDEXES = """
BEGIN;
CREATE INDEX IF NOT EXISTS idx_events_site ON events (site);
CREATE INDEX IF NOT EXISTS idx_events_job ON events (job_id);
CREATE INDEX IF NOT EXISTS idx_snapshots_site ON snapshots (site);
"""


def _insert(verb: str, table: str, columns: Sequence[str]) -> str:
    marks = ", ".join("?" * len(columns))
    return f"{verb} INTO {table} ({', '.join(columns)}) VALUES ({marks})"


#: Stored columns: the contract's, minus the derivable snapshot gauges and the
#: jobs' ``target_site`` (an input, CSV only); the getters cut a row down to them.
_SNAPSHOT_COLUMNS = [n for n in SNAPSHOT_FIELDS if n not in ("used_cores", "node_pressure")]
_JOB_COLUMNS = [n for n in JOB_FIELDS if n != "target_site"]
_stored_snapshot = itemgetter(*map(SNAPSHOT_FIELDS.index, _SNAPSHOT_COLUMNS))
_stored_job = itemgetter(*map(JOB_FIELDS.index, _JOB_COLUMNS))
_INSERT_EVENTS = _insert("INSERT OR REPLACE", "events", EVENT_FIELDS)
_INSERT_SNAPSHOTS = _insert("INSERT", "snapshots", _SNAPSHOT_COLUMNS)
_INSERT_JOBS = _insert("INSERT OR REPLACE", "jobs", _JOB_COLUMNS)


class SQLiteStore:
    """Collector sink writing monitoring output into one SQLite database.

    The store can be used as a context manager; :meth:`close` commits and
    closes the connection.  ``":memory:"`` databases are supported for tests.
    """

    def __init__(self, path: PathLike = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        # Opening a finished database to read it back must not leave a
        # transaction (and its lock) open, so only a new file gets tables.
        if not self._conn.execute("SELECT name FROM sqlite_master").fetchall():
            self._conn.executescript(_TABLES)

    # -- sink protocol -------------------------------------------------------------
    def write_batch(self, rows: Iterable[tuple]) -> None:
        """Insert a batch of event rows (``EVENT_FIELDS`` order) via ``executemany``.

        This is the fast path the batching collector uses: one C-level
        ``executemany`` per batch instead of one ``execute`` per transition.
        """
        self._conn.executemany(_INSERT_EVENTS, rows)

    def write_event(self, record: EventRecord) -> None:
        """Insert one event-level row."""
        self.write_batch((event_row(record),))

    def write_snapshots(self, rows: Iterable[tuple]) -> None:
        """Insert a batch of snapshot rows (``SNAPSHOT_FIELDS`` order)."""
        self._conn.executemany(_INSERT_SNAPSHOTS, map(_stored_snapshot, rows))

    def write_snapshot(self, snapshot: SiteSnapshot) -> None:
        """Insert one site snapshot row."""
        self.write_snapshots((snapshot_row(snapshot),))

    def write_jobs(self, jobs: Iterable[Job]) -> None:
        """Write (or update) the final per-job summary table."""
        self._conn.executemany(_INSERT_JOBS, map(_stored_job, map(job_row, jobs)))
        self._conn.commit()

    # -- queries -----------------------------------------------------------------
    def count_events(self) -> int:
        """Number of event rows stored."""
        return int(self._conn.execute("SELECT COUNT(*) FROM events").fetchone()[0])

    def count_jobs(self, state: Optional[str] = None) -> int:
        """Number of job rows stored (optionally filtered by final state)."""
        if state is None:
            return int(self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0])
        return int(
            self._conn.execute("SELECT COUNT(*) FROM jobs WHERE state = ?", (state,)).fetchone()[0]
        )

    def events_for_site(self, site: str) -> List[tuple]:
        """Event rows for one site, ordered by event id."""
        return list(
            self._conn.execute(
                "SELECT * FROM events WHERE site = ? ORDER BY event_id", (site,)
            ).fetchall()
        )

    def mean_walltime(self) -> Optional[float]:
        """Mean simulated walltime over finished jobs (None when empty)."""
        row = self._conn.execute(
            "SELECT AVG(walltime) FROM jobs WHERE state = 'finished'"
        ).fetchone()
        return None if row[0] is None else float(row[0])

    # -- lifecycle -----------------------------------------------------------------
    def commit(self) -> None:
        """Flush pending writes."""
        self._conn.commit()

    def flush(self) -> None:
        """Commit pending writes, keeping the connection open.

        Uniform sink-pause protocol (see :class:`~repro.monitoring.csv_export.CSVSink`):
        a paused or aborted session flushes its live sinks without closing
        them, so the data written so far is durable and the run can resume.
        """
        self._conn.commit()

    def close(self) -> None:
        """Build the indexes, commit and close the underlying connection."""
        self._conn.executescript(_INDEXES)
        self._conn.commit()
        self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

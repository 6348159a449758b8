"""The monitoring collector: the simulation core's observation point.

The simulation core calls :meth:`MonitoringCollector.record_transition` on
every job state change and, on every snapshot tick, hands
:meth:`MonitoringCollector.record_tick` the clock, the pending-list length
and five counters per site.  The collector appends event rows to a columnar
:class:`TraceBuffer`, keeps ticks as those copied counters, keeps per-site
counters, and flushes batches of rows to whatever persistent back-ends are
attached (SQLite, CSV, the dashboard).  Snapshot rows and
:class:`~repro.monitoring.events.SiteSnapshot` objects are built from the
ticks only when they are written or read.

Batching and detail levels
--------------------------
Sinks are fed in batches of ``batch_size`` rows: event rows through their
``write_batch`` method, snapshot rows through ``write_snapshots``, which
turns per-transition Python call fan-out into one
``executemany``/``writerows`` per batch.  :meth:`MonitoringCollector.attach`
refuses a sink lacking either method.  A tick recorded while no sink is
attached never reaches one (a restore replays with its sinks detached, and
the original run already wrote those rows).  Two knobs bound the volume of
a huge run:

* ``detail="aggregate"`` records no per-event rows at all -- only the O(1)
  per-site counters -- for runs where site-level aggregates suffice;
* ``sample_stride=N`` retains every Nth transition row (counters stay
  exact), a cheap uniform sample for ML-scale sweeps.

A collector created with ``keep_in_memory=False`` streams batches to its
sinks and drops them; asking such a collector for its ``events`` or
``snapshots`` raises :class:`~repro.utils.errors.MonitoringError` instead
of silently returning an empty dataset.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.monitoring.events import EventRecord, SiteSnapshot, snapshot_row
from repro.monitoring.trace_buffer import TraceBuffer
from repro.utils.errors import MonitoringError
from repro.workload.job import Job, JobState

__all__ = ["MonitoringCollector"]


class _Sink(Protocol):  # pragma: no cover - structural typing only
    def write_batch(self, rows: Iterable[tuple]) -> None: ...

    def write_snapshots(self, rows: Iterable[tuple]) -> None: ...


class MonitoringCollector:
    """Collects event-level records and periodic site snapshots.

    Parameters
    ----------
    keep_in_memory:
        Retain every recorded row in the columnar buffer (required for the
        in-process dashboard, ML dataset assembly and most tests).  Large
        batch runs can disable this and rely on attached sinks instead;
        rows are then dropped after each batch flush.
    batch_size:
        Rows accumulated before attached sinks receive a batch.
    detail:
        ``"full"`` records per-transition rows; ``"aggregate"`` keeps only
        the per-site counters (no rows are buffered or written).
    sample_stride:
        Retain every Nth transition row (1 = every row).  Counters are
        maintained from *all* transitions regardless of sampling.
    """

    def __init__(
        self,
        keep_in_memory: bool = True,
        batch_size: int = 1024,
        detail: str = "full",
        sample_stride: int = 1,
    ) -> None:
        if detail not in ("full", "aggregate"):
            raise MonitoringError(f"unknown monitoring detail level {detail!r}")
        if batch_size < 1:
            raise MonitoringError(f"batch_size must be >= 1, got {batch_size}")
        if sample_stride < 1:
            raise MonitoringError(f"sample_stride must be >= 1, got {sample_stride}")
        self.keep_in_memory = keep_in_memory
        self.batch_size = int(batch_size)
        self.detail = detail
        self.sample_stride = int(sample_stride)
        #: Columnar event storage (all retained rows; pending rows when not retained).
        self.buffer = TraceBuffer()
        #: Retained snapshots built as objects, all ahead of the unbuilt ticks.
        self._snapshots: List[SiteSnapshot] = []
        #: Most recent snapshot of every site recorded as an object (kept
        #: without retention too); the last tick is read over it.
        self._latest: Dict[str, SiteSnapshot] = {}
        #: ``(name, total_cores)`` of every site a tick covers, in tick order.
        self._tick_sites: Tuple[Tuple[str, int], ...] = ()
        #: Rows per tick (the number of tick sites).
        self._tick_width = 0
        #: Recorded ticks ``(time, pending, counters)``: all of them when
        #: retained, else only those not yet written to the sinks.
        self._ticks: List[tuple] = []
        #: Ticks at the head of ``_ticks`` already in ``_snapshots``.
        self._ticks_built = 0
        #: Rows of ``_ticks`` handed to the sinks (or recorded with none attached).
        self._tick_rows_flushed = 0
        self._last_tick: Optional[tuple] = None
        self._sinks: List[_Sink] = []
        #: Next event id / total transitions seen (sampling included).
        self._seen = 0
        self._next_event_id = 1
        #: Index of the first buffer row not yet flushed to sinks.
        self._flushed = 0
        #: Per-site cumulative counters maintained from transitions.
        self._finished: Dict[str, int] = {}
        self._failed: Dict[str, int] = {}
        #: Live observers called on *every* transition (sampling exempt).
        self._listeners: List = []
        #: When true, recording is a no-op (checkpoint fast-forward mode).
        self.muted = False

    # -- sink management -------------------------------------------------------
    def attach(self, sink: _Sink) -> None:
        """Attach a persistence back-end receiving batches of recorded rows.

        Raises
        ------
        MonitoringError
            If ``sink`` lacks ``write_batch`` or ``write_snapshots``.
        """
        for method in ("write_batch", "write_snapshots"):
            if not hasattr(sink, method):
                raise MonitoringError(
                    f"monitoring sink {type(sink).__name__} has no {method}() method"
                )
        self._sinks.append(sink)

    def add_transition_listener(self, listener) -> None:
        """Register ``listener(job, state, time, site)`` on every transition.

        Listeners are the live-observation hook behind
        :meth:`repro.core.session.SimulationSession.on_job_state`: they fire
        synchronously for *every* recorded transition -- detail level and
        ``sample_stride`` thin only the stored rows, never the listener
        stream -- so progress displays and early-stop predicates always see
        the true job flow.
        """
        self._listeners.append(listener)

    # -- recording -------------------------------------------------------------
    def record_transition(
        self,
        job: Job,
        state: JobState,
        time: float,
        site: str = "",
        available_cores: int = 0,
        pending_jobs: int = 0,
        assigned_jobs: int = 0,
        **extra: float,
    ) -> None:
        """Record one job state transition together with site-level context.

        The hot path: per-site counters always stay exact; a row is buffered
        only when the detail level and sampling stride say so, and sinks are
        fed whole batches, not single rows.
        """
        if self.muted:
            return
        state_value = state.value
        if state_value == "finished":
            if site:
                self._finished[site] = self._finished.get(site, 0) + 1
        elif state_value == "failed":
            if site:
                self._failed[site] = self._failed.get(site, 0) + 1
        if self._listeners:
            for listener in self._listeners:
                listener(job, state, time, site)
        seen = self._seen
        self._seen = seen + 1
        if self.detail == "aggregate" or seen % self.sample_stride:
            return
        if not self.keep_in_memory and not self._sinks:
            # Nobody will ever read the row: buffering it would only grow
            # the buffer without bound (the whole point of the knob is O(1)
            # memory), so keep the counters and drop the row.
            return
        event_id = self._next_event_id
        self._next_event_id = event_id + 1
        buffer = self.buffer
        buffer.append(
            event_id,
            time,
            int(job.job_id or 0),
            state_value,
            site,
            int(available_cores),
            int(pending_jobs),
            int(assigned_jobs),
            self._finished.get(site, 0),
            float(job.cores),
            {key: float(value) for key, value in extra.items()} if extra else None,
        )
        if self._sinks and len(buffer) - self._flushed >= self.batch_size:
            self._flush_events()

    def set_tick_sites(self, sites: Sequence[Tuple[str, int]]) -> None:
        """Name the ``(site, total_cores)`` pairs every :meth:`record_tick` covers.

        The static half of a snapshot row, handed over once per run; a
        tick's counters list follows this order.
        """
        self._tick_sites = tuple(sites)
        self._tick_width = len(self._tick_sites)

    def record_tick(
        self, time: float, pending: int, counters: List[Tuple[int, int, int, int, int]]
    ) -> None:
        """Record one snapshot tick: the clock, the pending-list length and,
        per site of :meth:`set_tick_sites`, ``(available, running, queued,
        finished, failed)``.

        The hot path of periodic monitoring: nothing is built here.  With
        sinks attached, pending rows are written in whole ``batch_size``
        batches as they complete (the rest at :meth:`flush`), as event rows
        are; without retention or a sink the tick only updates
        :meth:`latest_snapshot_per_site`.
        """
        if self.muted:
            return
        tick = (time, pending, counters)
        self._last_tick = tick
        ticks = self._ticks
        if self._sinks:
            ticks.append(tick)
            if len(ticks) * self._tick_width - self._tick_rows_flushed >= self.batch_size:
                self._flush_ticks(whole_batches=True)
        elif self.keep_in_memory:
            ticks.append(tick)
            self._tick_rows_flushed += self._tick_width

    def record_snapshot(self, snapshot: SiteSnapshot) -> SiteSnapshot:
        """Record one periodic site-level snapshot (see :meth:`record_snapshots`)."""
        self.record_snapshots((snapshot,))
        return snapshot

    def record_snapshots(self, snapshots: Sequence[SiteSnapshot]) -> None:
        """Record one tick's site snapshots built by the caller (written through).

        Every sink receives the tick as one ``write_snapshots`` batch of
        ``SNAPSHOT_FIELDS`` row tuples, after any pending ticks.
        """
        if self.muted:
            return
        self._build_ticks()
        if self.keep_in_memory:
            self._snapshots.extend(snapshots)
        latest = self._latest = self.latest_snapshot_per_site()
        self._last_tick = None
        for snapshot in snapshots:
            latest[snapshot.site] = snapshot
        if self._sinks:
            self._flush_ticks()
            rows = list(map(snapshot_row, snapshots))
            for sink in self._sinks:
                sink.write_snapshots(rows)

    def _tick_rows(self, ticks: Iterable[tuple]) -> List[tuple]:
        """``SNAPSHOT_FIELDS`` row tuples of ``ticks``, built without objects."""
        rows = []
        append = rows.append
        sites = self._tick_sites
        for time, pending, counters in ticks:
            for (site, total), (free, running, queued, finished, failed) in zip(sites, counters):
                used = total - free
                append((
                    time, site, total, free, used, running, queued, pending,
                    finished, failed, used / total if total else 0.0,
                ))
        return rows

    def _tick_snapshots(self, ticks: Iterable[tuple]) -> List[SiteSnapshot]:
        """:class:`SiteSnapshot` objects of ``ticks`` (for readers that want them)."""
        sites = self._tick_sites
        return [
            SiteSnapshot(time, site, total, free, running, queued, pending, finished, failed)
            for time, pending, counters in ticks
            for (site, total), (free, running, queued, finished, failed) in zip(sites, counters)
        ]

    def _build_ticks(self) -> None:
        """Turn the unbuilt retained ticks into ``_snapshots`` objects."""
        ticks = self._ticks
        if self.keep_in_memory and self._ticks_built < len(ticks):
            self._snapshots.extend(self._tick_snapshots(ticks[self._ticks_built:]))
            self._ticks_built = len(ticks)

    def _flush_ticks(self, whole_batches: bool = False) -> None:
        """Hand the sinks the tick rows not written yet (with ``whole_batches``,
        only as many as fill whole ``batch_size`` batches)."""
        ticks = self._ticks
        width = self._tick_width
        start = self._tick_rows_flushed
        stop = len(ticks) * width
        if whole_batches:
            stop -= (stop - start) % self.batch_size
        if stop > start and self._sinks:
            first = start // width
            rows = self._tick_rows(ticks[first:-(-stop // width)])
            rows = rows[start - first * width:stop - first * width]
            for sink in self._sinks:
                sink.write_snapshots(rows)
        if self.keep_in_memory:
            self._tick_rows_flushed = stop
        else:
            # Keep only the ticks with rows still to write.
            written = stop // width if width else len(ticks)
            del ticks[:written]
            self._tick_rows_flushed = stop - written * width

    def _flush_events(self) -> None:
        """Hand all unflushed buffered rows to the sinks, batched."""
        buffer = self.buffer
        start = self._flushed
        stop = len(buffer)
        if stop > start and self._sinks:
            rows = buffer.rows(start, stop)
            for sink in self._sinks:
                sink.write_batch(rows)
        if self.keep_in_memory:
            self._flushed = stop
        else:
            buffer.clear()
            self._flushed = 0

    def flush(self) -> None:
        """Force-flush pending rows to the sinks (call at end of run)."""
        self._flush_events()
        self._flush_ticks()

    # -- checkpoint support ------------------------------------------------------
    # cgsim: lint-ignore[snap-field-coverage] listener callbacks and sink objects are re-registered by the restoring session; the latest-snapshot dict is rebuilt by the replay, like the retained rows
    def snapshot(self) -> dict:
        """Capture the collector's counters and buffer high-water marks.

        Part of the :class:`repro.state.Snapshottable` protocol: total
        transitions seen, the next event id (the :class:`TraceBuffer`
        high-water mark), retained row/snapshot counts and the exact
        per-site finished/failed counters.  These are what a restored run
        needs to continue numbering and counting where the original left
        off.
        """
        return {
            "seen": self._seen,
            "next_event_id": self._next_event_id,
            "rows": len(self.buffer),
            "snapshots": self._retained_snapshots(),
            "flushed": self._flushed,
            "finished": dict(self._finished),
            "failed": dict(self._failed),
        }

    def restore(self, state: dict) -> None:
        """Re-seat the counters and high-water marks from a snapshot.

        Unlike the replay-verified components, the collector's ``restore``
        *stamps* state: a restore may legitimately fast-forward with sinks
        detached (or fully muted), in which case the replayed counters
        undercount -- re-seating them from the blob keeps event ids and
        per-site counts continuing exactly where the original run stood.
        Retained rows are not reconstructed here; the replay itself rebuilds
        them when recording stays enabled.
        """
        self._seen = int(state["seen"])
        self._next_event_id = int(state["next_event_id"])
        self._finished = dict(state.get("finished", {}))
        self._failed = dict(state.get("failed", {}))

    # -- queries -----------------------------------------------------------------
    def _require_retained(self, what: str) -> None:
        if not self.keep_in_memory:
            raise MonitoringError(
                f"monitoring {what} were not retained (keep_in_memory=False); "
                "read them back from an attached sink (SQLite/CSV) instead"
            )

    @property
    def events(self) -> TraceBuffer:
        """The retained columnar event buffer (iterable of EventRecord views).

        Raises
        ------
        MonitoringError
            When the collector was created with ``keep_in_memory=False``:
            the rows were streamed to sinks and dropped, so reading them
            back here would silently yield an empty (or partial) dataset.
        """
        self._require_retained("events")
        return self.buffer

    @property
    def snapshots(self) -> List[SiteSnapshot]:
        """The retained site snapshots (see :attr:`events` for the contract)."""
        self._require_retained("snapshots")
        self._build_ticks()
        return self._snapshots

    def snapshot_rows(self) -> List[tuple]:
        """The retained snapshots as ``SNAPSHOT_FIELDS`` row tuples.

        What the post-run export writes: rows of recorded ticks are built
        straight from their counters, with no object in between.
        """
        self._require_retained("snapshots")
        rows = list(map(snapshot_row, self._snapshots))
        rows += self._tick_rows(self._ticks[self._ticks_built:])
        return rows

    def _retained_snapshots(self) -> int:
        """Retained snapshot rows, counted without building them."""
        if not self.keep_in_memory:
            return 0
        unbuilt = len(self._ticks) - self._ticks_built
        return len(self._snapshots) + unbuilt * self._tick_width

    def finished_jobs(self, site: str) -> int:
        """Cumulative finished-job count for ``site`` (exact under sampling)."""
        return self._finished.get(site, 0)

    def failed_jobs(self, site: str) -> int:
        """Cumulative failed-job count for ``site`` (exact under sampling)."""
        return self._failed.get(site, 0)

    def events_for_job(self, job_id: int) -> List[EventRecord]:
        """All retained events concerning one job, in order."""
        buffer = self.events
        return [buffer.record(i) for i in buffer.indices_for_job(job_id)]

    def events_for_site(self, site: str) -> List[EventRecord]:
        """All retained events concerning one site, in order."""
        buffer = self.events
        return [buffer.record(i) for i in buffer.indices_for_site(site)]

    def latest_snapshot_per_site(self) -> Dict[str, SiteSnapshot]:
        """The most recent snapshot of every site (dashboard input).

        Built from the last tick over a site -> snapshot dict kept up to
        date as snapshot objects are recorded, so a dashboard frame costs
        O(sites) however long the run and renders for streamed runs
        (``keep_in_memory=False``) as well.
        """
        latest = dict(self._latest)
        if self._last_tick is not None:
            for snapshot in self._tick_snapshots((self._last_tick,)):
                latest[snapshot.site] = snapshot
        return latest

    def __len__(self) -> int:
        """Rows currently held in the buffer."""
        return len(self.buffer)

    def __repr__(self) -> str:
        return (
            f"<MonitoringCollector rows={len(self.buffer)} seen={self._seen} "
            f"snapshots={self._retained_snapshots()} detail={self.detail!r}>"
        )

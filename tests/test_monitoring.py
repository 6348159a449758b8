"""Tests for the monitoring/output layer (repro.monitoring)."""

import csv
import sqlite3

import pytest

from repro.monitoring import (
    Dashboard,
    EventRecord,
    MonitoringCollector,
    SiteSnapshot,
    SQLiteStore,
    export_events_csv,
    export_jobs_csv,
    export_snapshots_csv,
)
from repro.monitoring.events import (
    EVENT_FIELDS,
    JOB_FIELDS,
    SNAPSHOT_FIELDS,
    event_row,
    job_row,
    snapshot_row,
)
from repro.workload.job import Job, JobState


def make_collector_with_activity() -> MonitoringCollector:
    collector = MonitoringCollector()
    job_a = Job(work=1, job_id=101, cores=1)
    job_b = Job(work=1, job_id=102, cores=8)
    collector.record_transition(job_a, JobState.ASSIGNED, 10.0, site="BNL",
                                available_cores=90, pending_jobs=0, assigned_jobs=1)
    collector.record_transition(job_a, JobState.RUNNING, 12.0, site="BNL",
                                available_cores=89, pending_jobs=0, assigned_jobs=1)
    collector.record_transition(job_b, JobState.PENDING, 13.0, site="",
                                available_cores=200, pending_jobs=1, assigned_jobs=1)
    collector.record_transition(job_a, JobState.FINISHED, 50.0, site="BNL",
                                available_cores=90, pending_jobs=1, assigned_jobs=0)
    collector.record_snapshot(SiteSnapshot(
        time=60.0, site="BNL", total_cores=100, available_cores=90,
        running_jobs=0, queued_jobs=0, pending_jobs=1, finished_jobs=1, failed_jobs=0,
    ))
    return collector


class TestEventRecord:
    def test_table1_schema_fields_present(self):
        record = EventRecord(
            event_id=1, time=0.0, job_id=5, state="finished", site="BNL",
            available_cores=10, pending_jobs=0, assigned_jobs=2, finished_jobs=7,
        )
        row = record.to_row()
        for field in EVENT_FIELDS:
            assert field in row

    def test_extra_fields_prefixed(self):
        record = EventRecord(
            event_id=1, time=0.0, job_id=5, state="running", site="BNL",
            available_cores=10, pending_jobs=0, assigned_jobs=2, finished_jobs=7,
            extra={"cores": 8.0},
        )
        assert record.to_row()["x_cores"] == 8.0


class TestSiteSnapshot:
    def test_derived_fields(self):
        snapshot = SiteSnapshot(
            time=0.0, site="BNL", total_cores=100, available_cores=25,
            running_jobs=10, queued_jobs=2, pending_jobs=1, finished_jobs=5, failed_jobs=0,
        )
        assert snapshot.used_cores == 75
        assert snapshot.node_pressure == pytest.approx(0.75)
        row = snapshot.to_row()
        for field in SNAPSHOT_FIELDS:
            assert field in row

    def test_zero_core_site(self):
        snapshot = SiteSnapshot(
            time=0.0, site="X", total_cores=0, available_cores=0,
            running_jobs=0, queued_jobs=0, pending_jobs=0, finished_jobs=0, failed_jobs=0,
        )
        assert snapshot.node_pressure == 0.0


class TestRowContract:
    """Rows are tuples in ``*_FIELDS`` order; ``to_row`` dicts are built from them."""

    def test_snapshot_row_and_dict(self):
        snapshot = SiteSnapshot(
            time=60.0, site="BNL", total_cores=100, available_cores=25,
            running_jobs=10, queued_jobs=2, pending_jobs=1, finished_jobs=5, failed_jobs=3,
        )
        assert snapshot_row(snapshot) == (60.0, "BNL", 100, 25, 75, 10, 2, 1, 5, 3, 0.75)
        assert snapshot.to_row() == dict(zip(SNAPSHOT_FIELDS, snapshot_row(snapshot)))

    def test_zero_core_snapshot_row_has_zero_pressure(self):
        snapshot = SiteSnapshot(
            time=0.0, site="X", total_cores=0, available_cores=0,
            running_jobs=0, queued_jobs=0, pending_jobs=0, finished_jobs=0, failed_jobs=0,
        )
        row = snapshot_row(snapshot)
        assert row[SNAPSHOT_FIELDS.index("used_cores")] == 0
        assert row[SNAPSHOT_FIELDS.index("node_pressure")] == 0.0

    def test_event_row_and_dict(self):
        extra = {"cores": 8.0, "nested": [1]}
        record = EventRecord(
            event_id=1, time=2.5, job_id=5, state="running", site="BNL",
            available_cores=10, pending_jobs=0, assigned_jobs=2, finished_jobs=7, extra=extra,
        )
        assert event_row(record) == (1, 2.5, 5, "running", "BNL", 10, 0, 2, 7)
        row = record.to_row()
        assert list(row) == EVENT_FIELDS + ["x_cores", "x_nested"]
        assert row["x_nested"] is extra["nested"]  # merged in, not deep-copied

    def test_job_row(self):
        job = Job(work=4.0, job_id=9, cores=2, task_id=3, target_site="CERN")
        job.advance(JobState.ASSIGNED, 1.0, site="BNL")
        job.advance(JobState.RUNNING, 2.0)
        job.advance(JobState.FAILED, 5.0, reason="boom")
        row = dict(zip(JOB_FIELDS, job_row(job)))
        assert row == {key: job.to_record()[key] for key in JOB_FIELDS}
        assert row["state"] == "failed" and row["failure_reason"] == "boom"
        assert row["queue_time"] == 2.0 and row["walltime"] == 3.0
        unstarted = dict(zip(JOB_FIELDS, job_row(Job(work=1.0, job_id=10))))
        assert unstarted["task_id"] is None and unstarted["walltime"] is None


class TestMonitoringCollector:
    def test_event_ids_are_monotonic(self):
        collector = make_collector_with_activity()
        ids = [e.event_id for e in collector.events]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_finished_counter_increments(self):
        collector = make_collector_with_activity()
        assert collector.finished_jobs("BNL") == 1
        assert collector.failed_jobs("BNL") == 0

    def test_failed_counter(self):
        collector = MonitoringCollector()
        job = Job(work=1, job_id=1)
        collector.record_transition(job, JobState.FAILED, 1.0, site="X")
        assert collector.failed_jobs("X") == 1

    def test_events_for_job_and_site(self):
        collector = make_collector_with_activity()
        assert len(collector.events_for_job(101)) == 3
        assert len(collector.events_for_site("BNL")) == 3
        assert len(collector.events_for_site("CERN")) == 0

    def test_latest_snapshot_per_site(self):
        collector = make_collector_with_activity()
        collector.record_snapshot(SiteSnapshot(
            time=100.0, site="BNL", total_cores=100, available_cores=100,
            running_jobs=0, queued_jobs=0, pending_jobs=0, finished_jobs=1, failed_jobs=0,
        ))
        latest = collector.latest_snapshot_per_site()
        assert latest["BNL"].time == 100.0

    def test_latest_snapshot_is_kept_without_retention_and_returned_as_a_copy(self):
        collector = MonitoringCollector(keep_in_memory=False)
        for time in (60.0, 120.0):
            collector.record_snapshot(SiteSnapshot(
                time=time, site="BNL", total_cores=100, available_cores=90,
                running_jobs=0, queued_jobs=0, pending_jobs=0, finished_jobs=0, failed_jobs=0,
            ))
        latest = collector.latest_snapshot_per_site()
        assert latest["BNL"].time == 120.0
        latest.clear()
        assert collector.latest_snapshot_per_site()["BNL"].time == 120.0
        assert "BNL" in Dashboard(collector).render()

    def test_a_tick_reaches_batching_sinks_as_one_batch_of_rows(self):
        collector = MonitoringCollector(keep_in_memory=False)
        batches = []

        class BatchSink:
            def write_batch(self, rows): ...

            def write_snapshot(self, snapshot):
                raise AssertionError("a sink gets snapshot batches only")

            def write_snapshots(self, rows):
                batches.append(list(rows))

        collector.attach(BatchSink())
        tick = [
            SiteSnapshot(
                time=300.0, site=site, total_cores=10, available_cores=4,
                running_jobs=3, queued_jobs=0, pending_jobs=0, finished_jobs=1, failed_jobs=0,
            )
            for site in ("A", "B", "C")
        ]
        collector.record_snapshots(tick)
        assert batches == [[snapshot_row(s) for s in tick]]

    def test_keep_in_memory_false_still_feeds_sinks(self):
        collector = MonitoringCollector(keep_in_memory=False)
        seen = []

        class Sink:
            def write_batch(self, rows):
                seen.extend(rows)

            def write_snapshots(self, rows):
                seen.extend(rows)

        collector.attach(Sink())
        collector.record_transition(Job(work=1), JobState.PENDING, 0.0)
        collector.flush()
        assert len(seen) == 1

    def test_keep_in_memory_false_reads_fail_loudly(self):
        from repro.utils.errors import MonitoringError

        collector = MonitoringCollector(keep_in_memory=False)
        collector.record_transition(Job(work=1), JobState.PENDING, 0.0)
        with pytest.raises(MonitoringError):
            collector.events
        with pytest.raises(MonitoringError):
            collector.snapshots
        with pytest.raises(MonitoringError):
            collector.events_for_site("BNL")
        # Counters stay exact without retention.
        collector.record_transition(Job(work=1), JobState.FINISHED, 1.0, site="X")
        assert collector.finished_jobs("X") == 1


class TestSQLiteStore:
    def test_events_and_snapshots_roundtrip(self, tmp_path):
        collector = make_collector_with_activity()
        store = SQLiteStore(tmp_path / "out.sqlite")
        for event in collector.events:
            store.write_event(event)
        for snapshot in collector.snapshots:
            store.write_snapshot(snapshot)
        store.commit()
        assert store.count_events() == 4
        assert len(store.events_for_site("BNL")) == 3
        store.close()

    def test_bulk_and_per_object_snapshot_writes_fill_the_same_table(self, tmp_path):
        snapshots = [
            SiteSnapshot(
                time=300.0 * tick, site=site, total_cores=cores, available_cores=tick % (cores + 1),
                running_jobs=tick, queued_jobs=1, pending_jobs=2, finished_jobs=tick, failed_jobs=0,
            )
            for tick in range(1, 6)
            for site, cores in (("A", 16), ("B", 0))
        ]
        with SQLiteStore(tmp_path / "bulk.sqlite") as bulk:
            bulk.write_snapshots(map(snapshot_row, snapshots))
        with SQLiteStore(tmp_path / "loop.sqlite") as loop:
            for snapshot in snapshots:
                loop.write_snapshot(snapshot)
        dumps = []
        for name in ("bulk.sqlite", "loop.sqlite"):
            conn = sqlite3.connect(tmp_path / name)
            dumps.append(list(conn.iterdump()))
            conn.close()
        assert dumps[0] == dumps[1]
        assert sum(line.startswith('INSERT INTO "snapshots"') for line in dumps[0]) == 10

    def test_reading_a_finished_database_back_holds_no_lock(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        writer = SQLiteStore(path)
        writer.write_jobs([Job(work=1, job_id=1)])
        reader = SQLiteStore(path)
        assert reader.count_jobs() == 1
        writer.write_jobs([Job(work=1, job_id=2)])  # commits while the reader is open
        assert reader.count_jobs() == 2
        writer.close()
        reader.close()

    def test_jobs_table(self):
        store = SQLiteStore(":memory:")
        job = Job(work=1, job_id=9)
        job.advance(JobState.ASSIGNED, 1.0, site="BNL")
        job.advance(JobState.RUNNING, 2.0)
        job.advance(JobState.FINISHED, 12.0)
        store.write_jobs([job])
        assert store.count_jobs() == 1
        assert store.count_jobs(state="finished") == 1
        assert store.mean_walltime() == pytest.approx(10.0)

    def test_mean_walltime_empty(self):
        store = SQLiteStore(":memory:")
        assert store.mean_walltime() is None

    def test_context_manager(self, tmp_path):
        with SQLiteStore(tmp_path / "ctx.sqlite") as store:
            store.write_jobs([Job(work=1)])
        # File exists and is readable by a fresh connection.
        reopened = SQLiteStore(tmp_path / "ctx.sqlite")
        assert reopened.count_jobs() == 1


class TestCSVExport:
    def test_event_export(self, tmp_path):
        collector = make_collector_with_activity()
        path = export_events_csv(collector.events, tmp_path / "events.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["state"] == "assigned"
        assert set(EVENT_FIELDS) <= set(rows[0].keys())

    def test_snapshot_export(self, tmp_path):
        collector = make_collector_with_activity()
        path = export_snapshots_csv(collector.snapshots, tmp_path / "snaps.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["site"] == "BNL"

    def test_job_export(self, tmp_path):
        job = Job(work=1, job_id=3)
        path = export_jobs_csv([job], tmp_path / "jobs.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["job_id"] == "3"


class TestDashboard:
    def test_site_rows_follow_latest_snapshot(self):
        collector = make_collector_with_activity()
        dashboard = Dashboard(collector)
        rows = dashboard.site_rows()
        assert len(rows) == 1
        assert rows[0]["site"] == "BNL"
        assert rows[0]["total_cores"] == 100

    def test_render_contains_site_and_pressure(self):
        collector = make_collector_with_activity()
        text = Dashboard(collector).render(time=123.0)
        assert "BNL" in text
        assert "t=123s" in text
        assert "pressure" in text

    def test_render_without_snapshots(self):
        text = Dashboard(MonitoringCollector()).render()
        assert "no snapshots" in text

    def test_job_details_filtered_by_site(self):
        collector = make_collector_with_activity()
        dashboard = Dashboard(collector)
        details = dashboard.job_details(site="BNL")
        assert all(d["site"] == "BNL" for d in details)
        assert len(details) == 3

    def test_to_json_is_valid_json(self):
        import json

        collector = make_collector_with_activity()
        payload = json.loads(Dashboard(collector).to_json(time=5.0))
        assert payload["time"] == 5.0
        assert payload["sites"][0]["site"] == "BNL"

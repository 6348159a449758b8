"""Golden-output tests of the monitoring output layer.

One small monitored run with injected failures, retries and a simulated-time
cutoff (so ``failure_reason``, ``task_id`` and ``None`` start/end times all
appear) is written through the configured outputs, and the sha256 of each of
the three CSV files and of the SQLite database's ``iterdump()`` text is
compared with digests recorded before the tuple-row writers replaced the
per-object dict writers.  The streamed path (``keep_in_memory=False``) must
produce the same four digests at every batch size.
"""

import csv
import hashlib
import sqlite3

import pytest

from repro.config import ExecutionConfig
from repro.config.execution import MonitoringConfig, OutputConfig
from repro.config.generators import generate_grid
from repro.core.simulator import Simulator
from repro.faults import JobFailureModel
from repro.monitoring.events import EVENT_FIELDS, JOB_FIELDS, SNAPSHOT_FIELDS
from repro.workload.generator import SyntheticWorkloadGenerator
from repro.workload.job import reset_job_id_counter

GOLDEN = {
    "events.csv": "97661ab3ffeea842724f5cf0743160abc15f5e358febc96104ceac74de5cd5a8",
    "snapshots.csv": "09bbec06894d827efd43ab89e42d407f957b9ddefdab1ed4ec9c45c139485bb4",
    "jobs.csv": "315f5624132e082e94b9f659a67b20e85e61a7c4ca8dfbd06f1e8818023065c9",
    "sqlite": "e5189c0f4c6e8271881a0175ac026bc20643f09e03b0086eabde3f51b30592a5",
}


def run_pack(directory, jobs=40, **monitoring):
    """Run the golden pack with its outputs under ``directory``; returns the result."""
    reset_job_id_counter(1)
    infrastructure, topology = generate_grid(3, seed=3, min_cores=8, max_cores=16)
    workload = SyntheticWorkloadGenerator(infrastructure, seed=5).generate(jobs)
    for index, job in enumerate(workload):
        if index % 3:
            job.task_id = 100 + index // 4
    monitoring.setdefault("snapshot_interval", 900.0)
    execution = ExecutionConfig(
        plugin="least_loaded",
        seed=11,
        max_retries=2,
        max_simulation_time=15_000.0,
        monitoring=MonitoringConfig(**monitoring),
        output=OutputConfig(
            sqlite_path=str(directory / "run.sqlite"),
            csv_directory=str(directory / "csv"),
        ),
    )
    simulator = Simulator(
        infrastructure,
        topology,
        execution,
        failure_model=JobFailureModel(default_rate=0.35, seed=7),
    )
    return simulator.run(workload)


def sqlite_dump(path) -> str:
    conn = sqlite3.connect(path)
    try:
        return "\n".join(conn.iterdump())
    finally:
        conn.close()


def digests(directory) -> dict:
    out = {
        name: hashlib.sha256((directory / "csv" / name).read_bytes()).hexdigest()
        for name in ("events.csv", "snapshots.csv", "jobs.csv")
    }
    out["sqlite"] = hashlib.sha256(sqlite_dump(directory / "run.sqlite").encode()).hexdigest()
    return out


class TestGoldenOutput:
    def test_pack_exercises_the_awkward_columns(self, tmp_path):
        result = run_pack(tmp_path)
        jobs = result.jobs
        assert len(jobs) > 40  # retries minted extra attempts
        assert any(job.failure_reason for job in jobs)
        assert any(job.task_id is None for job in jobs)
        assert any(job.task_id is not None for job in jobs)
        assert any(job.start_time is None for job in jobs)
        assert any(job.start_time is not None and job.end_time is None for job in jobs)
        assert len(result.collector.snapshots) > 0

    def test_retained_outputs_match_pinned_digests(self, tmp_path):
        run_pack(tmp_path)
        assert digests(tmp_path) == GOLDEN
        dump = sqlite_dump(tmp_path / "run.sqlite")
        assert dump.count("CREATE INDEX") == 3

    @pytest.mark.parametrize("batch_size", [1, 8, 1024])
    def test_streamed_outputs_match_pinned_digests(self, tmp_path, batch_size):
        run_pack(tmp_path, keep_in_memory=False, batch_size=batch_size)
        assert digests(tmp_path) == GOLDEN


def table_counts(path) -> dict:
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("events", "snapshots", "jobs")
        }
    finally:
        conn.close()


class TestReusedOutputPath:
    def test_second_run_replaces_the_first_runs_rows(self, tmp_path):
        """Both outputs of one run must agree: the CSVs are truncated on
        re-use, so the database may not keep the previous run's rows."""
        first = run_pack(tmp_path, jobs=40)
        assert table_counts(tmp_path / "run.sqlite")["jobs"] == len(first.jobs)
        second = run_pack(tmp_path, jobs=10)
        collector = second.collector
        assert len(second.jobs) < len(first.jobs)
        assert table_counts(tmp_path / "run.sqlite") == {
            "events": len(collector.events),
            "snapshots": len(collector.snapshots),
            "jobs": len(second.jobs),
        }
        with (tmp_path / "csv" / "snapshots.csv").open() as handle:
            assert len(list(csv.DictReader(handle))) == len(collector.snapshots)
        assert not (tmp_path / "run.sqlite.tmp").exists()

    def test_leftover_of_a_crashed_export_is_not_loaded(self, tmp_path):
        (tmp_path / "run.sqlite.tmp").write_bytes(b"half-written, not a database")
        result = run_pack(tmp_path, jobs=10)
        assert table_counts(tmp_path / "run.sqlite")["jobs"] == len(result.jobs)
        assert not (tmp_path / "run.sqlite.tmp").exists()


class TestEmptyRun:
    @pytest.mark.parametrize("keep_in_memory", [True, False])
    def test_headers_tables_and_indexes_without_any_row(self, tmp_path, keep_in_memory):
        result = run_pack(
            tmp_path, jobs=0, enable_events=False, snapshot_interval=0.0,
            keep_in_memory=keep_in_memory,
        )
        assert result.jobs == []
        for name, fields in (
            ("events.csv", EVENT_FIELDS),
            ("snapshots.csv", SNAPSHOT_FIELDS),
            ("jobs.csv", JOB_FIELDS),
        ):
            assert (tmp_path / "csv" / name).read_text().strip() == ",".join(fields)
        assert table_counts(tmp_path / "run.sqlite") == {"events": 0, "snapshots": 0, "jobs": 0}
        assert sqlite_dump(tmp_path / "run.sqlite").count("CREATE INDEX") == 3

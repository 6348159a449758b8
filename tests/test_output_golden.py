"""Golden-output tests of the monitoring output layer.

One small monitored run with injected failures, retries and a simulated-time
cutoff (so ``failure_reason``, ``task_id`` and ``None`` start/end times all
appear) is written through the configured outputs, and the sha256 of each of
the three CSV files and of the SQLite database's ``iterdump()`` text is
compared with digests recorded before the tuple-row writers replaced the
per-object dict writers.  The streamed path (``keep_in_memory=False``) must
produce the same four digests at every batch size.

``PATH_GOLDEN`` pins, with the same recipe, the job-lifecycle paths the pack
above never takes -- conventional and streaming staging, an injected failure
after stage-in, an outage over a non-empty site queue, and a pending list
served by the sweep grid across a ``submit()`` after completion.  Those
digests were recorded with the per-job generator process and the perpetual
sweeper still in place; the callback lifecycle and the on-demand sweep must
reproduce them byte for byte.
"""

import csv
import hashlib
import sqlite3
from dataclasses import replace

import pytest

from repro.config import ExecutionConfig
from repro.config.execution import MonitoringConfig, OutputConfig
from repro.config.generators import generate_grid
from repro.core.session import SimulationSession
from repro.core.simulator import Simulator
from repro.faults import JobFailureModel, OutageWindow
from repro.monitoring.events import EVENT_FIELDS, JOB_FIELDS, SNAPSHOT_FIELDS
from repro.plugins.base import AllocationPolicy
from repro.workload.generator import SyntheticWorkloadGenerator
from repro.workload.job import reset_job_id_counter

GOLDEN = {
    "events.csv": "97661ab3ffeea842724f5cf0743160abc15f5e358febc96104ceac74de5cd5a8",
    "snapshots.csv": "09bbec06894d827efd43ab89e42d407f957b9ddefdab1ed4ec9c45c139485bb4",
    "jobs.csv": "315f5624132e082e94b9f659a67b20e85e61a7c4ca8dfbd06f1e8818023065c9",
    "sqlite": "e5189c0f4c6e8271881a0175ac026bc20643f09e03b0086eabde3f51b30592a5",
}


def golden_inputs(directory, jobs, hosts=1, **execution):
    """Grid, workload and execution config (outputs under ``directory``) of one golden run."""
    reset_job_id_counter(1)
    infrastructure, topology = generate_grid(3, seed=3, min_cores=8, max_cores=16)
    infrastructure.sites[:] = [replace(site, hosts=hosts) for site in infrastructure.sites]
    workload = SyntheticWorkloadGenerator(infrastructure, seed=5).generate(jobs)
    for index, job in enumerate(workload):
        if index % 3:
            job.task_id = 100 + index // 4
        job.cores = min(job.cores, 8 // hosts)  # the widest job still fits the narrowest host
    execution.setdefault("monitoring", MonitoringConfig(snapshot_interval=900.0))
    config = ExecutionConfig(
        seed=11,
        output=OutputConfig(
            sqlite_path=str(directory / "run.sqlite"),
            csv_directory=str(directory / "csv"),
        ),
        **execution,
    )
    return infrastructure, topology, workload, config


def run_pack(directory, jobs=40, **monitoring):
    """Run the golden pack with its outputs under ``directory``; returns the result."""
    monitoring.setdefault("snapshot_interval", 900.0)
    infrastructure, topology, workload, execution = golden_inputs(
        directory, jobs, plugin="least_loaded", max_retries=2,
        max_simulation_time=15_000.0, monitoring=MonitoringConfig(**monitoring),
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


def run_streamed(directory, every=None):
    """The golden pack without its cutoff, streamed to its outputs.

    With ``every``, the run pauses every ``every`` simulated seconds; at each
    pause it is checkpointed, the session is finalized (its files end
    there) and a session restored from the blob finishes the run.
    """
    infrastructure, topology, workload, execution = golden_inputs(
        directory, 40, plugin="least_loaded", max_retries=2,
        monitoring=MonitoringConfig(snapshot_interval=900.0, keep_in_memory=False),
    )
    simulator = Simulator(
        infrastructure, topology, execution,
        failure_model=JobFailureModel(default_rate=0.35, seed=7),
    )
    session = simulator.session(workload)
    restores = 0
    while every is not None:
        session.advance_to_completion(pause_at=session.now + every)
        if session.done:
            break
        blob = session.checkpoint()
        session.finalize()
        session = SimulationSession.restore(None, blob, monitoring="replay")
        restores += 1
    session.advance_to_completion().finalize()
    return restores


class TestStreamedRestore:
    @pytest.mark.parametrize("every", [20_000.0, 150_000.0])
    def test_restored_sessions_write_the_uninterrupted_runs_outputs(self, tmp_path, every):
        """The CSV streams are continued, not truncated, by a restored
        session, and ticks replayed with the sinks detached never reach
        them: the four digests equal those of the run that never paused."""
        (tmp_path / "one").mkdir()
        (tmp_path / "chunked").mkdir()
        run_streamed(tmp_path / "one")
        assert run_streamed(tmp_path / "chunked", every) >= 3
        assert digests(tmp_path / "chunked") == digests(tmp_path / "one")
        counts = table_counts(tmp_path / "one" / "run.sqlite")
        with (tmp_path / "chunked" / "csv" / "snapshots.csv").open() as handle:
            assert len(list(csv.DictReader(handle))) == counts["snapshots"] > 2_000

    def test_a_blob_taken_with_no_row_buffered_restores(self, tmp_path):
        """A streamed collector whose buffer is empty is still a streamed
        collector: the blob must say so, or the restore's verification
        compares the streamed-away row counters and fails."""
        infrastructure, topology, workload, execution = golden_inputs(
            tmp_path, 20,
            monitoring=MonitoringConfig(keep_in_memory=False, batch_size=1),
        )
        session = Simulator(infrastructure, topology, execution).session(workload)
        session.advance_until(5_000.0)
        assert len(session.simulator.collector) == 0
        blob = session.checkpoint()
        session.finalize()
        restored = SimulationSession.restore(None, blob)
        assert restored.now == 5_000.0
        restored.advance_to_completion().finalize()

    def test_a_fresh_run_still_replaces_a_restored_runs_csv_files(self, tmp_path):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        used.mkdir()
        fresh.mkdir()
        run_streamed(used, 150_000.0)
        run_pack(used, jobs=10, keep_in_memory=False)
        run_pack(fresh, jobs=10, keep_in_memory=False)
        for name in ("events.csv", "snapshots.csv", "jobs.csv"):
            assert (used / "csv" / name).read_bytes() == (fresh / "csv" / name).read_bytes()


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


class TimeGatedPolicy(AllocationPolicy):
    """Parks job *i* for ``0.35 * (i % 7)`` seconds, then places it least-loaded."""

    name = "time_gated"

    def assign_job(self, job, resources):
        if resources.time < job.submission_time + 0.35 * (int(job.job_id) % 7):
            return None
        best = resources.least_loaded(job.cores)
        return best.name if best is not None else None


def run_staged(directory, **simulator_options):
    """Data transfers on, two hosts per site, twice as many jobs as cores."""
    infrastructure, topology, workload, execution = golden_inputs(
        directory, 80, hosts=2, plugin="least_loaded", max_retries=1,
    )
    simulator = Simulator(
        infrastructure, topology, execution, enable_data_transfers=True, **simulator_options
    )
    return simulator.run(workload)


def run_outage(directory):
    """SITE_001 stops admitting at t=2000 with most of its queue still waiting."""
    infrastructure, topology, workload, execution = golden_inputs(
        directory, 80, hosts=2, plugin="round_robin",
    )
    outages = [OutageWindow("SITE_001", 2_000.0, 60_000.0), OutageWindow("SITE_000", 0.0, 500.0)]
    return Simulator(infrastructure, topology, execution, outages=outages).run(workload)


def run_parked(directory):
    """Three waves parked by a time gate and served by the 0.1 s sweep grid.

    The second wave is submitted at the instant the first completes (the grid
    carries on), the third a quarter second after the second completes (a
    perpetual sweeper would have exited by then, so the grid restarts there).
    """
    infrastructure, topology, workload, execution = golden_inputs(
        directory, 36, hosts=2, pending_retry_interval=0.1,
        monitoring=MonitoringConfig(snapshot_interval=0.0),
    )
    for job in workload:
        job.work *= 1e-5  # seconds-long jobs: the 0.1 s grid ticks a few thousand times
    simulator = Simulator(infrastructure, topology, execution, policy=TimeGatedPolicy())
    session = simulator.session(workload[:12])
    session.advance_to_completion()
    session.submit(workload[12:24])
    session.advance_to_completion()
    session.advance_for(0.25)
    session.submit(workload[24:])
    return session.advance_to_completion().finalize()


PATH_RUNS = {
    "stage_in_out": run_staged,
    "streaming_io": lambda directory: run_staged(directory, streaming_io=True),
    "failure_after_stage_in": lambda directory: run_staged(
        directory, failure_model=JobFailureModel(default_rate=0.3, seed=7)
    ),
    "outage_over_queue": run_outage,
    "parked_then_submit": run_parked,
}

PATH_GOLDEN = {
    "failure_after_stage_in": {
        "events.csv": "1212a0b1d25e143b50941ee66807e10984f2e123215f344d70af8ed78eaeba69",
        "snapshots.csv": "f0e14ea9c5e323e0246598574cfdb04ff70ac7326acca82731536c9f5ea73b4a",
        "jobs.csv": "2fc9f5ddf151e9a66abd3b95aa667b411aded91e74c602bf65d7fdbb9514d442",
        "sqlite": "f73934f87ab67b7804a3de8810db0b7f2391dc5626f914e175dee06a096187a9",
    },
    "outage_over_queue": {
        "events.csv": "10e5d64a985fe5c6bc1678a02c3aad38f7b7d9b5d29f6fb242cad829559aae49",
        "snapshots.csv": "dcb9b77f2240707526f5342b1d9d3bf590c872761822940391e5f7f2a8982e73",
        "jobs.csv": "223072ee55050eb8f89de109465a51003baf77ca5374ad6994691428fb4db5ab",
        "sqlite": "c480a944808b9a176edbf80813003be3212d9ae49de014938711a061bf4b6bd0",
    },
    "parked_then_submit": {
        "events.csv": "49be24718fbc36d4807667dc4a7c9a1ebbfdd15f07b5d7c379311b3a5e724141",
        "snapshots.csv": "a425f583c695cf9d6664f307886993a1f339d4fef1a119a865bb836dc86f1391",
        "jobs.csv": "0d13ac7e4b61036cc41d9de115faad6a59d7b65eacfa32d0f6f031ed1dd14ad6",
        "sqlite": "53441e331143d5b2451a04eda791986bca018c8e2be628932feee1f00445e2e4",
    },
    "stage_in_out": {
        "events.csv": "354a21ada8ce7e2ddcd74d039eb2ed3523256ee7263822972fdd51351c0ddaf3",
        "snapshots.csv": "dc034f5303c5688e06dd79600beb01ac77d81fed43a627a2b0221b8fdeff3ce9",
        "jobs.csv": "f168957e2013e895108a71ddbcdaeb950ae80b8d6f203454ec516742181e8b6d",
        "sqlite": "676271626f5d952a3951881ecb656d0cae4ba95c5a4a2bb6a4c546e50a58bede",
    },
    "streaming_io": {
        "events.csv": "d8fa05b449540db6768100cf5b8eea85c15831d18d8d1eb31e5781fd3c0d1e39",
        "snapshots.csv": "4b2300fd9ed368eef80746fae8219b8433190d82f1491e26adc9ee0a7176a4dd",
        "jobs.csv": "25eea2414c347772f1dc9708e9b7c7ccaf566c7895eb76701c636ad9d8f62e67",
        "sqlite": "8605694ff9488fe9bca9046ba7bd0e9956aedbef7eedec19d9f20e3caeb26d62",
    },
}


class TestLifecyclePathGolden:
    @pytest.mark.parametrize("path", sorted(PATH_RUNS))
    def test_path_outputs_match_digests_recorded_on_the_generator_lifecycle(self, tmp_path, path):
        PATH_RUNS[path](tmp_path)
        assert digests(tmp_path) == PATH_GOLDEN[path]

    def test_the_paths_are_taken(self, tmp_path):
        def run(name):
            directory = tmp_path / name
            directory.mkdir()
            result = PATH_RUNS[name](directory)
            return result, [event.state for event in result.collector.events]

        result, seen = run("stage_in_out")
        assert seen.count("transferring") > 60 and result.metrics.failed_jobs == 0
        assert max(event.pending_jobs for event in result.collector.events) > 10
        result, seen = run("failure_after_stage_in")
        failed = [job for job in result.jobs if job.failure_reason]
        assert sum(job.input_size > 0 for job in failed) > 10
        assert "transferring" in seen and len(result.jobs) > 80
        result, seen = run("outage_over_queue")
        starts = sorted(j.start_time for j in result.jobs if j.assigned_site == "SITE_001")
        ends = [j.end_time for j in result.jobs if j.assigned_site == "SITE_001"]
        assert any(2_000.0 < end < 60_000.0 for end in ends)  # cores came free ...
        # ... for the one job already past the admission gate, then stayed free.
        assert sum(2_000.0 < start < 60_000.0 for start in starts) == 1
        assert starts.count(60_000.0) >= 1 and 500.0 in {
            j.start_time for j in result.jobs if j.assigned_site == "SITE_000"
        }
        result, seen = run("parked_then_submit")
        assert seen.count("pending") > 24 and result.metrics.finished_jobs == 36
        waves = sorted({e.time for e in result.collector.events if e.state == "pending"})
        assert len(waves) == 3  # every wave had jobs parked, each placed by a later tick
        placed = {e.time for e in result.collector.events if e.state == "assigned"}

        def grid(tick, count=120):
            ticks = set()
            for _ in range(count):
                tick += 0.1
                ticks.add(tick)
            return ticks

        # 0.1 s accumulated from t=0 serves the first two waves; the third starts its own grid.
        assert len(placed & grid(0.0)) >= 10 and max(placed & grid(0.0)) > waves[1]
        assert len(placed & grid(waves[2])) >= 3 and not placed & grid(0.0) & grid(waves[2])

"""Tests for the columnar TraceBuffer and the batched monitoring pipeline."""

import csv

import pytest

from repro.monitoring import CSVSink, MonitoringCollector, SQLiteStore, TraceBuffer
from repro.monitoring.events import EVENT_FIELDS, EventRecord
from repro.utils.errors import MonitoringError
from repro.workload.job import Job, JobState


def fill(collector: MonitoringCollector, n: int, site: str = "BNL") -> None:
    for index in range(n):
        collector.record_transition(
            Job(work=1, job_id=index, cores=2),
            JobState.RUNNING,
            float(index),
            site=site,
            available_cores=10 - index % 3,
            pending_jobs=index % 5,
            assigned_jobs=1,
        )


class TestTraceBuffer:
    def test_append_and_record_roundtrip(self):
        buffer = TraceBuffer()
        buffer.append(1, 2.5, 7, "running", "BNL", 4, 1, 2, 3, 8.0, {"queue": 5.0})
        assert len(buffer) == 1
        record = buffer.record(0)
        assert isinstance(record, EventRecord)
        assert record.event_id == 1
        assert record.time == 2.5
        assert record.state == "running"
        assert record.extra == {"cores": 8.0, "queue": 5.0}

    def test_rows_follow_event_fields_order(self):
        buffer = TraceBuffer()
        buffer.append(1, 0.0, 5, "pending", "", 0, 1, 0, 0, 1.0)
        (row,) = buffer.rows()
        as_dict = dict(zip(EVENT_FIELDS, row))
        assert as_dict["event_id"] == 1
        assert as_dict["job_id"] == 5
        assert as_dict["state"] == "pending"

    def test_rows_slicing(self):
        buffer = TraceBuffer()
        for i in range(5):
            buffer.append(i + 1, float(i), i, "running", "X", 0, 0, 0, 0, 1.0)
        rows = buffer.rows(2, 4)
        assert [r[0] for r in rows] == [3, 4]

    def test_iteration_and_indexing(self):
        buffer = TraceBuffer()
        for i in range(4):
            buffer.append(i + 1, float(i), i, "running", "X", 0, 0, 0, 0, 1.0)
        assert [e.event_id for e in buffer] == [1, 2, 3, 4]
        assert buffer[-1].event_id == 4
        assert [e.event_id for e in buffer[1:3]] == [2, 3]
        with pytest.raises(IndexError):
            buffer[4]

    def test_state_counts_and_index_queries(self):
        buffer = TraceBuffer()
        buffer.append(1, 0.0, 1, "running", "A", 0, 0, 0, 0, 1.0)
        buffer.append(2, 1.0, 1, "finished", "A", 0, 0, 0, 1, 1.0)
        buffer.append(3, 1.0, 2, "running", "B", 0, 0, 0, 0, 1.0)
        assert buffer.state_counts() == {"running": 2, "finished": 1}
        assert buffer.indices_for_site("A") == [0, 1]
        assert buffer.indices_for_job(1) == [0, 1]

    def test_clear_empties_every_column(self):
        buffer = TraceBuffer()
        buffer.append(1, 0.0, 1, "running", "A", 0, 0, 0, 0, 1.0)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.states == []


class TestBatchedCollector:
    def test_sinks_receive_batches_not_single_rows(self):
        batches = []

        class Sink:
            def write_batch(self, rows):
                batches.append(list(rows))

            def write_snapshots(self, rows):
                pass

        collector = MonitoringCollector(batch_size=10)
        collector.attach(Sink())
        fill(collector, 25)
        assert [len(b) for b in batches] == [10, 10]
        collector.flush()
        assert [len(b) for b in batches] == [10, 10, 5]

    @pytest.mark.parametrize("missing", ["write_batch", "write_snapshots"])
    def test_attach_rejects_a_sink_without_a_batch_method(self, missing):
        methods = {
            "write_batch": lambda self, rows: None,
            "write_snapshots": lambda self, rows: None,
            "write_event": lambda self, record: None,
            "write_snapshot": lambda self, snapshot: None,
        }
        del methods[missing]
        sink = type("PerRecordSink", (), methods)()
        collector = MonitoringCollector()
        with pytest.raises(MonitoringError, match=f"PerRecordSink has no {missing}"):
            collector.attach(sink)
        assert collector._sinks == []

    def test_unretained_buffer_is_dropped_after_flush(self):
        class NullSink:
            def write_batch(self, rows):
                pass

            def write_snapshots(self, rows):
                pass

        collector = MonitoringCollector(keep_in_memory=False, batch_size=8)
        collector.attach(NullSink())
        fill(collector, 30)
        # At most one partial batch pending; flushed rows were dropped.
        assert len(collector.buffer) < 8
        assert collector._seen == 30

    def test_aggregate_detail_records_counters_only(self):
        collector = MonitoringCollector(detail="aggregate")
        fill(collector, 10)
        collector.record_transition(Job(work=1), JobState.FINISHED, 1.0, site="BNL")
        assert len(collector.events) == 0
        assert collector.finished_jobs("BNL") == 1

    def test_sample_stride_thins_rows_but_not_counters(self):
        collector = MonitoringCollector(sample_stride=4)
        fill(collector, 16)
        for _ in range(3):
            collector.record_transition(Job(work=1), JobState.FINISHED, 99.0, site="BNL")
        assert collector.finished_jobs("BNL") == 3
        # 19 transitions seen, every 4th retained.
        assert len(collector.events) == 5

    def test_invalid_knobs_rejected(self):
        with pytest.raises(MonitoringError):
            MonitoringCollector(detail="everything")
        with pytest.raises(MonitoringError):
            MonitoringCollector(batch_size=0)
        with pytest.raises(MonitoringError):
            MonitoringCollector(sample_stride=0)


class TestBatchedSinks:
    def test_sqlite_write_batch_executemany(self, tmp_path):
        collector = MonitoringCollector(batch_size=16)
        fill(collector, 40)
        store = SQLiteStore(tmp_path / "batch.sqlite")
        store.write_batch(collector.events.rows())
        store.commit()
        assert store.count_events() == 40
        assert len(store.events_for_site("BNL")) == 40
        store.close()

    def test_sqlite_as_live_sink(self, tmp_path):
        store = SQLiteStore(tmp_path / "live.sqlite")
        collector = MonitoringCollector(keep_in_memory=False, batch_size=8)
        collector.attach(store)
        fill(collector, 20)
        collector.flush()
        store.commit()
        assert store.count_events() == 20

    def test_csv_sink_batches(self, tmp_path):
        collector = MonitoringCollector(batch_size=8)
        with CSVSink(tmp_path) as sink:
            collector.attach(sink)
            fill(collector, 20)
            collector.flush()
        with (tmp_path / "events.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 20
        assert rows[0]["site"] == "BNL"
        assert set(EVENT_FIELDS) <= set(rows[0].keys())

    def test_csv_export_fast_path_matches_record_path(self, tmp_path):
        from repro.monitoring import export_events_csv

        collector = MonitoringCollector()
        fill(collector, 5)
        fast = export_events_csv(collector.events, tmp_path / "fast.csv")
        slow = export_events_csv(list(collector.events), tmp_path / "slow.csv")
        assert fast.read_text() == slow.read_text()


class TestStreamingSimulatorOutputs:
    def test_unretained_run_streams_outputs_to_sinks(self, tmp_path):
        from repro.config import ExecutionConfig
        from repro.config.execution import MonitoringConfig, OutputConfig
        from repro.config.generators import generate_grid
        from repro.core.simulator import Simulator
        from repro.workload.generator import SyntheticWorkloadGenerator

        infrastructure, topology = generate_grid(2, seed=3)
        jobs = SyntheticWorkloadGenerator(infrastructure, seed=5).generate(30)
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(
                keep_in_memory=False, snapshot_interval=0.0, batch_size=16
            ),
            output=OutputConfig(
                sqlite_path=str(tmp_path / "out.sqlite"),
                csv_directory=str(tmp_path / "csv"),
            ),
        )
        result = Simulator(infrastructure, topology, execution).run(jobs)
        assert result.metrics.finished_jobs == 30

        store = SQLiteStore(tmp_path / "out.sqlite")
        assert store.count_events() > 0
        assert store.count_jobs() == 30
        store.close()
        with (tmp_path / "csv" / "events.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) > 0
        with (tmp_path / "csv" / "jobs.csv").open() as handle:
            assert len(list(csv.DictReader(handle))) == 30
        # The collector itself refuses to replay what it did not retain.
        with pytest.raises(MonitoringError):
            result.collector.events

    def test_retained_run_with_sampling_and_transitions(self, tmp_path):
        from repro.config import ExecutionConfig
        from repro.config.execution import MonitoringConfig
        from repro.config.generators import generate_grid
        from repro.core.simulator import Simulator
        from repro.workload.generator import SyntheticWorkloadGenerator

        infrastructure, topology = generate_grid(2, seed=3)
        jobs = SyntheticWorkloadGenerator(infrastructure, seed=5).generate(20)
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(snapshot_interval=0.0, sample_stride=3),
        )
        result = Simulator(infrastructure, topology, execution).run(jobs)
        full = Simulator(
            infrastructure,
            topology,
            ExecutionConfig(
                plugin="least_loaded",
                monitoring=MonitoringConfig(snapshot_interval=0.0),
            ),
        ).run([j.copy_for_replay() for j in jobs])
        # Sampling thins the rows but metrics transitions reflect what was kept.
        assert 0 < len(result.collector.events) < len(full.collector.events)
        assert sum(full.metrics.transitions.values()) == len(full.collector.events)
        assert full.metrics.transitions["finished"] == 20


class TestReviewRegressions:
    def test_unretained_collector_without_sinks_stays_bounded(self):
        collector = MonitoringCollector(keep_in_memory=False, batch_size=8)
        fill(collector, 10_000)
        assert len(collector.buffer) == 0
        assert collector._seen == 10_000

    def test_dashboard_renders_over_unretained_collector(self):
        from repro.monitoring import Dashboard

        collector = MonitoringCollector(keep_in_memory=False)
        fill(collector, 3)
        text = Dashboard(collector).render(time=1.0)
        assert "no snapshots" in text

    def test_pooled_timeout_does_not_pin_payload(self):
        import weakref

        from repro.des import Environment

        class Payload:
            pass

        env = Environment()
        ref = None

        def proc():
            nonlocal ref
            payload = Payload()
            ref = weakref.ref(payload)
            yield env.timeout(1, value=payload)
            del payload

        env.process(proc())
        env.run()
        assert ref() is None

    def test_crashed_run_persists_streamed_batches(self, tmp_path):
        from repro.config import ExecutionConfig
        from repro.config.execution import MonitoringConfig, OutputConfig
        from repro.config.generators import generate_grid
        from repro.core.simulator import Simulator
        from repro.workload.generator import SyntheticWorkloadGenerator

        infrastructure, topology = generate_grid(2, seed=3)
        jobs = SyntheticWorkloadGenerator(infrastructure, seed=5).generate(20)
        execution = ExecutionConfig(
            plugin="least_loaded",
            monitoring=MonitoringConfig(
                keep_in_memory=False, snapshot_interval=0.0, batch_size=4
            ),
            output=OutputConfig(sqlite_path=str(tmp_path / "crash.sqlite")),
        )

        def sabotage(sim):
            def crasher():
                yield sim.env.timeout(50_000.0)
                raise RuntimeError("boom")

            sim.env.process(crasher())

        simulator = Simulator(infrastructure, topology, execution)
        simulator.on_build(sabotage)
        with pytest.raises(RuntimeError, match="boom"):
            simulator.run(jobs)
        # The live sink was flushed, committed and closed on the way out.
        assert simulator._live_sinks == []
        store = SQLiteStore(tmp_path / "crash.sqlite")
        assert store.count_events() > 0
        store.close()

    def test_csv_sink_writes_header_files_even_when_empty(self, tmp_path):
        with CSVSink(tmp_path / "empty"):
            pass
        assert (tmp_path / "empty" / "events.csv").read_text().strip() == ",".join(EVENT_FIELDS)
        assert (tmp_path / "empty" / "snapshots.csv").exists()

"""Snapshot ticks against the generator loop they replaced.

``ReferenceLoop`` is a verbatim copy of the snapshot loop ``Simulator`` ran
as a process (``_snapshot_loop`` / ``_record_snapshots`` and the restart on
re-arm), attached through ``on_build``.  It only reads.  Its start event is
filed right behind the simulator's own tick start, so each of its timeouts
lands right behind the simulator's tick in the same bucket: no other event
runs between the two, and the reference sees exactly the state the tick
copies.  Its rows must equal the collector's, whether the run is advanced in
one go, paused on a tick, single-stepped, re-armed by ``submit()``,
checkpointed and restored, or streamed to a sink in batches.

The workload runs on integer times with 100 s ticks, so jobs end exactly on
tick times -- some started before the previous tick, some after it -- which
is where the order of a transition and a tick in one bucket shows.
"""

from __future__ import annotations

import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig
from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.session import SimulationSession
from repro.core.simulator import Simulator
from repro.monitoring.events import SiteSnapshot, snapshot_row
from repro.workload.job import Job

INTERVAL = 100.0
SPEED = 1e9


class ReferenceLoop:
    """The pre-callback snapshot loop, recording into its own list."""

    def __init__(self, simulator: Simulator) -> None:
        self.snapshots = []
        self.simulator = simulator
        simulator.on_build(self._build)

    def _build(self, simulator: Simulator) -> None:
        self.snapshots = []
        interval = simulator.execution.monitoring.snapshot_interval
        self._snapshot_process = simulator.env.process(self._snapshot_loop(interval))

        def restart_snapshots() -> None:
            if self._snapshot_process.triggered:
                self._snapshot_process = simulator.env.process(self._snapshot_loop(interval))

        simulator.server.rearm_listeners.append(restart_snapshots)

    def _snapshot_loop(self, interval: float):
        """Periodic site-level snapshot recording (dashboard / Table 1 context)."""
        while not self.simulator.server.all_done.triggered:
            yield self.simulator.env.timeout(interval)
            self._record_snapshots()

    def _record_snapshots(self) -> None:
        now = self.simulator.env.now
        pending = len(self.simulator.server.pending)
        self.snapshots.extend(
            [
                SiteSnapshot(
                    time=now,
                    site=site.name,
                    total_cores=site.total_cores,
                    available_cores=site.available_cores,
                    running_jobs=site.running_jobs,
                    queued_jobs=site.queued_jobs,
                    pending_jobs=pending,
                    finished_jobs=site.finished_jobs,
                    failed_jobs=site.failed_jobs,
                )
                for site in self.simulator.sites.values()
            ]
        )


class ListSink:
    """A sink keeping every snapshot row it is handed, and the batch sizes."""

    def __init__(self) -> None:
        self.rows = []
        self.batches = []

    def write_batch(self, rows) -> None:
        pass

    def write_snapshots(self, rows) -> None:
        rows = list(rows)
        self.batches.append(len(rows))
        self.rows.extend(rows)

    def write_jobs(self, jobs) -> None:
        pass

    def close(self) -> None:
        pass


def infrastructure() -> InfrastructureConfig:
    return InfrastructureConfig(
        sites=[
            SiteConfig(name="A", cores=4, core_speed=SPEED, hosts=1),
            SiteConfig(name="B", cores=6, core_speed=SPEED, hosts=2),
            SiteConfig(name="C", cores=2, core_speed=SPEED, hosts=1),
        ]
    )


def integer_jobs(count: int = 90, first_id: int = 1, offset: float = 0.0) -> list:
    """Jobs on whole seconds whose runtimes are multiples of 50 s (and a few odd)."""
    jobs = []
    for index in range(count):
        duration = (50.0, 100.0, 150.0, 200.0, 300.0, 37.0)[index % 6]
        jobs.append(
            Job(
                work=duration * SPEED,
                cores=1 + index % 2,
                submission_time=offset + float((index * 50) % 1_500),
                job_id=first_id + index,
            )
        )
    return jobs


def simulator(**monitoring) -> Simulator:
    monitoring.setdefault("snapshot_interval", INTERVAL)
    execution = ExecutionConfig(
        plugin="least_loaded",
        pending_retry_interval=25.0,
        monitoring=MonitoringConfig(**monitoring),
    )
    return Simulator(infrastructure(), execution=execution)


def rows(snapshots) -> list:
    return [snapshot_row(snapshot) for snapshot in snapshots]


def watched(**monitoring):
    sim = simulator(**monitoring)
    return sim, ReferenceLoop(sim)


class TestTicksMatchTheReferenceLoop:
    def test_workload_ends_jobs_on_ticks_started_before_and_after_the_previous_one(self):
        sim, reference = watched()
        result = sim.run(integer_jobs())
        on_tick = [job for job in result.jobs if job.end_time % INTERVAL == 0]
        assert any(job.start_time < job.end_time - INTERVAL for job in on_tick)
        assert any(job.start_time > job.end_time - INTERVAL for job in on_tick)
        assert len(reference.snapshots) > 30
        assert result.collector.snapshots == reference.snapshots

    def test_one_shot_run(self):
        sim, reference = watched()
        result = sim.run(integer_jobs())
        assert rows(result.collector.snapshots) == rows(reference.snapshots)

    def test_advance_until_pauses_on_ticks(self):
        sim, reference = watched()
        session = sim.session(integer_jobs())
        for k in range(1, 12):
            session.advance_until(k * INTERVAL)
            assert session.now == k * INTERVAL
            assert sim.collector.snapshots == reference.snapshots
        result = session.advance_to_completion().finalize()
        assert result.collector.snapshots == reference.snapshots

    def test_step_driven_run(self):
        sim, reference = watched()
        session = sim.session(integer_jobs())
        while session.step():
            # The reference records one step after the tick it trails.
            recorded = len(reference.snapshots)
            assert sim.collector.snapshots[:recorded] == reference.snapshots
        assert session.done
        assert session.finalize().collector.snapshots == reference.snapshots

    def test_submit_after_completion_rearms_the_ticks(self):
        sim, reference = watched()
        session = sim.session(integer_jobs(12))
        session.advance_to_completion()
        session.advance_for(3 * INTERVAL + 50.0)  # the chain has ended
        resubmit = session.now
        session.submit(integer_jobs(12, first_id=100, offset=resubmit + 13.0))
        session.advance_to_completion()
        # Completed off the tick grid: the chain is still on the calendar, so
        # this re-arm must not start a second one.
        assert not reference._snapshot_process.triggered
        session.submit(integer_jobs(6, first_id=200, offset=session.now))
        result = session.advance_to_completion().finalize()
        snapshots = result.collector.snapshots
        assert max(snapshot.time for snapshot in snapshots) > resubmit
        # One chain at a time: no (time, site) recorded twice.
        assert len({(snapshot.time, snapshot.site) for snapshot in snapshots}) == len(snapshots)
        assert snapshots == reference.snapshots

    def test_empty_workload_submitted_to_later(self):
        sim, reference = watched()
        session = sim.session([])
        session.advance_until(250.0)
        assert sim.collector.snapshots == [] == reference.snapshots
        session.submit(integer_jobs(10, offset=250.0))
        result = session.advance_to_completion().finalize()
        assert len(reference.snapshots) > 0
        assert result.collector.snapshots == reference.snapshots

    @pytest.mark.parametrize("every", [INTERVAL, 130.0, 700.0])
    def test_chunked_checkpoint_and_restore(self, every):
        def factory():
            sim = simulator()
            references.append(ReferenceLoop(sim))
            return sim

        references = []
        session = factory().session(integer_jobs())
        while True:
            session.advance_to_completion(pause_at=session.now + every)
            if session.done:
                break
            session = SimulationSession.restore(factory, session.checkpoint())
        result = session.finalize()
        assert len(references) > 2
        assert result.collector.snapshots == references[-1].snapshots

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_streamed_rows(self, batch_size):
        sim, reference = watched(keep_in_memory=False, batch_size=batch_size)
        sink = ListSink()
        sim.on_build(lambda built: built.collector.attach(sink))
        session = sim.session(integer_jobs())
        session.advance_until(5 * INTERVAL + 30.0)
        session.advance_to_completion().finalize()
        assert len(sink.rows) > 30
        assert sink.rows == rows(reference.snapshots)


class TestStreamedTicksAreWrittenAsTheyGo:
    def test_every_complete_batch_is_in_the_sink(self):
        batch_size = 8
        sim = simulator(keep_in_memory=False, batch_size=batch_size, detail="aggregate")
        sink = ListSink()
        sim.on_build(lambda built: built.collector.attach(sink))
        session = sim.session(integer_jobs(300))
        sites = len(sim.sites)
        for t in range(50, 3_000, 50):
            session.advance_until(float(t))
            recorded = (t - 1) // int(INTERVAL) * sites  # a pause at t precedes the tick at t
            assert len(sink.rows) == recorded // batch_size * batch_size
            assert recorded - len(sink.rows) < batch_size
        assert set(sink.batches) == {batch_size}
        result = session.advance_to_completion().finalize()
        assert result.simulated_time > 3_000
        assert len(sink.rows) % sites == 0
        assert [row[0] for row in sink.rows[::sites]] == [
            INTERVAL * k for k in range(1, len(sink.rows) // sites + 1)
        ]

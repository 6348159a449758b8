"""One run, however it is driven: differential tests of the chunked paths.

A scenario pack must finalize to one result -- fingerprint, simulated time,
stop reason, retained row counts -- whether it is run in one shot, advanced
in ``advance_to_completion(pause_at=...)`` chunks, driven by
:func:`repro.state.drive_with_checkpoints`, restored from one of that drive's
blobs and continued at another cadence, or served by
``repro.service.workers._run_job`` -- for any cadence, including one that puts
a chunk boundary exactly on the completion time.  Below the differential
matrix sit the unit tests of the primitive and the exact-count form of the
service claim: a served session is simulated once.
"""

from __future__ import annotations

import copy
import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.runner as scenario_runner
import repro.state as state_module
from repro.core import SimulationSession
from repro.scenarios.runner import _build_simulator
from repro.scenarios.schema import ScenarioPack
from repro.service import workers
from repro.service.store import ArtifactStore
from repro.state import (
    advance_in_chunks,
    decode_checkpoint,
    drive_with_checkpoints,
    fingerprint_result,
    restore_session_from_blob,
)
from repro.utils.errors import SimulationError
from repro.workload.job import Job, reset_job_id_counter

DATA = Path(__file__).resolve().parent / "data"


def _family(name: str, *, jobs: int = 14, execution=None, **sections) -> dict:
    pack = {
        "name": f"chunked-{name}",
        "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
        "workload": {
            "generator": "synthetic", "jobs": jobs, "seed": 3,
            "spec": {"walltime_median": 1800.0},
        },
        "execution": {
            "plugin": "least_loaded", "seed": 5,
            "monitoring": {"enable_events": False, "snapshot_interval": 0.0},
            **(execution or {}),
        },
    }
    pack.update(sections)
    return pack


_MONITORED = {"monitoring": {"enable_events": True, "snapshot_interval": 300.0}}

#: The pack families of the matrix: every way a run can end (workload done,
#: budget, stop condition, legacy deadline) and every subsystem with state of
#: its own between chunks (monitoring rows, caches, the failure stream).
FAMILIES = {
    "plain": _family("plain"),
    "monitored": _family("monitored", execution=_MONITORED),
    "data": _family(
        "data",
        execution={"plugin": "data_aware", **_MONITORED},
        data={
            "datasets": 12, "dataset_size": 10e9, "replication_factor": 1, "seed": 11,
            "assignment": "zipf",
            "cache": {"capacity": 40e9, "policy": "lru", "replication": "static_n"},
        },
    ),
    "faults": _family(
        "faults",
        jobs=24,
        execution={"max_retries": 3, **_MONITORED},
        faults={"job_failures": {"default_rate": 0.15, "seed": 13}},
    ),
    "time_budget": _family("budget", execution={"stop": {"max_simulated_time": 2500.0}}),
    "finished_jobs": _family("finished", execution={"stop": {"max_finished_jobs": 5}}),
    "legacy_deadline": _family("legacy", execution={"max_simulation_time": 30_000.0}),
}


class Outcome(tuple):
    """(fingerprint, simulated_time, stopped_reason, event rows, snapshot rows)."""

    @classmethod
    def of(cls, result) -> "Outcome":
        collector = result.collector
        return cls((
            fingerprint_result(result),
            result.simulated_time,
            result.stopped_reason,
            len(collector.events) if collector is not None else 0,
            len(collector.snapshots) if collector is not None else 0,
        ))


def _open(pack_dict: dict) -> SimulationSession:
    # Auto-assigned job ids come from a process-global counter; pin it as a
    # fresh ``repro scenario run`` process (and every service worker) does.
    reset_job_id_counter(1)
    simulator, jobs = _build_simulator(ScenarioPack.from_dict(pack_dict))
    return simulator.session(jobs)


@functools.lru_cache(maxsize=None)
def _one_shot(family: str) -> Outcome:
    return Outcome.of(_open(FAMILIES[family]).advance_to_completion().finalize())


def _pause_loop(family: str, every: float) -> Outcome:
    """The two-line chunk loop of docs/sessions.md."""
    session = _open(FAMILIES[family])
    while not session.done and session.stopped_reason is None:
        session.advance_to_completion(pause_at=session.now + every)
    return Outcome.of(session.advance_to_completion().finalize())


def _driven(family: str, every: float, directory: Path):
    pack_dict = FAMILIES[family]
    session = _open(pack_dict)
    written = drive_with_checkpoints(
        session, directory, every=every,
        extra={"scenario_pack": ScenarioPack.from_dict(pack_dict).to_dict()},
    )
    return Outcome.of(session.finalize()), written


def _resumed(blob: bytes, every: float, directory: Path) -> Outcome:
    reset_job_id_counter(1)
    session, _ = restore_session_from_blob(blob)
    drive_with_checkpoints(session, directory, every=every)
    return Outcome.of(session.finalize())


class _NoCommands:
    """Command-pipe stub: nothing ever arrives."""

    def poll(self) -> bool:
        return False


class _Events(list):
    """Event-pipe stub: collects what the worker emits."""

    send = list.append

    def kinds(self):
        return [event["type"] for event in self]

    def only(self, kind: str) -> dict:
        (event,) = [event for event in self if event["type"] == kind]
        return event


def _served(pack_dict: dict, every: float, store: ArtifactStore, commands=None, **job):
    """``_run_job`` in-process; returns ``(events, Outcome or None)``."""
    finalized = []
    finalize = SimulationSession.finalize

    def recording_finalize(session):
        finalized.append(finalize(session))
        return finalized[-1]

    events = _Events()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationSession, "finalize", recording_finalize)
        workers._run_job(
            0, {"id": "s1", "pack": copy.deepcopy(pack_dict), "checkpoint_every": every, **job},
            commands or _NoCommands(), events, store,
        )
    return events, Outcome.of(finalized[-1]) if finalized else None


def _cadences(family: str) -> dict:
    """The four cadence kinds, scaled to the family's simulated length."""
    length = _one_shot(family)[1]
    return {
        "one_chunk": 2.0 * length + 1.0,
        "few_chunks": length / 3.7,
        "tiny": length / 61.0,
        # Halving is exact in binary floating point: the second boundary,
        # every + every, *is* the completion time.
        "boundary_on_completion": length / 2.0,
    }


# -- the matrix -----------------------------------------------------------------


class TestEveryPathIsOneRun:
    @pytest.mark.parametrize("cadence", ["one_chunk", "few_chunks", "tiny", "boundary_on_completion"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_chunked_drive_equals_uninterrupted_run(self, family, cadence, tmp_path):
        # The chunked-CLI bug: at the parent every case whose workload drains
        # inside a chunk parked the clock on the boundary instead.
        expected = _one_shot(family)
        every = _cadences(family)[cadence]
        assert _pause_loop(family, every) == expected
        driven, written = _driven(family, every, tmp_path)
        assert driven == expected
        assert decode_checkpoint(written[-1].read_bytes())["time"] == expected[1]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_served_session_equals_uninterrupted_run(self, family, tmp_path):
        expected = _one_shot(family)
        store = ArtifactStore(tmp_path)
        for every in _cadences(family).values():
            events, outcome = _served(FAMILIES[family], every, store)
            result = events.only("result")
            assert outcome == expected
            assert (
                result["fingerprint"], result["simulated_time"], result["stopped_reason"]
            ) == expected[:3]

    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        fraction=st.floats(min_value=1 / 80, max_value=1.5),
        resume_fraction=st.floats(min_value=1 / 40, max_value=1.5),
        blob_draw=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_cadence_any_blob_any_other_cadence(
        self, family, fraction, resume_fraction, blob_draw
    ):
        expected = _one_shot(family)
        length = expected[1]
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            assert _pause_loop(family, fraction * length) == expected
            driven, written = _driven(family, fraction * length, scratch / "origin")
            assert driven == expected
            blob = written[blob_draw % len(written)].read_bytes()
            assert _resumed(blob, resume_fraction * length, scratch / "resumed") == expected
            events, _ = _served(
                FAMILIES[family], fraction * length, ArtifactStore(scratch / "store")
            )
            assert events.only("result")["fingerprint"] == expected[0]


# -- the primitive ---------------------------------------------------------------


class TestPauseAt:
    def test_pause_in_the_past_raises_and_pause_now_is_a_noop(self):
        session = _open(FAMILIES["plain"]).advance_until(1000.0)
        with pytest.raises(SimulationError, match="lies in the past"):
            session.advance_to_completion(pause_at=999.0)
        ops = [list(op) for op in session._ops]
        assert session.advance_to_completion(pause_at=1000.0) is session
        assert session.now == 1000.0 and session._ops == ops and not session.done

    def test_pause_parks_the_clock_and_logs_its_time(self):
        session = _open(FAMILIES["plain"]).advance_to_completion(pause_at=1200.0)
        assert session.now == 1200.0 and not session.done
        assert session._ops == [["completion", 1200.0]]
        session.advance_to_completion(pause_at=10 * _one_shot("plain")[1])
        assert session.done and session.now == _one_shot("plain")[1]

    def test_boundary_on_the_completion_time_is_a_pause_before_its_events(self):
        length = _one_shot("plain")[1]
        session = _open(FAMILIES["plain"])
        pauses = [(now, session.done) for now in advance_in_chunks(session, length / 2.0)]
        assert pauses == [(length / 2.0, False), (length, False)]
        assert session.done and session.now == length

    def test_time_budget_nearer_than_the_pause_wins(self):
        session = _open(FAMILIES["time_budget"])
        session.advance_to_completion(pause_at=4000.0)
        assert session.now == 2500.0
        assert session.stopped_reason == "max_simulated_time"
        assert Outcome.of(session.finalize()) == _one_shot("time_budget")

    @pytest.mark.parametrize("hooks", [False, True])
    def test_same_run_with_and_without_live_hooks(self, hooks):
        def run(every):
            session = _open(FAMILIES["monitored"])
            ticks, transitions = [], []
            if hooks:
                session.on_progress(700.0, lambda progress: ticks.append(progress.time))
                session.on_job_state(lambda job, state, time, site: transitions.append(time))
            if every is None:
                session.advance_to_completion()
            else:
                for _ in advance_in_chunks(session, every):
                    pass
            return Outcome.of(session.finalize()), ticks, transitions

        reference = run(None)
        assert reference[0] == _one_shot("monitored")
        assert bool(reference[1]) == bool(reference[2]) == hooks
        assert run(900.0) == reference
        assert run(reference[0][1] / 2.0) == reference

    def test_submit_after_a_pause_rearms_completion(self):
        def run(first_leg):
            session = _open(FAMILIES["plain"])
            first_leg(session)
            session.submit(Job(work=2e13, cores=1) for _ in range(3))
            return session

        # Mid-run: a pause is the state advance_until() parks in.
        paused = run(lambda s: s.advance_to_completion(pause_at=1500.0))
        parked = run(lambda s: s.advance_until(1500.0))
        assert not paused.done
        for _ in advance_in_chunks(paused, 800.0):
            pass
        assert paused.done
        assert Outcome.of(paused.finalize()) == Outcome.of(parked.advance_to_completion().finalize())

        # After completion: a new wave re-arms it for the next chunked leg.
        far = 10 * _one_shot("plain")[1]
        rearmed = run(lambda s: s.advance_to_completion(pause_at=far))
        assert not rearmed.done
        reference = run(lambda s: s.advance_to_completion())
        pauses = list(advance_in_chunks(rearmed, 500.0))
        assert pauses and rearmed.done
        assert Outcome.of(rearmed.finalize()) == Outcome.of(
            reference.advance_to_completion().finalize()
        )

    def test_pause_op_round_trips_through_checkpoint_restore_and_fork(self):
        family = "faults"
        session = _open(FAMILIES[family]).advance_to_completion(pause_at=2000.0)
        blob = session.checkpoint()
        assert decode_checkpoint(blob)["ops"] == [["completion", 2000.0]]
        restored = SimulationSession.restore(None, blob)
        assert restored.now == 2000.0
        assert Outcome.of(restored.advance_to_completion().finalize()) == _one_shot(family)
        branches = session.fork(2)
        assert [branch.now for branch in branches] == [2000.0, 2000.0]
        for branch in branches:
            assert branch.advance_to_completion().finalize().simulated_time > 2000.0
        assert Outcome.of(session.advance_to_completion().finalize()) == _one_shot(family)

    @pytest.mark.parametrize("name", ["parent_build_midrun", "parent_build_finished"])
    def test_blobs_written_by_the_parent_build_still_restore(self, name, tmp_path):
        # tests/data/parent_build_*.ckpt were written by the build before
        # ``pause_at`` existed (PR 19, ``parent_build_pack.json``): op logs of
        # ["until", t] and ["completion"] only.  The restore bit-verifies
        # every component against what that build recorded.
        import json

        blob = (DATA / f"{name}.ckpt").read_bytes()
        pack_dict = json.loads((DATA / "parent_build_pack.json").read_text())
        last_op = ["completion"] if name.endswith("finished") else ["until", 3000.0]
        assert decode_checkpoint(blob)["ops"][-1] == last_op
        reset_job_id_counter(1)
        session, payload = restore_session_from_blob(
            blob, expected_pack=ScenarioPack.from_dict(pack_dict).to_dict()
        )
        assert session.now == payload["time"]
        drive_with_checkpoints(session, tmp_path, every=1100.0)
        expected = Outcome.of(_open(pack_dict).advance_to_completion().finalize())
        assert Outcome.of(session.finalize()) == expected


# -- a served session is simulated once ---------------------------------------------


def _count_calls(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestServedSessionCostsOneSimulation:
    #: One chunk swallows the run / the run pauses a few times first.
    CADENCES = [1e9, 1500.0]

    @pytest.mark.parametrize("every", CADENCES)
    def test_cold_job_builds_once_and_never_restores(self, every, tmp_path, monkeypatch):
        builds = _count_calls(monkeypatch, scenario_runner, "_build_simulator")
        restores = _count_calls(monkeypatch, state_module, "restore_session_from_blob")
        events, _ = _served(FAMILIES["faults"], every, ArtifactStore(tmp_path))
        assert events.only("result")["fingerprint"] == _one_shot("faults")[0]
        assert (len(builds), len(restores)) == (1, 0)

    def test_resumed_job_restores_once_and_reads_its_blob_once(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        events, _ = _served(FAMILIES["faults"], 1500.0, store)
        digest = events[events.kinds().index("checkpoint") + 2]["digest"]  # the second blob
        restores = _count_calls(monkeypatch, state_module, "restore_session_from_blob")
        gets = _count_calls(monkeypatch, ArtifactStore, "get")
        resumed, _ = _served(FAMILIES["faults"], 4000.0, store, resume=digest, attempt=2)
        assert (len(restores), len(gets)) == (1, 1)
        assert resumed.only("started")["resumed_from"] == digest
        assert resumed.only("started")["time"] == 3000.0
        assert resumed.only("result")["fingerprint"] == _one_shot("faults")[0]

    @pytest.mark.parametrize("family", ["plain", "time_budget", "legacy_deadline"])
    def test_event_stream_is_a_checkpoint_and_a_progress_per_pause(self, family, tmp_path):
        # One checkpoint + progress pair per chunk boundary the run pauses on,
        # then the result: what the parent emitted for every run that drains
        # its workload.  The end of a run is not a pause, whatever ended it.
        length = _one_shot(family)[1]
        every = length / 4.5
        events, _ = _served(FAMILIES[family], every, ArtifactStore(tmp_path))
        assert events.kinds() == ["started"] + ["checkpoint", "progress"] * 4 + ["result"]
        times = [event["time"] for event in events if event["type"] == "checkpoint"]
        assert times == pytest.approx([every * k for k in range(1, 5)])
        on_the_end, _ = _served(FAMILIES[family], length / 2.0, ArtifactStore(tmp_path))
        assert on_the_end.kinds().count("checkpoint") == (1 if family != "plain" else 2)

    def test_pause_command_yields_at_the_next_pause_and_stop_ends_the_run(self, tmp_path):
        class Script:
            """Command pipe delivering one command after ``after`` polls."""

            def __init__(self, after: int, cmd: str) -> None:
                self.polls, self.after, self.cmd = 0, after, cmd

            def poll(self) -> bool:
                self.polls += 1
                return self.polls == self.after + 1

            def recv(self) -> dict:
                return {"cmd": self.cmd, "session": "s1"}

        store = ArtifactStore(tmp_path)
        paused, _ = _served(FAMILIES["plain"], 1500.0, store, commands=Script(2, "pause"))
        assert paused.kinds() == ["started"] + ["checkpoint", "progress"] * 2 + ["yielded"]
        assert paused.only("yielded")["time"] == 3000.0
        assert paused.only("yielded")["digest"] == paused[-3]["digest"]
        resumed, _ = _served(
            FAMILIES["plain"], 1500.0, store, resume=paused.only("yielded")["digest"]
        )
        assert resumed.only("result")["fingerprint"] == _one_shot("plain")[0]
        stopped, _ = _served(FAMILIES["plain"], 1500.0, store, commands=Script(1, "stop"))
        assert stopped.kinds() == ["started", "checkpoint", "progress", "result"]
        assert stopped.only("result")["stopped_reason"] == "stopped by service client"
        assert stopped.only("result")["simulated_time"] == 1500.0

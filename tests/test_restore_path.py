"""What a restore does, and what it no longer does.

A restore decodes its blob once and wires the pack's simulator around the
blob's own wave 0: no restore path generates or loads the workload again,
each decodes exactly once, and the decoded wave 0 becomes the live jobs of
exactly one session.  Every restore entry point is covered --
``restore_session_from_blob`` (``repro resume``, the stack bench), the
``scenario run --checkpoint-dir`` resume and the service worker's resume --
on a synthetic, a PanDA, a trace-CSV and a data-cache (zipf assignment,
prewarm build hook) pack, and each must still finish on the cold run's
fingerprint.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.runner import _build_simulator, _resume_pack_session
from repro.scenarios.schema import ScenarioPack, WorkloadSection
from repro.state import fingerprint_result, restore_session_from_blob
from repro.workload import job as job_module
from repro.workload.job import reset_job_id_counter

#: Fixed job-id counter base for the cold and the checkpointed run.
COUNTER_BASE = 700_000

_QUIET = {"snapshot_interval": 0.0}


def _synthetic() -> dict:
    return {
        "name": "restore-synthetic",
        "grid": {"kind": "synthetic", "sites": 3, "seed": 2},
        "workload": {"generator": "synthetic", "jobs": 60, "seed": 3},
        "execution": {"plugin": "least_loaded", "max_retries": 2, "monitoring": _QUIET},
        "faults": {"job_failures": {"default_rate": 0.2, "seed": 5}},
    }


def _panda() -> dict:
    return {
        "name": "restore-panda",
        "grid": {"kind": "wlcg", "sites": 4},
        "workload": {"generator": "panda", "jobs": 60, "seed": 6,
                     "spec": {"arrival_rate": 0.02}},
        "execution": {"plugin": "panda_dispatcher",
                      "monitoring": {"snapshot_interval": 300.0}},
    }


def _data_cache() -> dict:
    return {
        "name": "restore-data-cache",
        "grid": {"kind": "wlcg", "sites": 4},
        "workload": {"generator": "panda", "jobs": 60, "seed": 8,
                     "spec": {"arrival_rate": 0.02}},
        "execution": {"plugin": "data_aware", "monitoring": _QUIET},
        "data": {
            "datasets": 12,
            "dataset_size": 10e9,
            "replication_factor": 1,
            "seed": 9,
            "assignment": "zipf",
            "zipf_exponent": 1.2,
            "cache": {"capacity": 40e9, "policy": "lru", "replication": "static_n",
                      "prewarm": True},
        },
    }


def _trace_pack(directory: Path, from_file: bool = True) -> ScenarioPack:
    """A pack that replays ``directory/trace.csv``: loaded from
    ``directory/pack.json``, or (``from_file=False``) from a dict, so that
    the trace path resolves against the working directory."""
    from repro.config.generators import generate_grid
    from repro.workload.generator import SyntheticWorkloadGenerator
    from repro.workload.trace import save_trace

    grid = {"kind": "synthetic", "sites": 3, "seed": 4}
    infrastructure, _ = generate_grid(grid["sites"], seed=grid["seed"])
    save_trace(
        SyntheticWorkloadGenerator(infrastructure, seed=11).generate(50),
        directory / "trace.csv",
    )
    data = {
        "name": "restore-trace",
        "grid": grid,
        "workload": {"trace": "trace.csv"},
        "execution": {"plugin": "follow_trace", "monitoring": _QUIET},
    }
    if not from_file:
        return ScenarioPack.from_dict(data)
    source = directory / "pack.json"
    source.write_text(json.dumps(data))
    return ScenarioPack.from_dict(data, source=source)


PACKS = ["synthetic", "panda", "trace", "data_cache"]


def _pack(name: str, directory: Path) -> ScenarioPack:
    if name == "trace":
        return _trace_pack(directory)
    return ScenarioPack.from_dict({"synthetic": _synthetic, "panda": _panda,
                                   "data_cache": _data_cache}[name]())


def _cold(pack: ScenarioPack):
    """The cold run's fingerprint, and the simulated time half its jobs had ended by."""
    reset_job_id_counter(COUNTER_BASE)
    simulator, jobs = _build_simulator(pack)
    result = simulator.session(jobs).advance_to_completion().finalize()
    ends = sorted(job.end_time for job in result.jobs if job.end_time is not None)
    return fingerprint_result(result), ends[len(ends) // 2]


def _blob(pack: ScenarioPack, t_half: float) -> bytes:
    """A scenario-stamped checkpoint of ``pack`` paused at ``t_half``."""
    reset_job_id_counter(COUNTER_BASE)
    simulator, jobs = _build_simulator(pack)
    session = simulator.session(jobs)
    session.advance_until(t_half)
    return session.checkpoint(extra={
        "scenario_pack": pack.to_dict(),
        "scenario_source": str(pack.source_path) if pack.source_path else None,
    })


def _finish(session) -> str:
    return fingerprint_result(session.advance_to_completion().finalize())


@pytest.fixture
def no_workload_and_counted_decodes(monkeypatch):
    """Make workload generation raise and count every checkpoint decode."""
    import repro.state
    import repro.state.checkpoint as checkpoint_module

    def refuse(self, infrastructure, base_dir):
        raise AssertionError("a restore generated (or loaded) the workload")

    decode = checkpoint_module.decode_checkpoint
    decodes = []

    def counted(blob):
        decodes.append(len(blob))
        return decode(blob)

    def arm():
        monkeypatch.setattr(WorkloadSection, "build", refuse)
        monkeypatch.setattr(checkpoint_module, "decode_checkpoint", counted)
        monkeypatch.setattr(repro.state, "decode_checkpoint", counted)
        return decodes

    return arm


def _via_restore_front_door(pack, blob, tmp_path):
    session, _ = restore_session_from_blob(blob, expected_pack=pack.to_dict())
    return session


def _via_checkpoint_dir(pack, blob, tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / "latest.ckpt").write_bytes(blob)
    session = _resume_pack_session(pack, pack.to_dict(), directory)
    assert session is not None, "the matching latest.ckpt was not resumed"
    return session


def _via_service_worker(pack, blob, tmp_path):
    from repro.service.store import ArtifactStore
    from repro.service.workers import _open_session

    store = ArtifactStore(tmp_path / "store")
    return _open_session(store, store.put(blob), pack, pack.to_dict())


PATHS = {
    "restore_session_from_blob": _via_restore_front_door,
    "resume_pack_session": _via_checkpoint_dir,
    "service_open_session": _via_service_worker,
}


class TestRestoreBuildsNoWorkload:
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("pack_name", PACKS)
    def test_restore_decodes_once_and_generates_nothing(
        self, pack_name, path, tmp_path, no_workload_and_counted_decodes
    ):
        pack = _pack(pack_name, tmp_path)
        expected, t_half = _cold(pack)
        blob = _blob(pack, t_half)
        decodes = no_workload_and_counted_decodes()
        counter_before = job_module._job_counter.peek()
        session = PATHS[path](pack, blob, tmp_path)
        assert decodes == [len(blob)], "a restore must decode its blob exactly once"
        # The global counter feeds only auto-ids; a restore creates none.
        assert job_module._job_counter.peek() == counter_before
        assert session.now == pytest.approx(t_half)
        assert _finish(session) == expected

    def test_fork_decodes_once_per_branch(self, no_workload_and_counted_decodes):
        pack = ScenarioPack.from_dict(_synthetic())
        _, t_half = _cold(pack)
        reset_job_id_counter(COUNTER_BASE)
        simulator, jobs = _build_simulator(pack)
        session = simulator.session(jobs)
        session.advance_until(t_half)
        decodes = no_workload_and_counted_decodes()
        branches = session.fork(3)
        assert len(decodes) == 3
        assert [branch.branch for branch in branches] == [0, 1, 2]


class TestRestoresShareNoJob:
    def test_two_restores_of_one_blob_have_disjoint_jobs(self, tmp_path):
        pack = _pack("data_cache", tmp_path)
        expected, t_half = _cold(pack)
        blob = _blob(pack, t_half)
        first, _ = restore_session_from_blob(blob)
        second, _ = restore_session_from_blob(blob)
        assert [job.job_id for job in first.jobs] == [job.job_id for job in second.jobs]
        assert not {id(job) for job in first.jobs} & {id(job) for job in second.jobs}
        assert _finish(first) == expected
        assert _finish(second) == expected

    def test_fork_branches_share_no_job_with_each_other_or_the_parent(self):
        pack = ScenarioPack.from_dict(_synthetic())
        _, t_half = _cold(pack)
        reset_job_id_counter(COUNTER_BASE)
        simulator, jobs = _build_simulator(pack)
        parent = simulator.session(jobs)
        parent.advance_until(t_half)
        seen = {id(job) for job in parent.jobs}
        for branch in parent.fork(2):
            ids = {id(job) for job in branch.jobs}
            assert not ids & seen
            seen |= ids


class TestTraceBlobIsSelfContained:
    """The trace is read only by workload generation, which a restore skips."""

    def test_restores_after_the_trace_file_is_deleted(self, tmp_path):
        pack = _trace_pack(tmp_path)
        expected, t_half = _cold(pack)
        blob = _blob(pack, t_half)
        (tmp_path / "trace.csv").unlink()
        session, _ = restore_session_from_blob(blob)
        assert _finish(session) == expected

    def test_restores_from_another_working_directory(self, tmp_path, monkeypatch):
        written = tmp_path / "written"
        written.mkdir()
        monkeypatch.chdir(written)
        pack = _trace_pack(written, from_file=False)
        expected, t_half = _cold(pack)
        blob = _blob(pack, t_half)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert not Path("trace.csv").exists()
        session, _ = restore_session_from_blob(blob)
        assert _finish(session) == expected

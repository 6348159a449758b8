"""Tests of the state layer (repro.state): the checkpoint blob format, the
Snapshottable protocol and diff helpers, checkpoint -> restore -> finish
bit-identity across fault/retry/cache scenarios (including fresh processes
with different PYTHONHASHSEED values), fork determinism/divergence, the
checkpointing drive loop, and an RNG-hygiene lint over the source tree.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig, StopConfig
from repro.core import SimulationSession, Simulator
from repro.faults.models import JobFailureModel
from repro.plugins.bundled import LeastLoadedPolicy
from repro.state import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Snapshottable,
    canonical_state,
    checkpoint_fingerprint,
    decode_checkpoint,
    diff_states,
    drive_with_checkpoints,
    encode_checkpoint,
    fingerprint_result,
)
from repro.state.checkpoint import STEP_CALENDAR
from repro.utils.errors import CheckpointError, SessionError
from repro.utils.rng import RandomSource
from repro.workload.job import reset_job_id_counter

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Fixed job-id counter base so that runs compared by fingerprint allocate
#: identical retry ids regardless of how many jobs earlier tests created.
COUNTER_BASE = 500_000


def _quiet(**kwargs) -> ExecutionConfig:
    kwargs.setdefault("plugin", "least_loaded")
    kwargs.setdefault("monitoring", MonitoringConfig(snapshot_interval=0.0))
    return ExecutionConfig(**kwargs)


class _ParkUntil1000(LeastLoadedPolicy):
    """Parks every job until t=1000, so only a sweep tick (60 s grid) can place it."""

    def assign_job(self, job, resources):
        return None if resources.time < 1000.0 else super().assign_job(job, resources)


def _finish(session: SimulationSession):
    session.advance_to_completion()
    return session.finalize()


# -- blob format -----------------------------------------------------------------


class TestBlobFormat:
    def test_round_trip(self):
        payload = {"format": CHECKPOINT_VERSION, "time": 12.5, "ops": [["until", 5.0]]}
        blob = encode_checkpoint(payload)
        assert blob.startswith(CHECKPOINT_MAGIC)
        assert decode_checkpoint(blob) == payload

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            decode_checkpoint(b"not a checkpoint at all")

    def test_rejects_wrong_magic(self):
        blob = encode_checkpoint({"format": CHECKPOINT_VERSION})
        with pytest.raises(CheckpointError):
            decode_checkpoint(b"XXXX" + blob[4:])

    def test_rejects_unknown_version(self):
        blob = bytearray(encode_checkpoint({"format": CHECKPOINT_VERSION}))
        blob[len(CHECKPOINT_MAGIC)] = 99
        with pytest.raises(CheckpointError):
            decode_checkpoint(bytes(blob))

    def test_rejects_truncated_body(self):
        blob = encode_checkpoint({"format": CHECKPOINT_VERSION, "pad": "x" * 4096})
        with pytest.raises(CheckpointError):
            decode_checkpoint(blob[: len(blob) // 2])

    def test_fingerprint_tracks_content(self):
        a = encode_checkpoint({"format": CHECKPOINT_VERSION, "time": 1.0})
        b = encode_checkpoint({"format": CHECKPOINT_VERSION, "time": 2.0})
        assert checkpoint_fingerprint(a) == checkpoint_fingerprint(a)
        assert checkpoint_fingerprint(a) != checkpoint_fingerprint(b)


# -- protocol / diff helpers -----------------------------------------------------


class TestSnapshottableProtocol:
    def test_stateful_components_satisfy_protocol(self, small_infrastructure):
        simulator = Simulator(
            small_infrastructure,
            execution=_quiet(),
            enable_data_transfers=True,
            failure_model=JobFailureModel(default_rate=0.1, seed=3),
        )
        simulator.session([])
        components = [
            simulator.env,
            simulator.job_manager,
            simulator.server,
            simulator.collector,
            simulator.policy,
            simulator.data_manager,
            simulator.failure_model,
            RandomSource(7),
        ]
        components.extend(simulator.sites.values())
        for component in components:
            assert isinstance(component, Snapshottable), type(component).__name__
            state = component.snapshot()
            assert isinstance(state, dict)

    def test_canonical_state_normalises_containers(self):
        state = canonical_state({"b": (1, 2), "a": {3, 1}})
        assert state == {"a": [1, 3], "b": [1, 2]}

    def test_diff_states_reports_dotted_paths(self):
        expected = {"kernel": {"now": 1.0}, "server": {"pending": [1]}}
        actual = {"kernel": {"now": 2.0}, "server": {"pending": [1]}}
        diffs = diff_states(expected, actual)
        assert any("kernel.now" in d for d in diffs)
        assert diff_states(expected, expected) == []

    def test_diff_states_ignore_prefix(self):
        expected = {"monitoring": {"rows": 5}, "kernel": {"now": 1.0}}
        actual = {"monitoring": {"rows": 0}, "kernel": {"now": 1.0}}
        assert diff_states(expected, actual, ignore=("monitoring",)) == []
        assert diff_states(expected, actual, ignore=("monitoring.rows",)) == []


# -- checkpoint -> restore -> finish bit-identity --------------------------------


class TestCheckpointRestore:
    def _reference(self, simulator: Simulator, jobs) -> str:
        reset_job_id_counter(COUNTER_BASE)
        session = simulator.session([j.copy_for_replay() for j in jobs])
        return fingerprint_result(_finish(session))

    def test_plain_run_restores_bit_identical(
        self, small_infrastructure, small_topology, workload_generator
    ):
        jobs = workload_generator.generate(40)
        expected = self._reference(
            Simulator(small_infrastructure, small_topology, _quiet()), jobs
        )

        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, small_topology, _quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(2000.0)
        blob = session.checkpoint()

        restored = SimulationSession.restore(None, blob)
        assert restored.now == session.now
        assert fingerprint_result(_finish(restored)) == expected

    def test_fault_retry_run_restores_bit_identical(
        self, small_infrastructure, workload_generator
    ):
        """Injected failures + retries replay to the same job ids and times."""
        jobs = workload_generator.generate(30)

        def build() -> Simulator:
            return Simulator(
                small_infrastructure,
                execution=_quiet(plugin="random", plugin_options={"seed": 11}),
                failure_model=JobFailureModel(default_rate=0.3, seed=5),
            )

        expected = self._reference(build(), jobs)

        reset_job_id_counter(COUNTER_BASE)
        session = build().session([j.copy_for_replay() for j in jobs])
        session.advance_until(1500.0)
        blob = session.checkpoint()
        restored = SimulationSession.restore(None, blob)
        assert fingerprint_result(_finish(restored)) == expected

    def test_cache_run_restores_bit_identical(
        self, small_infrastructure, small_topology, workload_generator
    ):
        """Data transfers + site caches survive the checkpoint round trip."""
        from repro.data import DataCacheSpec

        jobs = workload_generator.generate(24)
        for index, job in enumerate(jobs):
            job.attributes["dataset"] = f"ds{index % 4}"

        def place(simulator: Simulator) -> None:
            for index in range(4):
                site = "FAST" if index % 2 else "MED"
                simulator.data_manager.register_replica(f"ds{index}", site, 2e9)

        def build() -> Simulator:
            simulator = Simulator(
                small_infrastructure,
                small_topology,
                _quiet(),
                enable_data_transfers=True,
                data_cache=DataCacheSpec(capacity=50e9),
            )
            simulator.on_build(place)
            return simulator

        reset_job_id_counter(COUNTER_BASE)
        ref_session = build().session([j.copy_for_replay() for j in jobs])
        expected = fingerprint_result(_finish(ref_session))

        reset_job_id_counter(COUNTER_BASE)
        session = build().session([j.copy_for_replay() for j in jobs])
        session.advance_until(1200.0)
        blob = session.checkpoint()

        restored = SimulationSession.restore(build, blob)
        assert fingerprint_result(_finish(restored)) == expected

    def test_mid_run_submission_and_stop_replay(
        self, small_infrastructure, workload_generator
    ):
        """The op log replays submissions and early stops, not just advances."""
        jobs = workload_generator.generate(20)
        extra = workload_generator.generate(10)

        def run(checkpointed: bool) -> str:
            reset_job_id_counter(COUNTER_BASE)
            session = Simulator(small_infrastructure, execution=_quiet()).session(
                [j.copy_for_replay() for j in jobs]
            )
            session.advance_until(800.0)
            session.submit([j.copy_for_replay() for j in extra])
            if checkpointed:
                session.advance_until(1600.0)
                session = SimulationSession.restore(None, session.checkpoint())
            return fingerprint_result(_finish(session))

        assert run(checkpointed=True) == run(checkpointed=False)

    def test_checkpoint_with_the_sweep_armed_restores_bit_identical(
        self, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(12)

        def simulator() -> Simulator:
            return Simulator(small_infrastructure, execution=_quiet(), policy=_ParkUntil1000())

        expected = self._reference(simulator(), jobs)
        reset_job_id_counter(COUNTER_BASE)
        session = simulator().session([j.copy_for_replay() for j in jobs])
        session.advance_until(500.0)
        server = session.snapshot()["server"]
        assert (server["sweep_armed"], server["next_sweep"], len(server["pending"])) == (
            True, 540.0, 12
        )
        restored = SimulationSession.restore(None, session.checkpoint())
        assert restored.snapshot()["server"] == server
        assert fingerprint_result(_finish(restored)) == expected
        assert {job.assigned_time for job in restored.jobs} == {1020.0}
        assert not restored.simulator.server.snapshot()["sweep_armed"]

    def test_step_ops_counted_by_another_build_fail_verification(
        self, small_infrastructure, workload_generator
    ):
        """A ``step`` op counts kernel events, and what a job costs the calendar
        is the build's business: such a blob restores on the build that wrote
        it, and raises -- never silently diverges -- on one that counts otherwise."""
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(20)
        )
        for _ in range(60):
            session.step()
        blob = session.checkpoint()
        assert SimulationSession.restore(None, blob).now == session.now
        payload = decode_checkpoint(blob)
        assert payload["ops"] == [["step", 60]]
        payload["ops"] = [["step", 100]]  # the writer's jobs cost ten events each, say
        with pytest.raises(CheckpointError, match="bit-identity verification"):
            SimulationSession.restore(None, encode_checkpoint(payload))

    def test_step_ops_of_a_build_with_processes_are_refused(
        self, small_infrastructure, workload_generator
    ):
        """Blobs written before the job path lost its processes carry no
        ``step_calendar``: their step counts included the processes' start and
        completion events, so such a blob is refused before anything replays.
        One without step ops restores as it always did."""
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(20)
        )
        for _ in range(60):
            session.step()
        payload = decode_checkpoint(session.checkpoint())
        assert payload["step_calendar"] == STEP_CALENDAR
        del payload["step_calendar"]
        with pytest.raises(CheckpointError, match="step ops counted on another build"):
            SimulationSession.restore(None, encode_checkpoint(payload))
        payload["step_calendar"] = STEP_CALENDAR - 1
        with pytest.raises(CheckpointError, match="step ops counted on another build"):
            SimulationSession.restore(None, encode_checkpoint(payload))

        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(20)
        )
        session.advance_until(300.0)
        payload = decode_checkpoint(session.checkpoint())
        del payload["step_calendar"]
        assert SimulationSession.restore(None, encode_checkpoint(payload)).now == 300.0

    def test_restored_session_is_recheckpointable(
        self, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(30)
        expected = self._reference(Simulator(small_infrastructure, execution=_quiet()), jobs)

        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(700.0)
        hop1 = SimulationSession.restore(None, session.checkpoint())
        hop1.advance_until(1400.0)
        hop2 = SimulationSession.restore(None, hop1.checkpoint())
        assert fingerprint_result(_finish(hop2)) == expected

    def test_restore_across_processes_and_hash_seeds(
        self, tmp_path, small_infrastructure, workload_generator
    ):
        """A blob written here finishes identically in fresh interpreters."""
        jobs = workload_generator.generate(25)
        expected = self._reference(
            Simulator(
                small_infrastructure,
                execution=_quiet(),
                failure_model=JobFailureModel(default_rate=0.2, seed=9),
            ),
            jobs,
        )

        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(
            small_infrastructure,
            execution=_quiet(),
            failure_model=JobFailureModel(default_rate=0.2, seed=9),
        ).session([j.copy_for_replay() for j in jobs])
        session.advance_until(1000.0)
        blob_path = tmp_path / "state.ckpt"
        blob_path.write_bytes(session.checkpoint())

        script = (
            "import sys\n"
            "from repro.core import SimulationSession\n"
            "from repro.state import fingerprint_result\n"
            "blob = open(sys.argv[1], 'rb').read()\n"
            "session = SimulationSession.restore(None, blob)\n"
            "session.advance_to_completion()\n"
            "print(fingerprint_result(session.finalize()))\n"
        )
        import os

        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_ROOT.parent)
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(blob_path)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert proc.stdout.strip() == expected, f"PYTHONHASHSEED={hash_seed}"

    def test_monitoring_muted_restore_matches_job_outcomes(
        self, small_infrastructure, workload_generator
    ):
        """Muted replay trades retained monitoring rows for speed; the
        simulated trajectory (assignments, per-job outcomes, counters) must
        still be identical."""
        jobs = workload_generator.generate(20)
        reset_job_id_counter(COUNTER_BASE)
        reference = _finish(
            Simulator(small_infrastructure, execution=_quiet()).session(
                [j.copy_for_replay() for j in jobs]
            )
        )

        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(900.0)
        restored = SimulationSession.restore(
            None, session.checkpoint(), monitoring="muted"
        )
        result = _finish(restored)
        assert sorted(result.assignments.items()) == sorted(reference.assignments.items())
        assert [(j.job_id, j.state.value, j.end_time) for j in result.jobs] == [
            (j.job_id, j.state.value, j.end_time) for j in reference.jobs
        ]
        assert result.metrics.finished_jobs == reference.metrics.finished_jobs

    def test_restore_rejects_mismatched_grid(
        self, small_infrastructure, workload_generator
    ):
        from repro.config.infrastructure import InfrastructureConfig, SiteConfig

        jobs = workload_generator.generate(10)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        session.advance_until(500.0)
        blob = session.checkpoint()
        other = InfrastructureConfig(
            sites=[SiteConfig(name="ONLY", cores=8, core_speed=1e10)]
        )
        with pytest.raises(CheckpointError, match="sites"):
            SimulationSession.restore(Simulator(other, execution=_quiet()), blob)

    def test_checkpoint_extra_round_trips(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_until(300.0)
        blob = session.checkpoint(extra={"scenario": "unit-test", "index": 3})
        payload = decode_checkpoint(blob)
        assert payload["extra"] == {"scenario": "unit-test", "index": 3}


# -- checkpoint guards -----------------------------------------------------------


class TestCheckpointGuards:
    def test_checkpoint_inside_callback_raises(
        self, small_infrastructure, workload_generator
    ):
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(15)
        )
        seen: list = []

        def grab(progress) -> None:
            with pytest.raises(CheckpointError, match="inside a running advance"):
                session.checkpoint()
            seen.append(progress.time)
            session.stop("done probing")

        session.on_progress(100.0, grab)
        session.advance_to_completion()
        assert seen

    def test_checkpoint_after_aborted_advance_raises(
        self, small_infrastructure, workload_generator
    ):
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            workload_generator.generate(15)
        )

        def boom(progress) -> None:
            raise RuntimeError("crash mid-run")

        session.on_progress(50.0, boom)
        with pytest.raises(RuntimeError):
            session.advance_to_completion()
        with pytest.raises(CheckpointError, match="not at a replayable boundary"):
            session.checkpoint()

    def test_finalized_session_cannot_checkpoint(
        self, small_infrastructure, small_jobs
    ):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        _finish(session)
        with pytest.raises(SessionError):
            session.checkpoint()


# -- fork ------------------------------------------------------------------------


def _stochastic_simulator(infrastructure) -> Simulator:
    return Simulator(
        infrastructure,
        execution=_quiet(plugin="random", plugin_options={"seed": 21}),
        failure_model=JobFailureModel(default_rate=0.25, seed=13),
    )


class TestFork:
    def test_fork_branches_diverge_and_are_deterministic(self, small_infrastructure):
        from repro.workload.generator import SyntheticWorkloadGenerator, WorkloadSpec

        # Jobs keep arriving after the fork point so every branch still has
        # plenty of stochastic dispatch decisions ahead of it.
        generator = SyntheticWorkloadGenerator(
            small_infrastructure,
            spec=WorkloadSpec(
                walltime_median=600.0, walltime_sigma=0.4, arrival_rate=0.05
            ),
            seed=7,
        )
        jobs = generator.generate(30)
        reset_job_id_counter(COUNTER_BASE)
        session = _stochastic_simulator(small_infrastructure).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(200.0)
        blob = session.checkpoint()

        def finish_branches(branches) -> list:
            results = []
            for branch in branches:
                reset_job_id_counter(COUNTER_BASE + 100_000)
                results.append(fingerprint_result(_finish(branch)))
            return results

        first = finish_branches(session.fork(3))
        assert len(set(first)) == 3, "branches must diverge under stochastic draws"

        # Replicability: restoring the same blob and forking again explores
        # exactly the same three futures.
        replay = SimulationSession.restore(None, blob)
        second = finish_branches(replay.fork(3))
        assert first == second

    def test_fork_branch_indices_are_stable(
        self, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(20)
        reset_job_id_counter(COUNTER_BASE)
        session = _stochastic_simulator(small_infrastructure).session(jobs)
        session.advance_until(600.0)
        branches = session.fork(2)
        assert [b.branch for b in branches] == [0, 1]
        assert session.branch is None

    def test_parent_remains_usable_after_fork(
        self, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(20)
        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, execution=_quiet()).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(500.0)
        session.fork(2)
        result = _finish(session)
        assert result.metrics.finished_jobs == len(jobs)

    def test_fork_branch_cannot_recheckpoint(
        self, small_infrastructure, workload_generator
    ):
        session = _stochastic_simulator(small_infrastructure).session(
            workload_generator.generate(15)
        )
        session.advance_until(400.0)
        (branch,) = session.fork(1)
        branch.advance_until(800.0)
        with pytest.raises(CheckpointError, match="fork branches"):
            branch.checkpoint()

    def test_fork_rejects_nonpositive_n(self, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        session.advance_until(100.0)
        with pytest.raises(SessionError, match="n >= 1"):
            session.fork(0)


# -- drive loop ------------------------------------------------------------------


class TestDriveWithCheckpoints:
    def test_periodic_blobs_and_latest(self, tmp_path, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(30)
        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        written = drive_with_checkpoints(session, tmp_path, every=500.0)
        assert len(written) >= 2
        assert (tmp_path / "latest.ckpt").exists()
        assert session.done
        latest = (tmp_path / "latest.ckpt").read_bytes()
        assert checkpoint_fingerprint(latest) == checkpoint_fingerprint(
            written[-1].read_bytes()
        )

    def test_resume_from_any_blob_lands_on_same_state(
        self, tmp_path, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(30)

        def fresh():
            reset_job_id_counter(COUNTER_BASE)
            return Simulator(small_infrastructure, execution=_quiet()).session(
                [j.copy_for_replay() for j in jobs]
            )

        uninterrupted = _finish(fresh())
        expected = fingerprint_result(uninterrupted)
        session = fresh()
        written = drive_with_checkpoints(session, tmp_path / "origin", every=400.0)
        assert len(written) >= 3
        result = session.finalize()
        assert result.simulated_time == uninterrupted.simulated_time
        assert fingerprint_result(result) == expected
        for index, path in enumerate(written):
            restored = SimulationSession.restore(None, path.read_bytes())
            drive_with_checkpoints(restored, tmp_path / f"resume{index}", every=170.0)
            assert fingerprint_result(restored.finalize()) == expected

    def test_until_bounds_the_drive(self, tmp_path, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(30)
        session = Simulator(small_infrastructure, execution=_quiet()).session(jobs)
        drive_with_checkpoints(session, tmp_path, every=300.0, until=900.0)
        assert session.now == pytest.approx(900.0)

    @pytest.mark.parametrize("every", [None, 7000.0, 1300.0])
    def test_legacy_deadline_runs_the_clock_to_it(
        self, tmp_path, small_infrastructure, workload_generator, every
    ):
        # The legacy max_simulation_time contract: the clock runs *to* the
        # deadline, past workload completion, chunked or not.
        jobs = workload_generator.generate(30)
        execution = _quiet(max_simulation_time=20_000.0)
        reset_job_id_counter(COUNTER_BASE)
        expected = _finish(Simulator(small_infrastructure, execution=execution).session(
            [j.copy_for_replay() for j in jobs]
        ))
        assert expected.simulated_time == 20_000.0
        reset_job_id_counter(COUNTER_BASE)
        session = Simulator(small_infrastructure, execution=execution).session(jobs)
        drive_with_checkpoints(session, tmp_path, every=every)
        assert session.done and session.now == 20_000.0
        assert fingerprint_result(session.finalize()) == fingerprint_result(expected)

    def test_honours_stop_conditions(self, tmp_path, small_infrastructure, workload_generator):
        jobs = workload_generator.generate(40)
        execution = _quiet(stop=StopConfig(max_finished_jobs=10))
        session = Simulator(small_infrastructure, execution=execution).session(jobs)
        drive_with_checkpoints(session, tmp_path, every=250.0)
        assert session.stopped_reason is not None

    def test_rejects_bad_interval(self, tmp_path, small_infrastructure, small_jobs):
        session = Simulator(small_infrastructure, execution=_quiet()).session(small_jobs)
        with pytest.raises(CheckpointError, match="positive"):
            drive_with_checkpoints(session, tmp_path, every=0.0)


# -- scenario packs --------------------------------------------------------------


class TestScenarioPackCheckpoints:
    """Acceptance: bundled packs checkpoint/restore bit-identically."""

    PACKS = ["wlcg_baseline", "fault_campaign", "cache_ablation"]

    @staticmethod
    def _load(name: str):
        import json

        from repro.scenarios.registry import BUNDLED_PACK_DIR
        from repro.scenarios.schema import ScenarioPack

        data = json.loads((BUNDLED_PACK_DIR / f"{name}.json").read_text())
        data.pop("sweep", None)  # drive the base scenario, not the grid of axes
        data.setdefault("workload", {})["jobs"] = 120  # keep the test fast
        return ScenarioPack.from_dict(data, source=BUNDLED_PACK_DIR / f"{name}.json")

    #: Run in a fresh interpreter: rebuild the pack's simulator (build hooks
    #: and all), restore the blob against it, finish, print the fingerprint.
    CHILD_SCRIPT = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from repro.core import SimulationSession\n"
        "from repro.scenarios.runner import _build_simulator\n"
        "from repro.scenarios.schema import ScenarioPack\n"
        "from repro.state import fingerprint_result\n"
        "data = json.loads(Path(sys.argv[1]).read_text())\n"
        "pack = ScenarioPack.from_dict(data, source=Path(sys.argv[2]))\n"
        "blob = Path(sys.argv[3]).read_bytes()\n"
        "session = SimulationSession.restore(lambda: _build_simulator(pack)[0], blob)\n"
        "session.advance_to_completion()\n"
        "print(fingerprint_result(session.finalize()))\n"
    )

    @pytest.mark.parametrize("pack_name", PACKS)
    def test_bundled_pack_restores_bit_identical_in_fresh_process(
        self, pack_name, tmp_path
    ):
        import json
        import os

        from repro.scenarios.registry import BUNDLED_PACK_DIR
        from repro.scenarios.runner import _build_simulator

        pack = self._load(pack_name)

        reset_job_id_counter(COUNTER_BASE)
        reference, jobs = _build_simulator(pack)
        expected = fingerprint_result(
            _finish(reference.session([j.copy_for_replay() for j in jobs]))
        )

        reset_job_id_counter(COUNTER_BASE)
        simulator, jobs = _build_simulator(pack)
        session = simulator.session([j.copy_for_replay() for j in jobs])
        session.advance_until(2000.0)
        blob_path = tmp_path / "pack.ckpt"
        blob_path.write_bytes(session.checkpoint())

        # Same trimmed pack dict the parent built its simulator from.
        data = json.loads((BUNDLED_PACK_DIR / f"{pack_name}.json").read_text())
        data.pop("sweep", None)
        data.setdefault("workload", {})["jobs"] = 120
        pack_json = tmp_path / "pack.json"
        pack_json.write_text(json.dumps(data))

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT.parent)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                self.CHILD_SCRIPT,
                str(pack_json),
                str(BUNDLED_PACK_DIR / f"{pack_name}.json"),
                str(blob_path),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


# -- RNG hygiene lint ------------------------------------------------------------


class TestRngHygiene:
    """Every stochastic component must draw from a named RngTree stream.

    The old grep-based lint lived here; the scope- and alias-aware AST
    analyzer in :mod:`repro.lint` replaced it, so these tests now assert
    *through* its determinism family.  The allow-list moved with it:
    only ``utils/rng.py`` (the generator factory) and
    ``conformance/checks.py`` (reads global RNG state to catch plugins
    that use it) are rule-level exemptions, while the deliberately
    broken ``conformance/demo.py`` plugins are absorbed by the committed
    ``lint-baseline.json`` instead -- so a baseline-free run (like
    ``cgsim conformance run --lint``) still flags them.
    """

    def test_source_tree_has_no_stray_rng_use(self):
        from repro.lint import run_lint

        report = run_lint([SRC_ROOT], rules=["determinism"])
        offenders = [finding.render() for finding in report.findings]
        assert not offenders, (
            "stochastic draws must flow through repro.utils.rng "
            "(spawn_rng / RandomSource streams):\n" + "\n".join(offenders)
        )

    def test_allowlist_matches_the_old_grep_lint(self):
        from repro.lint import DEFAULT_RNG_ALLOWLIST

        assert DEFAULT_RNG_ALLOWLIST == (
            "repro/utils/rng.py",
            "repro/conformance/checks.py",
        )

    def test_demo_plugins_are_baselined_not_allowlisted(self):
        from repro.lint import run_lint

        report = run_lint(
            [SRC_ROOT / "conformance" / "demo.py"], baseline=None
        )
        rules = sorted({finding.rule for finding in report.findings})
        assert rules == ["det-global-rng", "det-set-iter"]

    def test_rng_tree_snapshot_round_trip(self):
        source = RandomSource(99)
        gen = source.generator("stream-a")
        gen.random(5)
        state = source.snapshot()
        expected = gen.random(3).tolist()
        source.restore(state)
        assert source.generator("stream-a").random(3).tolist() == expected


class TestScopedAllocatorCheckpoint:
    """Checkpoint/restore with the per-simulator job-id allocator.

    With retry ids allocated per simulator (seeded from the workload's own
    ids), checkpoint round trips no longer need the process-global counter
    pinned at all -- fingerprints depend only on the run's inputs.
    """

    def _build(self, small_infrastructure) -> Simulator:
        from repro.faults.models import JobFailureModel

        return Simulator(
            small_infrastructure,
            execution=_quiet(plugin="random", plugin_options={"seed": 11}),
            failure_model=JobFailureModel(default_rate=0.3, seed=5),
        )

    def test_restore_without_global_counter_reset(
        self, small_infrastructure, workload_generator
    ):
        from repro.workload.job import Job

        jobs = workload_generator.generate(30)
        expected = fingerprint_result(
            _finish(self._build(small_infrastructure).session([j.copy_for_replay() for j in jobs]))
        )

        # Churn the process-global counter between every step: none of it
        # may leak into the run's retry ids any more.
        Job(work=1.0)
        session = self._build(small_infrastructure).session(
            [j.copy_for_replay() for j in jobs]
        )
        session.advance_until(1500.0)
        blob = session.checkpoint()
        for _ in range(5):
            Job(work=1.0)
        restored = SimulationSession.restore(None, blob)
        assert fingerprint_result(_finish(restored)) == expected

    def test_restore_reseats_the_simulator_allocator(
        self, small_infrastructure, workload_generator
    ):
        jobs = workload_generator.generate(20)
        session = self._build(small_infrastructure).session(
            [j.copy_for_replay() for j in jobs]
        )
        expected_base = max(int(j.job_id) for j in jobs) + 1
        assert session._simulator.job_ids.peek() >= expected_base
        blob = session.checkpoint()
        restored = SimulationSession.restore(None, blob)
        assert restored._simulator.job_ids.peek() == session._job_counter_base


class TestRestoreSessionFromBlob:
    """The cross-process resume front door (`restore_session_from_blob`)."""

    def _pack(self, sites: int = 2):
        from repro.scenarios.schema import ScenarioPack
        from repro.service.harness import tiny_pack

        return ScenarioPack.from_dict(tiny_pack(sites=sites))

    def _mid_run_blob(self, pack) -> bytes:
        from repro.scenarios.runner import _build_simulator

        reset_job_id_counter(COUNTER_BASE)
        simulator, jobs = _build_simulator(pack)
        session = simulator.session(jobs)
        session.advance_until(5000.0)
        return session.checkpoint(extra={"scenario_pack": pack.to_dict()})

    def _sequential_fingerprint(self, pack) -> str:
        from repro.scenarios.runner import _build_simulator

        reset_job_id_counter(COUNTER_BASE)
        simulator, jobs = _build_simulator(pack)
        return fingerprint_result(_finish(simulator.session(jobs)))

    def test_resume_finishes_bit_identical_to_a_straight_run(self):
        from repro.state import restore_session_from_blob

        pack = self._pack()
        expected = self._sequential_fingerprint(pack)
        blob = self._mid_run_blob(pack)
        reset_job_id_counter(COUNTER_BASE)
        session, payload = restore_session_from_blob(blob)
        assert payload["extra"]["scenario_pack"] == pack.to_dict()
        assert fingerprint_result(_finish(session)) == expected

    def test_expected_pack_guard_accepts_the_matching_pack(self):
        from repro.state import restore_session_from_blob

        pack = self._pack()
        blob = self._mid_run_blob(pack)
        reset_job_id_counter(COUNTER_BASE)
        session, _ = restore_session_from_blob(blob, expected_pack=pack.to_dict())
        assert session.now == pytest.approx(5000.0)

    def test_expected_pack_guard_rejects_a_different_pack(self):
        from repro.state import restore_session_from_blob

        blob = self._mid_run_blob(self._pack(sites=2))
        with pytest.raises(CheckpointError, match="provenance mismatch"):
            restore_session_from_blob(
                blob, expected_pack=self._pack(sites=3).to_dict()
            )

    def test_factory_helper_requires_scenario_provenance(self):
        from repro.core import Simulator
        from repro.state import session_factory_for_payload

        pack = self._pack()
        payload = decode_checkpoint(self._mid_run_blob(pack))
        factory = session_factory_for_payload(payload)
        assert factory is not None
        reset_job_id_counter(COUNTER_BASE)
        assert isinstance(factory(), Simulator)
        payload["extra"] = {}
        assert session_factory_for_payload(payload) is None

"""Seed -> scenario-pack dicts for the five stack-benchmark workloads.

Pure data: nothing here imports ``repro``.  The program under test receives
only the dicts these functions return (through ``validate_pack_dict`` /
``ScenarioPack.from_dict`` in-process, and as ``POST /v1/sessions`` bodies
through the service), so a later change cannot reach the input generation.

A workload is one *pack family* plus the sizes it is run at.  Every workload
goes through the same stages (full pipeline on the main pack, restore of it
at ``t_half``, a stream of small sessions of the same family through the
service), so every workload reports every metric; the family and the sizes
are what make each one stress the layers it is named for.

``--seed`` drives every random stream of the main pack -- workload draws,
policy streams, dataset assignment, injected failures.  Runs on different
seeds are compared with each other, so the *work* a run does must not depend
on the seed; where it did, the input is frozen instead, with the reason next
to it (``GRID_SEED``, ``SESSION_SEED``, ``_policy_stream``, ``_service_mix``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

__all__ = [
    "DEFAULT_SEED",
    "SERVICE_WORKERS",
    "SERVICE_CHECKPOINT_EVERY",
    "MEDIUM_EVERY",
    "Workload",
    "WORKLOADS",
    "derive",
    "main_pack",
    "session_shapes",
    "session_shape",
]

#: Seed of the pinned reference in ``expected.json`` and of a bare ``run.py``.
DEFAULT_SEED = 1
#: Service pool size and checkpoint cadence (simulated seconds), fixed for
#: every workload so service numbers compare across them.
SERVICE_WORKERS = 2
SERVICE_CHECKPOINT_EVERY = 10_000.0
#: Every ``MEDIUM_EVERY``-th session of a stream is the medium shape.
MEDIUM_EVERY = 12
#: Seed of the session shapes, whatever ``--seed`` is.  A worker checkpoints
#: every ``SERVICE_CHECKPOINT_EVERY`` simulated seconds, so a session costs what
#: its simulated length says, and the longest of a handful of lognormal jobs
#: swings that length several-fold with the seed: seeded sessions would move
#: the latency median by tens of percent between seeds.  The service stage is
#: fixed traffic; ``--seed`` varies the main pack.
SESSION_SEED = 7
#: Workload-spec override that makes a family's sessions short studies:
#: half-hour jobs instead of the default four-hour median.  With four-hour
#: jobs a 6-job session on the 40-site grid spans ~60 checkpoint intervals and
#: takes 0.5 s, which would leave the closed loop a dozen samples; half-hour
#: jobs keep a session at two to five intervals (at least one blob each).
SHORT_JOBS = {"walltime_median": 1800.0}
#: Seed of every synthetic grid.  A generated site has cores uniform in
#: 100-2000 and cores // 64 hosts, and a dispatch costs a sum over every host:
#: a seeded grid would move the rates by tens of percent from seed to seed.
GRID_SEED = 1


def derive(seed: int, *labels: str) -> int:
    """A 31-bit seed for one named random stream of one benchmark seed."""
    digest = hashlib.sha256("/".join((str(int(seed)),) + labels).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _replay_batch(seed: int, jobs: int, tag: str, spec: dict) -> dict:
    return {
        "name": f"replay_batch-{tag}-{jobs}",
        "grid": {"kind": "synthetic", "sites": 8, "seed": GRID_SEED},
        # No arrival_rate: the whole trace is submitted at t=0.
        "workload": {
            "generator": "synthetic",
            "jobs": jobs,
            "seed": derive(seed, "replay_batch", tag, "workload"),
            "spec": dict(spec),
        },
        "execution": {
            "plugin": "follow_trace",
            "seed": derive(seed, "replay_batch", "execution"),
            "monitoring": {"enable_events": False, "snapshot_interval": 0.0},
        },
    }


def _policy_stream(seed: int, jobs: int, tag: str, spec: dict) -> dict:
    return {
        "name": f"policy_stream-{tag}-{jobs}",
        "grid": {"kind": "wlcg", "sites": 40},
        "workload": {
            "generator": "panda",
            "jobs": jobs,
            "seed": derive(seed, "policy_stream", tag, "workload"),
            # One arrival every 50 s keeps the queues empty.  Quarter-hour
            # jobs of narrow spread, because with the default four-hour
            # lognormal ones the run's simulated length is its longest job and
            # swings twofold with the seed -- and with it the snapshot rows,
            # which are most of what this workload writes (finalize does
            # 3 % more or less work across seeds this way, not 30 %).
            "spec": {"arrival_rate": 0.02, "walltime_median": 900.0,
                     "walltime_sigma": 0.3, **spec},
        },
        "execution": {
            "plugin": "panda_dispatcher",
            "seed": derive(seed, "policy_stream", "execution"),
            "monitoring": {"enable_events": True, "snapshot_interval": 300.0},
            # Relative placeholders: the harness points them into a fresh
            # directory of its own before every run.
            "output": {"sqlite_path": "out/run.sqlite", "csv_directory": "out/csv"},
        },
    }


def _data_cache(seed: int, jobs: int, tag: str, spec: dict) -> dict:
    return {
        "name": f"data_cache-{tag}-{jobs}",
        "grid": {"kind": "wlcg", "sites": 10},
        "workload": {
            "generator": "panda",
            "jobs": jobs,
            "seed": derive(seed, "data_cache", tag, "workload"),
            "spec": dict(spec),
        },
        "execution": {
            "plugin": "data_aware",
            "seed": derive(seed, "data_cache", "execution"),
            "monitoring": {"enable_events": True, "snapshot_interval": 0.0},
        },
        "data": {
            "datasets": 200,
            "dataset_size": 10e9,
            "replication_factor": 1,
            "seed": derive(seed, "data_cache", "data"),
            "assignment": "zipf",
            "zipf_exponent": 1.2,
            "cache": {"capacity": 100e9, "policy": "lru", "replication": "static_n"},
        },
    }


def _faults_resume(seed: int, jobs: int, tag: str, spec: dict) -> dict:
    return {
        "name": f"faults_resume-{tag}-{jobs}",
        "grid": {"kind": "wlcg", "sites": 10},
        "workload": {
            "generator": "panda",
            "jobs": jobs,
            "seed": derive(seed, "faults_resume", tag, "workload"),
            "spec": dict(spec),
        },
        "execution": {
            "plugin": "least_loaded",
            "seed": derive(seed, "faults_resume", "execution"),
            "max_retries": 3,
            "monitoring": {"enable_events": True, "snapshot_interval": 0.0},
        },
        "faults": {
            "job_failures": {
                "default_rate": 0.15,
                "seed": derive(seed, "faults_resume", "faults"),
            }
        },
    }


def _service_mix(seed: int, jobs: int, tag: str, spec: dict) -> dict:
    # The shapes of repro.service.tiny_pack: two sites for the tiny
    # sessions, three for the medium one.  Fixed traffic, main pack included:
    # these packs snapshot every 300 s, so their cost follows their simulated
    # length, which is the longest of a few lognormal jobs (advance does twice
    # the work on one seed than on another).  ``--seed`` changes nothing here.
    seed = SESSION_SEED
    return {
        "name": f"service_mix-{tag}-{jobs}",
        "grid": {"kind": "synthetic", "sites": 2 if jobs < 50 else 3, "seed": GRID_SEED},
        "workload": {
            "generator": "synthetic",
            "jobs": jobs,
            "seed": derive(seed, "service_mix", tag, "workload"),
            "spec": dict(spec),
        },
        "execution": {
            "plugin": "least_loaded",
            "seed": derive(seed, "service_mix", "execution"),
        },
    }


@dataclass(frozen=True)
class Workload:
    """One pack family and the sizes it runs at.

    ``jobs`` sizes the main pack (pipeline and restore); ``session_jobs`` /
    ``medium_jobs`` size the sessions streamed through the service
    (``session_spec`` overrides their workload spec), ``burst`` is the size
    of one open burst.  ``service_boots`` > 1 makes service boot the
    workload's ``setup_s`` (booted that many times); otherwise ``setup_s`` is
    pack dict -> session parked at t=0.
    """

    name: str
    why: str
    family: Callable[[int, int, str, dict], dict]
    jobs: int
    session_jobs: int
    medium_jobs: int
    burst: int
    session_spec: Dict[str, float] = field(default_factory=lambda: dict(SHORT_JOBS))
    service_boots: int = 1


#: Frozen sizes.  Tuned on the 2-core box so that five rounds of any workload,
#: with the cold run, the freeze and the service boot before them, end within
#: ~22 s of wall time (the driver allows 30 s a run on average).
WORKLOADS: List[Workload] = [
    Workload(
        name="replay_batch",
        why="5000 jobs at t=0 on 8 synthetic sites, follow_trace, monitoring off: deep queues, so "
            "core dispatch, platform core accounting and des do the work; plugins/monitoring/data bypassed",
        family=_replay_batch,
        jobs=5000, session_jobs=40, medium_jobs=400, burst=24,
    ),
    Workload(
        name="policy_stream",
        why="1200 Poisson-arrival panda jobs on the 40-site WLCG grid, panda_dispatcher, event rows, "
            "300 s snapshots, SQLite+CSV: per-dispatch view over 40 sites, plugins, monitoring and writers",
        family=_policy_stream,
        jobs=1200, session_jobs=10, medium_jobs=40, burst=12,
    ),
    Workload(
        name="data_cache",
        why="1500 panda jobs on 10 WLCG sites, data_aware, 200 zipf 10 GB datasets in 100 GB LRU caches: "
            "puts core.data_manager, data.cache eviction and platform.network on the path others skip",
        family=_data_cache,
        jobs=1500, session_jobs=12, medium_jobs=120, burst=24,
    ),
    Workload(
        name="faults_resume",
        why="2000 panda jobs on 10 WLCG sites, least_loaded, 15 % injected failures, 3 retries, resumed "
            "at t_half: re-dispatch from completion callbacks, faults, and state freeze/replay/verify",
        family=_faults_resume,
        jobs=2000, session_jobs=20, medium_jobs=200, burst=24,
    ),
    Workload(
        name="service_mix",
        why="2-worker service fed tiny 2-site packs with every 12th a 150-job 3-site pack, closed loop "
            "and bursts: HTTP, validation, queue, supervisor IPC, spawned workers, artifact store",
        family=_service_mix,
        jobs=150, session_jobs=6, medium_jobs=150, burst=48,
        # repro.service.tiny_pack as it is: four-hour jobs, a handful of
        # blobs per tiny session, so the artifact store is on the path.
        session_spec={},
        service_boots=3,
    ),
]


def main_pack(workload: Workload, seed: int) -> dict:
    """The pack the pipeline and resume stages run."""
    return workload.family(seed, workload.jobs, "main", {})


def session_shapes(workload: Workload) -> List[dict]:
    """The two session shapes: ``[small, medium]``.

    One small shape, not two alternating ones: two shapes of different
    simulated length give the closed loop's latencies two modes, and the
    median then sits on the edge of one of them.  Small and medium results
    differ, so a mixed-up session still shows.
    """
    return [
        workload.family(SESSION_SEED, workload.session_jobs, "small", workload.session_spec),
        workload.family(SESSION_SEED, workload.medium_jobs, "medium", workload.session_spec),
    ]


def session_shape(index: int) -> int:
    """Shape of the ``index``-th session of a stream: every
    ``MEDIUM_EVERY``-th is the medium one (1), the rest are small (0), so
    simulation time is negligible in most sessions and visible in a known few.
    """
    return 1 if (index + 1) % MEDIUM_EVERY == 0 else 0

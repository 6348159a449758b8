"""The measured stages every workload goes through, and how they are sampled.

* **pipeline** -- pack dict -> validated pack -> grid/workload/wiring ->
  session parked at t=0 -> ``advance_to_completion`` -> ``finalize`` (metrics
  and any configured SQLite/CSV output) -> result fingerprint;
* **restore** -- the same pack run to ``t_half`` and frozen with
  ``session.checkpoint`` once, then brought back with
  ``restore_session_from_blob``;
* **service** -- a real ``ServiceUnderTest`` (HTTP socket, spawned workers)
  fed the workload's session shapes: one client in a closed loop, and open
  bursts.

A run is a sequence of *rounds*; every round samples each stage (pipeline
repeat, restore, closed-loop batch: as many as fit in half a second, at least
one; then one burst).  The
stages are interleaved, not run one after the other, because this box's speed
drifts in phases of several seconds (a fixed pure-Python loop reads 107 ms,
then 150-165 ms for three to ten seconds, then 107 ms again): samples of one
metric spread over the whole run meet a quiet phase, samples bunched into one
stage may all fall into a slow one.  For the same reason the value reported
for a timing is its **best** sample, not its median: the disturbance only ever
adds time.

Each layer is timed from outside, around calls into its public functions
(plus ``repro.scenarios.runner._build_simulator``, the seam ``repro.state``
and the service workers already build sessions through).  Nothing here
changes the program or reads a switch in it.
"""

from __future__ import annotations

import copy
import gc
import math
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.scenarios.runner import _build_simulator
from repro.scenarios.schema import ScenarioPack
from repro.schema.validator import validate_pack_dict
from repro.service import ServiceConfig, ServiceUnderTest
from repro.state import CheckpointError, fingerprint_result, restore_session_from_blob
from repro.workload.job import JobState, reset_job_id_counter

import workloads as wl

#: Fewest rounds a run takes however short ``--seconds`` is.
MIN_ROUNDS = 5
#: A round keeps repeating each stage until the stage has taken this many
#: seconds (at least once): packs and sessions that run in milliseconds get
#: several samples per round, so their best sample is not a matter of luck.
ROUND_STAGE_SECONDS = 0.5
SESSION_TIMEOUT = 120.0

clock = time.perf_counter


class Scratch:
    """Fresh directories under one root inside the checkout."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def fresh(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))


@dataclass
class Tally:
    """Checked operations: how many were attempted and which failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def stamped(pack: dict, scratch: Scratch) -> dict:
    """``pack`` with its output placeholders pointed into a fresh directory."""
    output = pack["execution"].get("output")
    if not output:
        return pack
    directory = scratch.fresh()
    (directory / "csv").mkdir()
    pack = copy.deepcopy(pack)
    pack["execution"]["output"] = {
        "sqlite_path": str(directory / "run.sqlite"),
        "csv_directory": str(directory / "csv"),
    }
    return pack


# -- pipeline ---------------------------------------------------------------------


def load_pack(pack_dict: dict) -> ScenarioPack:
    """Schema-validate a generated pack dict and load it."""
    errors = validate_pack_dict(pack_dict)
    if errors:
        raise ValueError(f"generated pack failed schema validation: {errors[0]}")
    return ScenarioPack.from_dict(pack_dict)


def open_session(pack_dict: dict):
    """Pack dict -> session parked at t=0; returns ``(pack, session, spans)``.

    ``spans`` are the wall seconds of validate + load, build (grid, workload,
    wiring) and ``Simulator.session``.  The job-id counter is reset first:
    generated job ids come from a process-global counter, and fingerprints
    drift between repeats without it.
    """
    reset_job_id_counter(1)
    t0 = clock()
    pack = load_pack(pack_dict)
    t1 = clock()
    simulator, jobs = _build_simulator(pack)
    t2 = clock()
    session = simulator.session(jobs)
    t3 = clock()
    return pack, session, (t1 - t0, t2 - t1, t3 - t2)


@dataclass
class Repeat:
    """Wall seconds of one pipeline repeat, and what it produced."""

    setup_s: float
    advance_s: float
    output_s: float
    fingerprint_s: float
    fingerprint: str
    #: What ``expected.json`` pins: the simulated statistics of the run.
    reference: Dict[str, object]
    conserved: bool
    result: object = None

    @property
    def total_s(self) -> float:
        return self.setup_s + self.advance_s + self.output_s + self.fingerprint_s


def conserved(result, jobs: int) -> bool:
    """Job conservation: every attempt terminal, every original job accounted for."""
    terminal = [
        job for job in result.jobs if job.state in (JobState.FINISHED, JobState.FAILED)
    ]
    originals = {int(job.attributes.get("retry_of", job.job_id)) for job in terminal}
    metrics = result.metrics
    return (
        len(terminal) == len(result.jobs) == metrics.finished_jobs + metrics.failed_jobs
        and len(originals) == jobs
    )


def pipeline(pack_dict: dict, keep_result: bool = False) -> Repeat:
    """One closed run of ``pack_dict`` through the whole stack."""
    pack, session, spans = open_session(pack_dict)
    t0 = clock()
    session.advance_to_completion()
    t1 = clock()
    result = session.finalize()
    t2 = clock()
    fingerprint = fingerprint_result(result)
    t3 = clock()
    return Repeat(
        setup_s=sum(spans),
        advance_s=t1 - t0,
        output_s=t2 - t1,
        fingerprint_s=t3 - t2,
        fingerprint=fingerprint,
        reference={
            "fingerprint": fingerprint,
            "makespan": result.metrics.makespan,
            "finished_jobs": result.metrics.finished_jobs,
            "failed_jobs": result.metrics.failed_jobs,
            "attempts": len(result.jobs),
        },
        conserved=conserved(result, pack.workload.jobs),
        result=result if keep_result else None,
    )


# -- restore ----------------------------------------------------------------------


def half_time(result) -> float:
    """Simulated time at which half of a finished run's attempts were terminal."""
    ends = sorted(job.end_time for job in result.jobs if job.end_time is not None)
    return ends[len(ends) // 2]


@dataclass
class Frozen:
    """A run paused at ``t_half`` and its checkpoint blob."""

    t_half: float
    checkpoint_s: float
    blob: bytes
    canonical: dict
    tail_s: float
    #: The paused session itself (the traced run probes it, then drops it).
    session: object


def restore(frozen: Frozen, tally: Tally):
    """One ``restore_session_from_blob`` of the frozen run; ``(session, seconds)``.

    A restore replays the op log and bit-verifies every component itself; a
    divergence is a ``CheckpointError`` and counts as a failed operation.
    """
    gc.collect()
    reset_job_id_counter(1)
    started = clock()
    try:
        session, _ = restore_session_from_blob(frozen.blob, expected_pack=frozen.canonical)
    except CheckpointError as exc:
        tally.check(False, f"restore at t_half diverged: {exc}")
        return None, clock() - started
    seconds = clock() - started
    tally.check(True, "restore")
    return session, seconds


def freeze_at_half(pack_dict: dict, cold: Repeat, scratch: Scratch, tally: Tally) -> Frozen:
    """Run to ``t_half`` of the cold run, checkpoint, and prove the blob good.

    The proof: one restored session is driven to the end and its result
    fingerprint must equal the cold run's.
    """
    t_half = half_time(cold.result)
    pack, session, _ = open_session(stamped(pack_dict, scratch))
    canonical = pack.to_dict()
    session.advance_until(t_half)
    started = clock()
    blob = session.checkpoint(extra={"scenario_pack": canonical})
    frozen = Frozen(t_half, clock() - started, blob, canonical, 0.0, session)
    restored, _ = restore(frozen, tally)
    if restored is not None:
        started = clock()
        restored.advance_to_completion()
        frozen.tail_s = clock() - started
        fingerprint = fingerprint_result(restored.finalize())
        tally.check(
            fingerprint == cold.fingerprint,
            f"restored run {fingerprint[:12]} != cold run {cold.fingerprint[:12]}",
        )
    return frozen


# -- service ----------------------------------------------------------------------


def boot_service(store_root: Path):
    """Start a service and wait until its workers are idle; ``(sut, seconds)``."""
    started = clock()
    sut = ServiceUnderTest(
        ServiceConfig(
            workers=wl.SERVICE_WORKERS,
            checkpoint_every=wl.SERVICE_CHECKPOINT_EVERY,
            store_root=str(store_root),
        ),
        timeout=SESSION_TIMEOUT,
    )
    sut.start()
    try:
        sut.wait_idle_workers(wl.SERVICE_WORKERS)
    except BaseException:
        sut.close(drain=False)
        raise
    return sut, clock() - started


@dataclass
class Session:
    """One session seen from the client: its shape and wall seconds."""

    shape: int
    submit_s: float
    total_s: float
    checkpoints: int


class Service:
    """A booted service and the workload's session traffic through it.

    The expected fingerprint of each shape is the plain in-process sequential
    run of the same pack.
    """

    def __init__(self, workload: wl.Workload, scratch: Scratch, tally: Tally) -> None:
        self.scratch = scratch
        self.tally = tally
        self.burst_size = workload.burst
        self.shapes = wl.session_shapes(workload)
        self.expected = [pipeline(stamped(shape, scratch)).fingerprint for shape in self.shapes]
        self.sut, seconds = boot_service(scratch.fresh())
        self.boot_s: List[float] = [seconds]
        self.client = self.sut.client

    def close(self) -> None:
        self.sut.close()

    def boot_another(self) -> None:
        """Boot a second instance to idle and shut it down again (timed)."""
        sut, seconds = boot_service(self.scratch.fresh())
        sut.close()
        self.boot_s.append(seconds)

    def _check(self, final: dict, shape: int) -> None:
        self.tally.check(
            final.get("state") == "done" and final.get("fingerprint") == self.expected[shape],
            f"session {final.get('id')}: state {final.get('state')!r}, or its fingerprint "
            "differs from the in-process run of the same pack",
        )

    def closed_batch(self) -> List[Session]:
        """One client, one session at a time: ``MEDIUM_EVERY`` sessions."""
        batch = []
        for index in range(wl.MEDIUM_EVERY):
            shape = wl.session_shape(index)
            pack = stamped(self.shapes[shape], self.scratch)
            t0 = clock()
            view = self.client.submit(pack)
            t1 = clock()
            final = self.client.wait(view["id"], "terminal", timeout=SESSION_TIMEOUT)
            t2 = clock()
            self._check(final, shape)
            batch.append(Session(shape, t1 - t0, t2 - t0, int(final.get("checkpoints") or 0)))
        return batch

    def burst(self) -> float:
        """Submit ``burst_size`` sessions back to back, wait for all; sessions/s."""
        stream = [wl.session_shape(index) for index in range(self.burst_size)]
        packs = [stamped(self.shapes[shape], self.scratch) for shape in stream]
        started = clock()
        views = [self.client.submit(pack) for pack in packs]
        finals = [
            self.client.wait(view["id"], "terminal", timeout=SESSION_TIMEOUT) for view in views
        ]
        elapsed = clock() - started
        for shape, final in zip(stream, finals):
            self._check(final, shape)
        return self.burst_size / elapsed


# -- a run ------------------------------------------------------------------------


@dataclass
class Round:
    """One sample of every stage -- several of the quick ones."""

    repeats: List[Repeat]
    restore_s: List[float]
    batches: List[List[Session]]
    burst_rate: float


@dataclass
class EndToEnd:
    """Everything an untraced run measured."""

    cold: Repeat
    rounds: List[Round]
    boot_s: List[float]
    rss_mb: float
    tally: Tally


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has reaped, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_end_to_end(workload: wl.Workload, seed: int, seconds: float,
                       scratch: Scratch) -> EndToEnd:
    """Rounds of one workload with tracing off, for ``seconds`` seconds.

    Before the rounds: one cold run (the discarded warm-up, and the reference
    every later fingerprint is compared with), the freeze at ``t_half``, and
    the service boot.  GC stays on, as in a user's run, with a full
    collection before each timed repeat so one repeat's garbage is not billed
    to the next.
    """
    deadline = clock() + seconds
    tally = Tally()
    pack = wl.main_pack(workload, seed)
    cold = pipeline(stamped(pack, scratch), keep_result=True)
    tally.check(cold.conserved, "job conservation broken in the cold run")
    frozen = freeze_at_half(pack, cold, scratch, tally)
    frozen.session = None
    cold.result = None
    service = Service(workload, scratch, tally)
    rounds: List[Round] = []
    try:
        started = clock()
        while len(rounds) < MIN_ROUNDS or clock() + (clock() - started) / len(rounds) <= deadline:
            repeats: List[Repeat] = []
            until = clock() + ROUND_STAGE_SECONDS
            while not repeats or clock() < until:
                gc.collect()
                repeat = pipeline(stamped(pack, scratch))
                tally.check(
                    repeat.fingerprint == cold.fingerprint and repeat.conserved,
                    f"round {len(rounds)}: fingerprint {repeat.fingerprint[:12]} differs from "
                    f"its siblings ({cold.fingerprint[:12]}) or job conservation broken",
                )
                repeats.append(repeat)
            restores: List[float] = []
            until = clock() + ROUND_STAGE_SECONDS
            while not restores or clock() < until:
                restores.append(restore(frozen, tally)[1])
            if len(service.boot_s) < workload.service_boots:
                service.boot_another()
            batches: List[List[Session]] = []
            until = clock() + ROUND_STAGE_SECONDS
            while not batches or clock() < until:
                batches.append(service.closed_batch())
            rounds.append(Round(repeats, restores, batches, service.burst()))
    finally:
        service.close()
    return EndToEnd(cold, rounds, service.boot_s, peak_rss_mb(), tally)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Extremes, median and quartiles of a sample (for the printed report)."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "min": values[0],
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "max": values[-1],
    }


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def batch_p50(batch: Sequence[Session]) -> float:
    """Median submit -> terminal latency of one closed-loop batch, seconds."""
    return statistics.median(session.total_s for session in batch)


def end_to_end_samples(workload: wl.Workload, run: EndToEnd) -> Dict[str, List[float]]:
    """Per-round samples behind each end-to-end metric."""
    repeats = [repeat for r in run.rounds for repeat in r.repeats]
    return {
        "setup_s": (
            run.boot_s if workload.service_boots > 1 else [r.setup_s for r in repeats]
        ),
        "advance_s": [r.advance_s for r in repeats],
        "total_s": [r.total_s for r in repeats],
        "output_s": [r.output_s for r in repeats],
        "restore_s": [seconds for r in run.rounds for seconds in r.restore_s],
        "burst_sessions_per_s": [r.burst_rate for r in run.rounds],
        "batch_p50_s": [batch_p50(batch) for r in run.rounds for batch in r.batches],
    }


def end_to_end_metrics(workload: wl.Workload, run: EndToEnd) -> Dict[str, Dict[str, object]]:
    """The declared end-to-end metrics of one untraced run: best samples."""
    samples = end_to_end_samples(workload, run)
    jobs = workload.jobs
    return {
        "setup_s": {"value": min(samples["setup_s"]), "unit": "s"},
        "sim_jobs_per_s": {"value": jobs / min(samples["advance_s"]), "unit": "jobs/s"},
        "run_jobs_per_s": {"value": jobs / min(samples["total_s"]), "unit": "jobs/s"},
        "output_s": {"value": min(samples["output_s"]), "unit": "s"},
        "restore_s": {"value": min(samples["restore_s"]), "unit": "s"},
        "service_sessions_per_s": {
            "value": max(samples["burst_sessions_per_s"]), "unit": "sessions/s",
        },
        "service_p50_ms": {"value": min(samples["batch_p50_s"]) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": run.rss_mb, "unit": "MB"},
    }

"""Worker-process side of the simulation service.

:func:`worker_main` is the entry point every pool process runs (spawned by
:mod:`repro.service.supervisor`): block on the command pipe for work, drive
each assigned scenario pack through a :class:`~repro.core.session
.SimulationSession` in checkpoint-sized chunks, and report events (progress,
checkpoint digests, results, errors) on the event pipe.

The chunks come from :func:`repro.state.advance_in_chunks`, the loop the CLI
drives too -- chunking changes where the clock pauses, never what happens --
so a study is simulated once and its final
:func:`~repro.state.fingerprint_result` is bit-identical to an uninterrupted
``repro scenario run`` of the same pack, whether the study ran in one piece,
was paused and resumed on another worker, or was SIGKILLed mid-run and
recovered from its latest blob.  At each pause the worker polls its command
pipe, which is what makes running sessions pausable and stoppable without
threads inside the simulation.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import Any, Dict, Optional

from repro.service.store import ArtifactStore

__all__ = ["worker_main", "DEFAULT_CHECKPOINT_EVERY"]

#: Default chunk length (simulated seconds) between checkpoints when neither
#: the submit request nor the server configuration chose one.
DEFAULT_CHECKPOINT_EVERY = 3600.0


def worker_main(worker_id: int, cmd_conn, event_conn, store_root: str) -> None:
    """Run one pool worker: an event loop over the command pipe.

    Commands are dicts with a ``cmd`` key: ``run`` (a job assignment:
    pack dict, checkpoint cadence, optional resume digest), ``stop`` /
    ``pause`` (only meaningful mid-run; stale ones for finished jobs are
    ignored), and ``shutdown``.  Every outbound event carries the worker id
    and the session id it concerns.  The function returns (exiting the
    process) on ``shutdown`` or when the command pipe closes.
    """
    # A foreground `cgsim serve` shares its process group with the pool, so
    # a terminal Ctrl-C would SIGINT every worker mid-recv.  The supervisor
    # owns worker lifetime (shutdown commands, then SIGTERM escalation);
    # ignore SIGINT here exactly like multiprocessing.Pool workers do.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = ArtifactStore(store_root)
    # "Online" means ready to run: import the session path now, so the first
    # session after a boot or a respawn does not pay for it.
    import repro.scenarios.runner  # noqa: F401
    import repro.state  # noqa: F401

    _send(event_conn, {"type": "worker-online", "worker": worker_id, "pid": os.getpid()})
    while True:
        try:
            msg = cmd_conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg.get("cmd")
        if cmd == "shutdown":
            break
        if cmd != "run":
            continue  # stale pause/stop for a job that already ended
        outcome = _run_job(worker_id, msg["job"], cmd_conn, event_conn, store)
        if outcome == "shutdown":
            break
        _send(event_conn, {"type": "idle", "worker": worker_id})


def _send(conn, event: Dict[str, Any]) -> None:
    """Best-effort event send; a vanished parent ends the worker, not the job."""
    try:
        conn.send(event)
    except (BrokenPipeError, OSError):
        os._exit(0)


def _run_job(worker_id: int, job: Dict[str, Any], cmd_conn, event_conn, store) -> str:
    """Drive one assigned study; returns ``"done"``/``"yielded"``/``"shutdown"``."""
    from repro.scenarios.schema import ScenarioPack
    from repro.state import advance_in_chunks, fingerprint_result

    session_id = str(job["id"])

    def emit(kind: str, **payload: Any) -> None:
        _send(
            event_conn,
            {"type": kind, "worker": worker_id, "session": session_id, **payload},
        )

    try:
        pack = ScenarioPack.from_dict(job["pack"])
        canonical = pack.to_dict()
        every = float(job.get("checkpoint_every") or DEFAULT_CHECKPOINT_EVERY)
        _reset_job_ids()
        session = _open_session(store, job.get("resume"), pack, canonical)
    except Exception as exc:  # noqa: BLE001 - the pool must survive bad jobs
        emit("job-error", error=f"{type(exc).__name__}: {exc}",
             detail=traceback.format_exc()[-2000:])
        return "done"

    emit(
        "started",
        pid=os.getpid(),
        attempt=int(job.get("attempt", 1)),
        resumed_from=job.get("resume"),
        time=session.now,
    )
    provenance = {"scenario_pack": canonical, "service_session": session_id}
    last_checkpoint: Dict[str, Any] = {"time": None, "digest": job.get("resume")}

    def checkpoint_now() -> Optional[str]:
        # Skip duplicate blobs of an unchanged clock (mirrors the driver's
        # same-time guard); the previous digest keeps pointing at the state.
        if last_checkpoint["time"] == session.now and last_checkpoint["digest"]:
            return last_checkpoint["digest"]
        digest = store.put(session.checkpoint(extra=provenance))
        store.set_latest(session_id, digest)
        last_checkpoint["time"] = session.now
        last_checkpoint["digest"] = digest
        emit("checkpoint", digest=digest, time=session.now)
        return digest

    def emit_progress() -> None:
        progress = session.progress()
        metrics = session.peek_metrics()
        emit(
            "progress",
            time=progress.time,
            total_jobs=progress.total_jobs,
            completed_jobs=progress.completed_jobs,
            finished_jobs=progress.finished_jobs,
            failed_jobs=progress.failed_jobs,
            pending_jobs=progress.pending_jobs,
            metrics={
                "finished_jobs": metrics.finished_jobs,
                "failed_jobs": metrics.failed_jobs,
                "makespan": metrics.makespan,
                "mean_queue_time": metrics.mean_queue_time,
                "throughput": metrics.throughput,
            },
        )

    def obey_commands() -> Optional[str]:
        """Act on a pending control command; an outcome means the job yields."""
        action = _poll_command(cmd_conn, session_id)
        if action == "stop":
            session.stop("stopped by service client")  # ends the chunk loop
        elif action in ("pause", "shutdown"):
            emit("yielded", digest=checkpoint_now(), time=session.now)
            return "yielded" if action == "pause" else "shutdown"
        return None

    try:
        pauses = advance_in_chunks(session, every)
        while True:
            outcome = obey_commands()
            if outcome is not None:
                return outcome
            if next(pauses, None) is None:  # ran the last chunk: the run is over
                break
            checkpoint_now()
            emit_progress()
        result = session.finalize()
    except Exception as exc:  # noqa: BLE001 - record the failure, keep the pool
        session.simulator._close_live_sinks()
        emit("job-error", error=f"{type(exc).__name__}: {exc}",
             detail=traceback.format_exc()[-2000:])
        return "done"

    from repro.scenarios.runner import _data_extras, _reliability_extras

    extras: Dict[str, float] = {}
    if pack.faults is not None or pack.execution.max_retries:
        extras.update(_reliability_extras(session.jobs, result))
    if pack.data is not None:
        extras.update(_data_extras(session.simulator))
    emit(
        "result",
        fingerprint=fingerprint_result(result),
        simulated_time=result.simulated_time,
        stopped_reason=result.stopped_reason,
        metrics=result.metrics.to_dict(),
        extras=extras,
    )
    return "done"


def _reset_job_ids() -> None:
    """Pin the process-global job-id counter to a fresh process's base.

    Auto-assigned job ids draw from a module-global counter, so the second
    study built in a long-lived worker process would otherwise get shifted
    ids -- and a shifted fingerprint.  Resetting to 1 before every build
    and every checkpoint replay makes a worker's Nth study bit-identical
    to the same pack run in a fresh ``repro scenario run`` process.
    """
    from repro.workload.job import reset_job_id_counter

    reset_job_id_counter(1)


def _open_session(store: ArtifactStore, resume: Optional[str], pack, canonical: dict):
    """Build the job's session: cold from the pack, or resumed from a blob.

    Resume goes through :func:`repro.state.restore_session_from_blob` with
    the pack's canonical dict as the expected provenance -- a digest
    pointing at a blob from a different pack is a hard error, never a
    silent wrong-study replay.
    """
    if resume:
        from repro.state import restore_session_from_blob

        session, _ = restore_session_from_blob(
            store.get(resume), expected_pack=canonical
        )
        return session
    from repro.scenarios.runner import _build_simulator

    simulator, jobs = _build_simulator(pack)
    return simulator.session(jobs)


def _poll_command(cmd_conn, session_id: str) -> Optional[str]:
    """Non-blocking check for a control command addressed to this job."""
    while True:
        try:
            if not cmd_conn.poll():
                return None
            msg = cmd_conn.recv()
        except (EOFError, OSError):
            return "shutdown"
        cmd = msg.get("cmd")
        if cmd == "shutdown":
            return "shutdown"
        if cmd in ("pause", "stop") and msg.get("session") == session_id:
            return cmd
        # Anything else is stale (for a previous job) -- drop and re-poll.

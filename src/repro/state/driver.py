"""Drive a session to completion while writing periodic checkpoints.

:func:`advance_in_chunks` is the one chunk loop of the code base -- ``repro
run --checkpoint-every``, ``repro resume``, ``repro scenario run
--checkpoint-dir`` (through :func:`drive_with_checkpoints`, which freezes a
blob at every pause and leaves ``latest.ckpt`` pointing at the newest state)
and the service workers (which put the blob in their store) all run it, so a
crashed or killed study resumes from its last pause instead of cold.

The chunking changes *where the clock pauses*, never what happens: every
chunk is an :meth:`~repro.core.session.SimulationSession
.advance_to_completion` that pauses at the chunk boundary, so the run ends
on the workload's last event (or its stop condition, simulated-time budget
or legacy ``execution.max_simulation_time`` deadline) with the result of one
uninterrupted call, for any cadence -- and can be resumed from any of its
blobs, at any other cadence, and still land there
(``tests/test_chunked_equivalence.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.utils.errors import CheckpointError

__all__ = [
    "advance_in_chunks",
    "drive_with_checkpoints",
    "session_factory_for_payload",
    "restore_session_from_blob",
]


def session_factory_for_payload(payload: dict):
    """Simulator factory rebuilt from a blob's embedded scenario provenance.

    Checkpoints written by scenario runs stamp the pack's canonical dict
    (and source path) into the blob's ``extra``; this helper turns that
    provenance back into a zero-argument factory that rebuilds the
    simulator through the scenario runner -- re-registering the pack's
    build hooks (replica placement), which the embedded-config restore
    path cannot reconstruct.  Returns ``None`` for blobs without scenario
    provenance (``SimulationSession.restore`` then uses the embedded
    simulator configuration).
    """
    extra = payload.get("extra") or {}
    if not (isinstance(extra, dict) and extra.get("scenario_pack")):
        return None
    from repro.scenarios.runner import _build_simulator
    from repro.scenarios.schema import ScenarioPack

    source = extra.get("scenario_source")
    pack = ScenarioPack.from_dict(
        extra["scenario_pack"], source=Path(source) if source else None
    )

    def factory():
        return _build_simulator(pack)[0]

    return factory


def restore_session_from_blob(
    blob: bytes,
    *,
    monitoring: str = "replay",
    expected_pack: Optional[dict] = None,
) -> Tuple[object, dict]:
    """Resume a checkpoint blob in *this* process, wherever it was written.

    The cross-process/cross-host resume front door shared by ``cgsim
    resume`` and the service workers: decode the blob, rebuild a simulator
    factory from its embedded scenario-pack provenance when present
    (:func:`session_factory_for_payload`), and hand both to
    :meth:`~repro.core.session.SimulationSession.restore`, which replays
    and bit-verifies the state.  Returns ``(session, payload)`` -- the
    payload gives callers access to ``extra`` provenance without decoding
    twice.

    ``expected_pack`` guards against resuming the wrong study: when given,
    the blob's embedded pack dict must equal it exactly (overrides
    included) or :class:`~repro.utils.errors.CheckpointError` is raised
    instead of silently replaying a different run.
    """
    from repro.core.session import SimulationSession
    from repro.state.checkpoint import decode_checkpoint

    payload = decode_checkpoint(blob)
    if expected_pack is not None:
        extra = payload.get("extra") or {}
        if extra.get("scenario_pack") != expected_pack:
            raise CheckpointError(
                "checkpoint provenance mismatch: the blob was written by a "
                "different scenario pack (or different overrides) than the "
                "one being resumed; refusing to replay it"
            )
    factory = session_factory_for_payload(payload)
    session = SimulationSession.restore(factory, blob, monitoring=monitoring)
    return session, payload


def advance_in_chunks(session, every: float) -> Iterator[float]:
    """Advance ``session`` to the end of its run, yielding at every pause.

    Each chunk is ``advance_to_completion(pause_at=now + every)``; the
    generator yields the clock at each pause -- the caller checkpoints,
    reports progress, or stops/abandons the session there -- and returns
    once the run is over: the workload completed (clock on its last event),
    the session stopped, or the clock reached the legacy
    ``execution.max_simulation_time`` deadline.  The end of the run is not
    a pause and is not yielded.
    """
    legacy_deadline = session.simulator.execution.max_simulation_time
    while True:
        session.advance_to_completion(pause_at=session.now + every)
        ended = session.done if legacy_deadline is None else session.now >= legacy_deadline
        if ended or session.stopped_reason is not None:
            return
        yield session.now


def drive_with_checkpoints(
    session,
    directory,
    every: Optional[float] = None,
    until: Optional[float] = None,
    extra: Optional[dict] = None,
) -> List[Path]:
    """Advance ``session``, checkpointing into ``directory``; return blob paths.

    ``every`` is the chunk length in simulated seconds: the session advances
    in chunks of that size and a blob (``checkpoint_t<time>.ckpt`` plus an
    always-current ``latest.ckpt``) is written at each pause and at the end.
    With ``every`` omitted, the run advances in one go and a single blob
    freezes the final state.  ``until`` bounds the advance at an absolute
    simulated time (the CLI's ``--until``: the clock parks on it); otherwise
    the session runs to workload completion exactly as one
    ``advance_to_completion()`` would, honoring stop conditions and the
    legacy ``max_simulation_time`` deadline.  ``extra`` is stored verbatim in
    every blob (scenario-pack provenance).
    """
    if every is not None and every <= 0:
        raise CheckpointError(f"checkpoint interval must be positive, got {every}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    last_time = [None]

    def write() -> None:
        if last_time[0] == session.now:
            return
        blob = session.checkpoint(extra=extra)
        path = directory / f"checkpoint_t{int(session.now):012d}.ckpt"
        path.write_bytes(blob)
        (directory / "latest.ckpt").write_bytes(blob)
        written.append(path)
        last_time[0] = session.now

    if until is not None:
        target = float(until)
        if every is None:
            session.advance_until(target)
        else:
            while session.stopped_reason is None and session.now < target:
                session.advance_until(min(session.now + every, target))
                write()
    elif every is None:
        session.advance_to_completion()
    else:
        for _ in advance_in_chunks(session, every):
            write()
    write()
    return written

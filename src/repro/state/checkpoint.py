"""Checkpoint blob encoding: versioned, compressed session state.

A checkpoint is a self-contained byte string: a magic/version header
followed by a zlib-compressed pickle of the session payload (inputs, job
waves, the lifecycle op log, RNG states, component verification snapshots
and -- when picklable -- the simulator configuration itself, so ``repro
resume`` can rebuild the run without any factory).  The format is
deliberately replay-based: generator frames and calendar buckets are never
serialised; a restore re-executes the recorded ops and verifies the result
bit-identical against the embedded snapshots.

Format (version 1)::

    bytes 0..3   magic  b"RPCK"
    byte  4      format version (currently 1)
    bytes 5..    zlib-compressed pickle (protocol 4) of the payload dict

Version bumps are append-only: a reader refuses blobs with an unknown
version instead of guessing, and :func:`checkpoint_fingerprint` gives every
blob a stable content address (used to derive fork-branch RNG seeds).
"""

from __future__ import annotations

import hashlib
import pickle
import zlib

from repro.utils.errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "encode_checkpoint",
    "decode_checkpoint",
    "checkpoint_fingerprint",
    "payload_fingerprint",
    "fingerprint_result",
]

#: First four bytes of every checkpoint blob ("RePro ChecKpoint").
CHECKPOINT_MAGIC = b"RPCK"

#: Current blob format version (byte 5 of the header).
CHECKPOINT_VERSION = 1


def encode_checkpoint(payload: dict) -> bytes:
    """Serialise a checkpoint payload dict into a versioned, compressed blob.

    The payload is pickled (protocol 4) and zlib-compressed behind the
    ``RPCK`` magic/version header.  Raises
    :class:`~repro.utils.errors.CheckpointError` when the payload contains
    something unpicklable (e.g. a live generator or an open file handle
    smuggled into ``extra``), naming the offending exception.
    """
    try:
        body = pickle.dumps(payload, protocol=4)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload is not picklable: {exc}") from exc
    return CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + zlib.compress(body, 6)


def decode_checkpoint(blob: bytes) -> dict:
    """Decode a blob produced by :func:`encode_checkpoint` back into its payload.

    Validates the magic, the version byte and the compressed body before
    unpickling; any mismatch (truncation, corruption, a future format
    version, a non-checkpoint file) raises
    :class:`~repro.utils.errors.CheckpointError` with a reason instead of a
    bare pickle/zlib traceback.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError(
            f"checkpoint blob must be bytes, got {type(blob).__name__}"
        )
    blob = bytes(blob)
    if len(blob) < 6 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint blob (bad magic header)")
    version = blob[4]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        body = zlib.decompress(blob[5:])
    except zlib.error as exc:
        raise CheckpointError(f"corrupt checkpoint blob: {exc}") from exc
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError("corrupt checkpoint payload: not a mapping")
    return payload


def checkpoint_fingerprint(blob: bytes) -> str:
    """Stable sha256 hex digest of a checkpoint's simulation state.

    Hashes a canonical JSON document of the payload's replay-relevant
    fields (simulated time, job-id counter base, op log, component
    snapshots, site names) rather than the raw pickle bytes: pickle output
    depends on string-interning/memoization accidents, so two checkpoints
    of the *same simulation state* -- e.g. one taken before a restore and
    one taken after the replayed session caught up -- hash identically here
    even when their blobs differ byte-for-byte.  Fork uses this digest as
    the root material for deriving per-branch RNG seeds: every fork of the
    same state explores the same branch futures, which is what makes
    branches replicable.
    """
    return payload_fingerprint(decode_checkpoint(blob))


def payload_fingerprint(payload: dict) -> str:
    """:func:`checkpoint_fingerprint` of an already decoded (or not yet
    encoded) payload: the same digest, without decoding the blob again."""
    import json

    document = {
        "time": payload.get("time"),
        "job_counter": payload.get("job_counter"),
        "ops": payload.get("ops"),
        "components": payload.get("components"),
        "site_names": payload.get("site_names"),
    }
    encoded = json.dumps(document, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def fingerprint_result(result) -> str:
    """Sha256 hex digest of a :class:`~repro.core.SimulationResult`'s outputs.

    Canonicalises the headline metrics, the dispatch decisions and every
    job's terminal record (id, state, end time, assigned site) into a stable
    JSON document and hashes it.  Two runs with this fingerprint equal are
    bit-identical at the level users observe; the checkpoint test-suite and
    ``repro resume`` both report it.
    """
    import json

    from repro.state.protocol import canonical_state

    document = {
        "metrics": canonical_state(result.metrics.to_dict()),
        "assignments": sorted(
            (int(job_id), site) for job_id, site in result.assignments.items()
        ),
        "jobs": sorted(
            (
                int(job.job_id),
                job.state.value,
                job.end_time,
                job.assigned_site,
                job.start_time,
            )
            for job in result.jobs
        ),
        "simulated_time": result.simulated_time,
        "stopped_reason": result.stopped_reason,
    }
    encoded = json.dumps(document, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()

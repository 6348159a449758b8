"""Snapshottable simulation state: checkpoint, restore and fork.

This package is the state layer of the reproduction: it defines the
:class:`Snapshottable` protocol every stateful component implements
(kernel clock, core actors, data subsystem, monitoring counters, RNG tree,
policies), the versioned compressed blob format session checkpoints are
stored in, and the canonicalization/diff helpers replay verification is
built on.

The design is *deterministic replay*, not frame serialisation: a DES run's
live state sits in Python generator frames and calendar buckets that cannot
be pickled meaningfully, so a checkpoint instead records the run's
**inputs** (pristine job waves, the lifecycle op log, RNG bit-generator
states, the simulator configuration) plus per-component verification
snapshots.  ``SimulationSession.restore`` rebuilds the simulator, re-executes
the op log with monitoring sinks detached, and verifies the resulting state
bit-identical against the snapshots -- divergence raises
:class:`~repro.utils.errors.CheckpointError` instead of silently resuming a
different run.  ``session.fork(n)`` layers branching what-if exploration on
top: n restores of one blob, each with per-branch RNG streams derived from
the blob's content fingerprint.

See ``docs/checkpoints.md`` for the user-facing walkthrough.
"""

from repro.state.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    checkpoint_fingerprint,
    decode_checkpoint,
    encode_checkpoint,
    fingerprint_result,
)
from repro.state.driver import (
    advance_in_chunks,
    drive_with_checkpoints,
    restore_session_from_blob,
    session_factory_for_payload,
)
from repro.state.protocol import Snapshottable, canonical_state, diff_states
from repro.utils.errors import CheckpointError, SessionError

__all__ = [
    "Snapshottable",
    "canonical_state",
    "diff_states",
    "encode_checkpoint",
    "decode_checkpoint",
    "checkpoint_fingerprint",
    "fingerprint_result",
    "advance_in_chunks",
    "drive_with_checkpoints",
    "session_factory_for_payload",
    "restore_session_from_blob",
    "CheckpointError",
    "SessionError",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

"""Simulation-as-a-service: the multi-tenant session server layer.

This package turns the reproduction's scenario runner into a long-lived
service: an asyncio HTTP + WebSocket server (:mod:`repro.service.server`)
accepts scenario-pack submissions, validates them against the published
JSON Schema, queues them with strict-priority / FIFO-within-priority
ordering (:mod:`repro.service.queue`) and executes them on a bounded pool
of spawned worker processes (:mod:`repro.service.supervisor` /
:mod:`repro.service.workers`).  Workers drive each study through the
checkpoint loop of :mod:`repro.state`, writing periodic blobs into a
content-addressed :class:`ArtifactStore` -- so a SIGKILLed worker's study
resumes from its latest checkpoint on another worker with a bit-identical
final :func:`~repro.state.fingerprint_result`, and a paused session can
resume on a different process, or a different host sharing the store.

Clients consume it through :class:`ServiceClient` (blocking REST + WS
watch; ``cgsim serve`` / ``cgsim client`` wrap it on the command line),
and tests boot the whole stack in-process through
:class:`ServiceUnderTest` -- real sockets, real worker processes, zero
sleeps.  Every wire document is a dataclass in
:mod:`repro.service.models` whose JSON Schema is generated from the class
itself; ``docs/service.md`` embeds the generated WebSocket message
reference.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import ServiceClient
    from repro.service.harness import ServiceUnderTest, tiny_pack
    from repro.service.models import (
        SESSION_STATES,
        WS_MESSAGE_TYPES,
        CheckpointMessage,
        ErrorMessage,
        ProgressMessage,
        ResultMessage,
        ServiceError,
        SessionView,
        StateMessage,
        SubmitRequest,
        WsMessage,
        parse_ws_message,
        ws_message_reference,
    )
    from repro.service.queue import JobQueue, JobRecord
    from repro.service.server import ServiceConfig, ServiceServer
    from repro.service.store import ArtifactError, ArtifactStore
    from repro.service.supervisor import WorkerSupervisor

__all__ = [
    "ServiceServer",
    "ServiceConfig",
    "ServiceClient",
    "ServiceUnderTest",
    "tiny_pack",
    "ServiceError",
    "SubmitRequest",
    "SessionView",
    "WsMessage",
    "StateMessage",
    "ProgressMessage",
    "CheckpointMessage",
    "ResultMessage",
    "ErrorMessage",
    "parse_ws_message",
    "ws_message_reference",
    "WS_MESSAGE_TYPES",
    "SESSION_STATES",
    "JobQueue",
    "JobRecord",
    "WorkerSupervisor",
    "ArtifactStore",
    "ArtifactError",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.service.client": ("ServiceClient",),
    "repro.service.harness": ("ServiceUnderTest", "tiny_pack"),
    "repro.service.models": (
        "SESSION_STATES",
        "WS_MESSAGE_TYPES",
        "CheckpointMessage",
        "ErrorMessage",
        "ProgressMessage",
        "ResultMessage",
        "ServiceError",
        "SessionView",
        "StateMessage",
        "SubmitRequest",
        "WsMessage",
        "parse_ws_message",
        "ws_message_reference",
    ),
    "repro.service.queue": ("JobQueue", "JobRecord"),
    "repro.service.server": ("ServiceConfig", "ServiceServer"),
    "repro.service.store": ("ArtifactError", "ArtifactStore"),
    "repro.service.supervisor": ("WorkerSupervisor",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

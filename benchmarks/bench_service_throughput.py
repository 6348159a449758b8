"""Throughput of the multi-tenant session server (repro.service).

Boots a real service -- HTTP socket, two spawned worker processes -- and
pushes a burst of tiny scenario packs through it, measuring end-to-end
session throughput (submit -> queue -> worker -> checkpointed run ->
result) rather than raw simulation speed.  Correctness is asserted
alongside the timing: every session's result fingerprint must equal the
fingerprint of an uninterrupted in-process run of the same pack, which
makes this bench a standing large-N regression for the service's
bit-identity contract (50 concurrent submissions at full scale).

Sizes scale with ``CGSIM_BENCH_SCALE``.  The committed service numbers
(BENCH_service.json) come from ``benchmarks/stack``, which measures the same
path on five pack families.
"""

from __future__ import annotations

import time

from repro.experiments.bench import scaled
from repro.service import ServiceConfig, ServiceUnderTest, tiny_pack
from repro.state import fingerprint_result
from repro.workload.job import reset_job_id_counter

#: Sessions pushed through the pool (50 at full scale, floored to keep the
#: queue meaningfully deeper than the pool at smoke scale).
N_SESSIONS = scaled(50, minimum=6)
N_WORKERS = 2
#: Checkpoint cadence in simulated seconds; a tiny pack runs ~45k simulated
#: seconds, so every session writes a handful of blobs.
CHECKPOINT_EVERY = 10_000.0


def _sequential_fingerprint(pack: dict) -> str:
    from repro.scenarios.runner import _build_simulator
    from repro.scenarios.schema import ScenarioPack

    reset_job_id_counter(1)
    simulator, jobs = _build_simulator(ScenarioPack.from_dict(pack))
    session = simulator.session(jobs)
    session.advance_to_completion()
    return fingerprint_result(session.finalize())


def test_service_session_throughput(record_result):
    # Two pack shapes alternate so adjacent sessions are not byte-identical
    # work (their fingerprints differ, which also catches cross-session
    # result mix-ups).
    shapes = [tiny_pack("bench-a"), tiny_pack("bench-b", jobs=5, seed=11)]
    expected = [_sequential_fingerprint(pack) for pack in shapes]
    assert expected[0] != expected[1]

    with ServiceUnderTest(
        ServiceConfig(workers=N_WORKERS, checkpoint_every=CHECKPOINT_EVERY)
    ) as sut:
        sut.wait_idle_workers(N_WORKERS)
        client = sut.client
        started = time.perf_counter()
        views = [
            client.submit(shapes[i % len(shapes)]) for i in range(N_SESSIONS)
        ]
        finals = [
            client.wait(view["id"], "terminal", timeout=300.0) for view in views
        ]
        elapsed = time.perf_counter() - started
        checkpoint_blobs = len(sut.server.store.digests())

    mismatches = [
        (final["id"], final["state"], final["fingerprint"])
        for i, final in enumerate(finals)
        if final["state"] != "done"
        or final["fingerprint"] != expected[i % len(shapes)]
    ]
    assert not mismatches, f"sessions diverged from the sequential run: {mismatches}"

    throughput = N_SESSIONS / elapsed
    record_result(
        "service_throughput",
        {
            "sessions": N_SESSIONS,
            "workers": N_WORKERS,
            "wall_seconds": elapsed,
            "sessions_per_second": throughput,
            "checkpoint_blobs": checkpoint_blobs,
            "bit_identical": True,
        },
    )
    print(
        f"\nservice throughput: {N_SESSIONS} sessions / {elapsed:.2f}s "
        f"= {throughput:.2f} sessions/s on {N_WORKERS} workers "
        f"({checkpoint_blobs} checkpoint blobs)"
    )

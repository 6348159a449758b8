"""Ablation: raw throughput of the discrete-event kernel.

DESIGN.md substitutes SimGrid's C++ discrete-event engine with the pure-Python
generator-coroutine kernel in :mod:`repro.des`.  The absolute event rate is
obviously far below SimGrid's, but it bounds how large a grid the reproduction
can simulate within a time budget, so it is measured explicitly:

* timeout churn: many short processes yielding timeouts (the pattern job
  executions produce);
* resource contention: many processes competing for a small core pool (the
  pattern site admission produces);
* store ping-pong: producer/consumer pairs over a Store (the pattern the
  sender/receiver actors produce).

Workloads, sizes and the ``CGSIM_BENCH_SCALE`` knob come from :func:`repro.experiments.bench.kernel_workloads`
-- the same source the ``repro bench`` CLI subcommand measures -- scaled by
``CGSIM_BENCH_SCALE`` so the CI smoke job can run them at minimal sizes.
Before/after event rates of the kernel overhaul are recorded in
``BENCH_kernel.json`` at the repo root.  There is nothing to assert against
the paper here beyond "the kernel processes events at a usable rate"; the
numbers feed the scalability discussion in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import (
    BENCH_SCALE,
    grid_end_to_end,
    kernel_workloads,
    scaled,
)

#: name -> (fn, args, events) at the ambient benchmark scale.
WORKLOADS = {name: (fn, args, events) for name, fn, args, events in kernel_workloads(BENCH_SCALE)}

#: The end-to-end workload is a million jobs at full scale (the throughput
#: trajectory's headline case); CGSIM_BENCH_SCALE shrinks it like the rest.
E2E_JOBS = scaled(1_000_000, minimum=200)


@pytest.mark.benchmark(group="des-kernel")
def test_benchmark_timeout_churn(benchmark):
    """~50k timeout events through the calendar (at full scale)."""
    fn, args, _events = WORKLOADS["timeout_churn"]
    outcome = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
    assert outcome.final_time > 0


@pytest.mark.benchmark(group="des-kernel")
def test_benchmark_resource_contention(benchmark):
    """2,000 workers x 5 acquisitions over a 64-slot pool (at full scale)."""
    fn, args, _events = WORKLOADS["resource_contention"]
    outcome = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
    assert outcome.count == args[0]


@pytest.mark.benchmark(group="des-kernel")
def test_benchmark_store_pingpong(benchmark):
    """500 producer/consumer pairs exchanging 40 messages each (at full scale)."""
    fn, args, _events = WORKLOADS["store_pingpong"]
    outcome = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
    assert outcome.count == args[0] * args[1]


@pytest.mark.benchmark(group="des-e2e")
def test_benchmark_e2e_million_jobs(benchmark):
    """A million-job batch through the full component stack (at full scale)."""
    outcome = benchmark.pedantic(
        grid_end_to_end, args=(E2E_JOBS,), rounds=1, iterations=1
    )
    assert outcome.count == E2E_JOBS

"""Kernel micro-benchmarks: raw event throughput of the DES engine.

The micro-workloads mirror the hot patterns the simulation core produces --
timeout churn (job executions), resource contention (site admission) and
store ping-pong (sender/receiver messaging); :func:`grid_end_to_end`
measures the full component stack on a synthetic grid.  They are shared
between the pytest benchmark harness (``benchmarks/bench_des_engine.py``)
and the ``repro bench`` CLI subcommand, which measures events/second and can
dump a cProfile summary of where a run spends its time.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Tuple

from repro.des import Environment, Resource, Store

__all__ = [
    "BENCH_SCALE",
    "WorkloadOutcome",
    "KernelBenchResult",
    "scaled",
    "timeout_churn",
    "resource_contention",
    "store_pingpong",
    "grid_end_to_end",
    "kernel_workloads",
    "run_kernel_benchmarks",
    "profile_callable",
    "profile_flat",
]

#: Ambient size multiplier for benchmark workloads; the CI smoke job sets
#: CGSIM_BENCH_SCALE=0.05 so every benchmark executes (imports and APIs
#: can't rot) without the cost of a full-size run.
BENCH_SCALE = float(os.environ.get("CGSIM_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1, scale: float = BENCH_SCALE) -> int:
    """Scale a benchmark size (floored at ``minimum``)."""
    return max(minimum, int(round(n * scale)))


class WorkloadOutcome(NamedTuple):
    """What one workload run produced: a completion count and the final clock.

    Both are asserted by the regression tests
    (``tests/test_des_kernel_regression.py``) to be bit-identical to the
    pre-overhaul kernel's values.
    """

    count: int
    final_time: float


def timeout_churn(process_count: int, hops: int) -> WorkloadOutcome:
    """Spawn processes that each sleep ``hops`` times."""
    env = Environment()

    def sleeper(delay: float):
        for _ in range(hops):
            yield env.timeout(delay)

    for index in range(process_count):
        env.process(sleeper(1.0 + (index % 7) * 0.1))
    env.run()
    return WorkloadOutcome(process_count, env.now)


def resource_contention(process_count: int, capacity: int) -> WorkloadOutcome:
    """Processes repeatedly acquire/release a shared core pool."""
    env = Environment()
    pool = Resource(env, capacity=capacity)
    completed = []

    def worker(index: int):
        for _ in range(5):
            request = pool.request()
            yield request
            yield env.timeout(1.0)
            pool.release(request)
        completed.append(index)

    for index in range(process_count):
        env.process(worker(index))
    env.run()
    return WorkloadOutcome(len(completed), env.now)


def store_pingpong(pairs: int, messages: int) -> WorkloadOutcome:
    """Producer/consumer pairs exchanging messages through stores."""
    env = Environment()
    received = []

    def producer(store: Store):
        for index in range(messages):
            store.put(index)
            yield env.timeout(0.5)

    def consumer(store: Store):
        for _ in range(messages):
            item = yield store.get()
            received.append(item)

    for _ in range(pairs):
        store = Store(env)
        env.process(producer(store))
        env.process(consumer(store))
    env.run()
    return WorkloadOutcome(len(received), env.now)


def grid_end_to_end(job_count: int, sites: int = 8) -> WorkloadOutcome:
    """One full simulator run: synthetic workload on a synthetic grid.

    The end-to-end counterpart of the kernel micro-workloads -- job release,
    dispatch, admission, execution and completion all exercise the engine
    through the real component stack.  Monitoring is muted (the throughput
    of the *engine* is what is being measured).  The outcome counts finished
    jobs, so rates derived from it read as jobs/second.
    """
    from repro.config.execution import ExecutionConfig, MonitoringConfig
    from repro.config.generators import generate_grid
    from repro.core.simulator import Simulator
    from repro.workload.generator import SyntheticWorkloadGenerator

    infrastructure, topology = generate_grid(sites, seed=1)
    jobs = SyntheticWorkloadGenerator(infrastructure, seed=2).generate(job_count)
    execution = ExecutionConfig(
        plugin="follow_trace",
        monitoring=MonitoringConfig(enable_events=False, snapshot_interval=0.0),
    )
    result = Simulator(infrastructure, topology, execution).run(jobs)
    return WorkloadOutcome(result.metrics.finished_jobs, result.metrics.makespan)


@dataclass
class KernelBenchResult:
    """Measured throughput of one DES-kernel benchmark workload.

    One row of the ``repro bench`` table: the workload's name, how many
    events it processed, the best wall-clock seconds over the repeats, and
    the derived events/second rate (:attr:`events_per_s`).  Obtain them from
    :func:`run_kernel_benchmarks`, e.g.
    ``run_kernel_benchmarks(scale=0.01, repeat=1)[0].events_per_s > 0``.
    """

    workload: str
    events: int
    seconds: float
    events_per_second: float
    check: float

    def to_row(self) -> dict:
        """Flatten for table rendering / JSON export."""
        return {
            "workload": self.workload,
            "events": self.events,
            "seconds": self.seconds,
            "events_per_s": self.events_per_second,
        }


def kernel_workloads(scale: float = 1.0) -> List[Tuple[str, Callable, Tuple, int]]:
    """The standard kernel workloads as ``(name, fn, args, events)`` tuples.

    Single source of truth for the base sizes and the scaling formula --
    the pytest benchmark harness derives its cases from here too, so the
    CLI and the CI smoke job always measure the same workloads.
    """
    processes, hops = scaled(1000, scale=scale), scaled(50, minimum=2, scale=scale)
    workers, pool = scaled(2000, scale=scale), scaled(64, scale=scale)
    pairs, messages = scaled(500, scale=scale), scaled(40, minimum=2, scale=scale)
    return [
        ("timeout_churn", timeout_churn, (processes, hops), processes * hops),
        # Each acquisition is a request + a timeout event.
        ("resource_contention", resource_contention, (workers, pool), workers * 5 * 2),
        # Each message is a put + a get event.
        ("store_pingpong", store_pingpong, (pairs, messages), pairs * messages * 2),
    ]


def run_kernel_benchmarks(scale: float = 1.0, repeat: int = 3) -> List[KernelBenchResult]:
    """Measure all three workloads, keeping the best of ``repeat`` runs."""
    results = []
    for name, fn, args, events in kernel_workloads(scale):
        best = None
        check = 0.0
        for _ in range(max(1, repeat)):
            started = time.perf_counter()
            check = fn(*args).final_time
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
        results.append(
            KernelBenchResult(
                workload=name,
                events=events,
                seconds=best,
                events_per_second=events / best if best > 0 else float("inf"),
                check=check,
            )
        )
    return results


#: Sort orders the profiling helpers accept (cProfile's own keys).
PROFILE_SORTS = ("cumulative", "tottime")


def _profile(fn: Callable[[], object]) -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    return profiler


def _check_sort(sort: str) -> str:
    if sort not in PROFILE_SORTS:
        raise ValueError(f"sort must be one of {PROFILE_SORTS}, got {sort!r}")
    return sort


def profile_callable(fn: Callable[[], object], top: int = 20, sort: str = "cumulative") -> str:
    """Run ``fn`` under cProfile; return the top-``top`` functions by ``sort``."""
    stream = io.StringIO()
    stats = pstats.Stats(_profile(fn), stream=stream)
    stats.sort_stats(_check_sort(sort)).print_stats(top)
    return stream.getvalue()


def profile_flat(
    fn: Callable[[], object], top: int = 20, sort: str = "cumulative"
) -> List[dict]:
    """Run ``fn`` under cProfile; return the flat profile as structured rows.

    Each row carries ``function`` (``file:line(name)``), call counts and the
    tottime/cumtime seconds -- the machine-readable counterpart of
    :func:`profile_callable`, used by ``repro bench --profile --json``.
    """
    stats = pstats.Stats(_profile(fn))
    stats.sort_stats(_check_sort(sort))
    rows: List[dict] = []
    for func in (stats.fcn_list or [])[:top]:
        primitive_calls, total_calls, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": int(total_calls),
                "primitive_calls": int(primitive_calls),
                "tottime": float(tottime),
                "cumtime": float(cumtime),
            }
        )
    return rows

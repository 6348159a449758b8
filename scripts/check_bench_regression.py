#!/usr/bin/env python
"""Bench-regression gate: fail CI when kernel throughput drops >20%.

Runs the standard DES kernel workloads (:func:`repro.experiments.bench.run_kernel_benchmarks`),
records the measured events/second into ``benchmarks/results/``, and compares
against the committed baseline: any workload slower than 80% of its baseline
rate fails.  Raw event rates are machine-dependent, so this check only runs
when the current machine matches the baseline's recorded CPU count;
otherwise it is skipped with a note (the usual case on CI runners, whose
core counts differ from the dev box that recorded the baseline).

The *stack* is protected by three ratios that do not depend on the machine,
each measured here at fixed sizes against ``timeout_churn`` microseconds per
event from the same run, and each held under a ceiling committed in the
baseline file: ``grid_end_to_end`` microseconds per job (the simulation;
``follow_trace``, monitoring off, so the policy reads one site), microseconds
per job of a monitored 40-site ``panda_dispatcher`` run (what a dispatch
costs), and microseconds per row of a synthetic
monitored run written to CSV and SQLite through the output sinks (the output
layer).  The *service* is protected by a fourth: the wall time of one session
through ``repro.service.workers._run_job`` (in-process, pipe stubs, a
temporary artifact store) over the plain run of the same pack -- what serving
a session costs on top of simulating it.  A fifth holds site-count scaling
(paper Fig. 4(b)): microseconds per job of a 160-site ``panda_dispatcher`` run
over those of a 10-site one, same jobs per site, both from the same run.  A
sixth holds recovery: one ``restore_session_from_blob`` of a ``replay_batch``
run frozen at the time half its jobs had ended by, over that run's cold setup
and advance.  A seventh holds workload generation: microseconds per job of
``SyntheticWorkloadGenerator.generate`` on a fixed 8-site grid over
``timeout_churn`` microseconds per event.  They run on every machine.

Usage::

    python scripts/check_bench_regression.py [--scale 0.05] [--repeat 2]
    python scripts/check_bench_regression.py --write-baseline   # re-baseline

Re-baseline (and commit ``benchmarks/results/baseline.json``) after any
intentional kernel change that shifts throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
BASELINE_PATH = RESULTS_DIR / "baseline.json"
LATEST_PATH = RESULTS_DIR / "bench_latest.json"

#: Fractional throughput drop that fails the absolute gate.
MAX_DROP = 0.20
#: Fixed sizes of the end-to-end ratio gate (independent of ``--scale``, so
#: the committed ceiling means the same thing on every run).
E2E_JOBS = 2000
CHURN_ARGS = (1000, 50)
#: Fixed shape of the dispatch gate's run, the ``policy_stream`` workload of
#: ``benchmarks/stack``: ``(WLCG sites, Poisson panda jobs)``.
DISPATCH_SHAPE = (40, 1000)
#: Fixed shape of the output gate's synthetic run: ``(events, snapshot ticks,
#: sites, jobs)`` -- snapshot-heavy, like a monitored 40-site run.
OUTPUT_SHAPE = (4000, 200, 40, 1000)
#: Fixed pack of the served gate, the small ``replay_batch`` session shape of
#: ``benchmarks/stack``: 8 synthetic sites, 40 half-hour jobs at t=0,
#: ``follow_trace``, monitoring off; and the worker's checkpoint cadence.
SERVED_PACK = {
    "name": "served-gate",
    "grid": {"kind": "synthetic", "sites": 8, "seed": 1},
    "workload": {"generator": "synthetic", "jobs": 40, "seed": 7,
                 "spec": {"walltime_median": 1800.0}},
    "execution": {"plugin": "follow_trace", "seed": 7,
                  "monitoring": {"enable_events": False, "snapshot_interval": 0.0}},
}
SERVED_CHECKPOINT_EVERY = 10_000.0
#: Fixed shape of the site-scaling gate: ``(small grid, wide grid, jobs a site)``
#: in the ``bench_fig4b`` set-up -- a ``generate_grid`` of 100-2 000-core sites
#: (seed 0), synthetic two-hour jobs submitted per site, event rows on, no
#: snapshots -- under ``panda_dispatcher``, whose dispatch reads the sites in
#: backlog order.
SITES_SHAPE = (10, 160, 100)
#: A session takes milliseconds: each of the ``--repeat`` samples is the best
#: of this many back-to-back runs.
SERVED_RUNS = 5
#: Fixed pack of the restore gate, the ``replay_batch`` shape of
#: ``benchmarks/stack`` at gate scale: 8 synthetic sites, 2 000 jobs at t=0,
#: ``follow_trace``, monitoring off.
RESTORE_PACK = {
    "name": "restore-gate",
    "grid": {"kind": "synthetic", "sites": 8, "seed": 1},
    "workload": {"generator": "synthetic", "jobs": 2000, "seed": 7},
    "execution": {"plugin": "follow_trace", "seed": 7,
                  "monitoring": {"enable_events": False, "snapshot_interval": 0.0}},
}
#: Each of the ``--repeat`` samples of the restore gate is the best of this
#: many cold runs and restores, interleaved.
RESTORE_RUNS = 3
#: Fixed shape of the generation gate, the ``replay_batch`` workload of
#: ``benchmarks/stack``: ``(synthetic sites, jobs)``, default spec, all at t=0.
GENERATE_SHAPE = (8, 5000)
#: Headroom ``--write-baseline`` puts between a measured ratio and its ceiling.
RATIO_HEADROOM = 0.35
#: The ratio gates: measurement key -> (ceiling key, what got slower).
RATIO_GATES = {
    "e2e_ratio": ("e2e_ratio_ceiling", "the stack got slower relative to the kernel"),
    "dispatch_ratio": (
        "dispatch_ratio_ceiling",
        "a dispatch over 40 sites got slower relative to the kernel",
    ),
    "output_ratio": (
        "output_ratio_ceiling",
        "the output layer got slower relative to the kernel",
    ),
    "served_ratio": (
        "served_ratio_ceiling",
        "serving a session got slower relative to simulating it",
    ),
    "sites_ratio": (
        "sites_ratio_ceiling",
        "a job got dearer with the number of sites (a dispatch reads more of them)",
    ),
    "restore_ratio": (
        "restore_ratio_ceiling",
        "a restore at t_half got dearer relative to the cold run",
    ),
    "generate_ratio": (
        "generate_ratio_ceiling",
        "generating a job got slower relative to the kernel",
    ),
}


def served_runs():
    """The served gate's two calls: the plain run of ``SERVED_PACK`` and the
    same pack through ``workers._run_job``; each returns the result fingerprint."""
    from repro.scenarios.runner import _build_simulator
    from repro.scenarios.schema import ScenarioPack
    from repro.service import workers
    from repro.service.store import ArtifactStore
    from repro.state import fingerprint_result
    from repro.workload.job import reset_job_id_counter

    class Pipe(list):
        """Both pipe ends of a worker: no command ever arrives, events pile up."""

        send = list.append

        def poll(self) -> bool:
            return False

    def plain() -> str:
        reset_job_id_counter(1)
        simulator, jobs = _build_simulator(ScenarioPack.from_dict(SERVED_PACK))
        return fingerprint_result(simulator.session(jobs).advance_to_completion().finalize())

    def served(store_root: str) -> str:
        pipe = Pipe()
        job = {"id": "gate", "pack": SERVED_PACK, "checkpoint_every": SERVED_CHECKPOINT_EVERY}
        workers._run_job(0, job, pipe, pipe, ArtifactStore(store_root))
        if pipe[-1]["type"] != "result":
            raise RuntimeError(f"served run ended with {pipe[-1]}")
        return pipe[-1]["fingerprint"]

    return plain, served


def restore_runs():
    """The restore gate's two calls on ``RESTORE_PACK``: the cold run (build,
    session, advance to completion; it returns the session) and one restore
    of the blob frozen at the time half the cold run's jobs had ended by (it
    returns the restored session, paused there)."""
    from repro.scenarios.runner import _build_simulator
    from repro.scenarios.schema import ScenarioPack
    from repro.state import restore_session_from_blob
    from repro.workload.job import reset_job_id_counter

    pack = ScenarioPack.from_dict(RESTORE_PACK)
    canonical = pack.to_dict()

    def open_session():
        reset_job_id_counter(1)
        simulator, jobs = _build_simulator(pack)
        return simulator.session(jobs)

    def cold():
        return open_session().advance_to_completion()

    ends = sorted(job.end_time for job in cold().finalize().jobs)
    frozen = open_session().advance_until(ends[len(ends) // 2])
    blob = frozen.checkpoint(extra={"scenario_pack": canonical})

    def restore():
        return restore_session_from_blob(blob, expected_pack=canonical)[0]

    return cold, restore


def dispatch_run():
    """The inputs of the dispatch gate's run, and the call that runs them once.

    The ``policy_stream`` shape: ``panda_dispatcher`` places every job over 40
    sites, event rows and 300 s snapshots are recorded, nothing is written.
    """
    from repro.atlas import PandaWorkloadModel, wlcg_grid
    from repro.config.execution import ExecutionConfig, MonitoringConfig
    from repro.core.simulator import Simulator
    from repro.workload.generator import WorkloadSpec

    sites, job_count = DISPATCH_SHAPE
    infrastructure, topology = wlcg_grid(site_count=sites)
    spec = WorkloadSpec(arrival_rate=0.02, walltime_median=900.0, walltime_sigma=0.3)
    jobs = PandaWorkloadModel(infrastructure, spec=spec, seed=2).generate_trace(job_count)
    execution = ExecutionConfig(
        plugin="panda_dispatcher",
        monitoring=MonitoringConfig(enable_events=True, snapshot_interval=300.0),
    )

    def run() -> None:
        result = Simulator(infrastructure, topology, execution).run(
            [job.copy_for_replay() for job in jobs]
        )
        if result.metrics.finished_jobs != job_count:
            raise RuntimeError(f"dispatch run finished {result.metrics.finished_jobs} jobs")

    return run


def sites_runs():
    """The site-scaling gate's two calls, the small and the wide grid of
    ``SITES_SHAPE``: each simulates its jobs once (generated here, copied per run)."""
    from repro.config.execution import ExecutionConfig, MonitoringConfig
    from repro.config.generators import generate_grid
    from repro.core.simulator import Simulator
    from repro.workload.generator import SyntheticWorkloadGenerator, WorkloadSpec

    *grids, per_site = SITES_SHAPE
    execution = ExecutionConfig(
        plugin="panda_dispatcher",
        monitoring=MonitoringConfig(enable_events=True, snapshot_interval=0.0),
    )

    def grid_run(site_count: int):
        infrastructure, topology = generate_grid(
            site_count, seed=0, min_cores=100, max_cores=2000
        )
        spec = WorkloadSpec(walltime_median=2 * 3600.0)
        jobs = SyntheticWorkloadGenerator(infrastructure, spec=spec, seed=0).generate_per_site(
            per_site
        )

        def run() -> None:
            result = Simulator(infrastructure, topology, execution).run(
                [job.copy_for_replay() for job in jobs]
            )
            if result.metrics.finished_jobs != len(jobs):
                raise RuntimeError(f"{site_count}-site run finished {result.metrics.finished_jobs} jobs")

        return run

    return [grid_run(site_count) for site_count in grids]


def generate_run():
    """The generation gate's call: draws the ``GENERATE_SHAPE`` workload once."""
    from repro.config.generators import generate_grid
    from repro.workload.generator import SyntheticWorkloadGenerator

    sites, job_count = GENERATE_SHAPE
    infrastructure, _ = generate_grid(sites, seed=1)

    def run() -> None:
        jobs = SyntheticWorkloadGenerator(infrastructure, seed=7).generate(job_count)
        if len(jobs) != job_count:
            raise RuntimeError(f"generation drew {len(jobs)} of {job_count} jobs")

    return run


def synthetic_run():
    """A finished monitored run of ``OUTPUT_SHAPE``: ``(collector, jobs)``."""
    from repro.monitoring import MonitoringCollector, SiteSnapshot
    from repro.workload.job import Job, JobState

    events, ticks, sites, job_count = OUTPUT_SHAPE
    names = [f"SITE_{index:03d}" for index in range(sites)]
    jobs = [
        Job(work=1e12 + index, cores=1 + index % 8, job_id=index + 1, submission_time=index * 0.5)
        for index in range(job_count)
    ]
    for index, job in enumerate(jobs):
        job.advance(JobState.ASSIGNED, index * 0.5, site=names[index % sites])
        job.advance(JobState.RUNNING, index * 0.5 + 1.0)
        job.advance(JobState.FINISHED, index * 0.5 + 900.0)
    collector = MonitoringCollector()
    states = (JobState.ASSIGNED, JobState.RUNNING, JobState.FINISHED)
    for index in range(events):
        collector.record_transition(
            jobs[index % job_count], states[index % 3], index * 1.25, site=names[index % sites],
            available_cores=index % 600, pending_jobs=index % 7, assigned_jobs=index % 11,
        )
    for tick in range(1, ticks + 1):
        collector.record_snapshots([
            SiteSnapshot(
                time=300.0 * tick, site=name, total_cores=600, available_cores=(tick * 7) % 601,
                running_jobs=tick % 50, queued_jobs=tick % 5, pending_jobs=tick % 3,
                finished_jobs=tick, failed_jobs=tick % 2,
            )
            for name in names
        ])
    return collector, jobs


def write_outputs(collector, jobs, directory: Path) -> int:
    """Write the run to ``directory`` as ``Simulator._write_outputs`` does; rows written."""
    from repro.monitoring import CSVSink, SQLiteStore
    from repro.monitoring.events import snapshot_row

    snapshots = list(map(snapshot_row, collector.snapshots))
    for sink in (SQLiteStore(directory / "run.sqlite"), CSVSink(directory / "csv")):
        sink.write_batch(collector.events.rows())
        sink.write_snapshots(snapshots)
        sink.write_jobs(jobs)
        sink.close()
    return len(collector.events) + len(snapshots) + len(jobs)


def measure_ratios(repeat: int) -> dict:
    """Stack and dispatch us/job and output us/row over kernel us/event, the
    served session over the plain one, wide-grid us/job over small-grid
    us/job, a restore at t_half over the cold run, and generation us/job over
    kernel us/event: best of ``repeat`` interleaved runs."""
    import gc

    from repro.experiments.bench import grid_end_to_end, timeout_churn
    from repro.state import fingerprint_result

    def seconds(fn, *args) -> float:
        started = time.perf_counter()
        fn(*args)
        return time.perf_counter() - started

    collector, jobs = synthetic_run()
    dispatch = dispatch_run()
    plain, served = served_runs()
    small, wide = sites_runs()
    cold, restore = restore_runs()
    generate = generate_run()
    rows = 0
    job_s = dispatch_s = row_s = event_s = plain_s = served_s = float("inf")
    small_s = wide_s = cold_s = restore_s = generate_s = float("inf")
    for _ in range(max(1, repeat)):
        job_s = min(job_s, seconds(grid_end_to_end, E2E_JOBS))
        dispatch_s = min(dispatch_s, seconds(dispatch))
        small_s = min(small_s, seconds(small))
        wide_s = min(wide_s, seconds(wide))
        with tempfile.TemporaryDirectory() as directory:
            started = time.perf_counter()
            rows = write_outputs(collector, jobs, Path(directory))
            row_s = min(row_s, time.perf_counter() - started)
        event_s = min(event_s, seconds(timeout_churn, *CHURN_ARGS))
        generate_s = min(generate_s, seconds(generate))
        with tempfile.TemporaryDirectory() as directory:
            for _ in range(SERVED_RUNS):
                plain_s = min(plain_s, seconds(plain))
                served_s = min(served_s, seconds(served, directory))
            if served(directory) != plain():
                raise RuntimeError("served fingerprint differs from the plain run's")
        for _ in range(RESTORE_RUNS):
            gc.collect()
            cold_s = min(cold_s, seconds(cold))
            gc.collect()
            restore_s = min(restore_s, seconds(restore))
    restored = restore().advance_to_completion().finalize()
    if fingerprint_result(restored) != fingerprint_result(cold().finalize()):
        raise RuntimeError("the restored run's fingerprint differs from the cold run's")
    us_per_job = job_s / E2E_JOBS * 1e6
    us_per_dispatch = dispatch_s / DISPATCH_SHAPE[1] * 1e6
    us_per_row = row_s / rows * 1e6
    us_per_event = event_s / (CHURN_ARGS[0] * CHURN_ARGS[1]) * 1e6
    small_sites, wide_sites, per_site = SITES_SHAPE
    us_small = small_s / (small_sites * per_site) * 1e6
    us_wide = wide_s / (wide_sites * per_site) * 1e6
    us_generate = generate_s / GENERATE_SHAPE[1] * 1e6
    return {
        "e2e_ratio": {
            "jobs": E2E_JOBS,
            "us_per_job": round(us_per_job, 2),
            "us_per_event": round(us_per_event, 4),
            "ratio": round(us_per_job / us_per_event, 1),
        },
        "dispatch_ratio": {
            "jobs": DISPATCH_SHAPE[1],
            "us_per_job": round(us_per_dispatch, 2),
            "us_per_event": round(us_per_event, 4),
            "ratio": round(us_per_dispatch / us_per_event, 1),
        },
        "output_ratio": {
            "rows": rows,
            "us_per_row": round(us_per_row, 2),
            "us_per_event": round(us_per_event, 4),
            "ratio": round(us_per_row / us_per_event, 2),
        },
        "served_ratio": {
            "jobs": SERVED_PACK["workload"]["jobs"],
            "plain_ms": round(plain_s * 1e3, 3),
            "served_ms": round(served_s * 1e3, 3),
            "ratio": round(served_s / plain_s, 2),
        },
        "sites_ratio": {
            "sites": [small_sites, wide_sites],
            "jobs_per_site": per_site,
            "us_per_job": [round(us_small, 2), round(us_wide, 2)],
            "ratio": round(us_wide / us_small, 2),
        },
        "restore_ratio": {
            "jobs": RESTORE_PACK["workload"]["jobs"],
            "cold_ms": round(cold_s * 1e3, 2),
            "restore_ms": round(restore_s * 1e3, 2),
            "ratio": round(restore_s / cold_s, 2),
        },
        "generate_ratio": {
            "jobs": GENERATE_SHAPE[1],
            "us_per_job": round(us_generate, 2),
            "us_per_event": round(us_per_event, 4),
            "ratio": round(us_generate / us_per_event, 1),
        },
    }


def measure(scale: float, repeat: int) -> dict:
    """Run the kernel workloads; return a recordable measurement payload."""
    from repro.experiments.bench import run_kernel_benchmarks

    results = run_kernel_benchmarks(scale=scale, repeat=repeat)
    return {
        "scale": scale,
        "repeat": repeat,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rates": {r.workload: round(r.events_per_second, 1) for r in results},
        "checks": {r.workload: r.check for r in results},
        **measure_ratios(repeat),
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def compare(current: dict, baseline: dict) -> int:
    failures = []
    notes = []
    rates = current["rates"]

    # Absolute gate, only on hardware comparable to the baseline.
    if baseline.get("cpu_count") != current["cpu_count"]:
        notes.append(
            f"absolute gate skipped: baseline recorded on {baseline.get('cpu_count')} CPU(s), "
            f"this machine has {current['cpu_count']} (rates not comparable)"
        )
    elif baseline.get("scale") != current["scale"]:
        notes.append(
            f"absolute gate skipped: baseline scale {baseline.get('scale')} != "
            f"current scale {current['scale']}"
        )
    else:
        floor = 1.0 - MAX_DROP
        for workload, base_rate in sorted(baseline.get("rates", {}).items()):
            rate = rates.get(workload)
            if rate is None:
                failures.append(f"{workload}: missing from current run (baseline has it)")
                continue
            if rate < floor * base_rate:
                failures.append(
                    f"{workload}: {rate:,.0f} ev/s is {1 - rate / base_rate:.0%} below "
                    f"baseline {base_rate:,.0f} ev/s (max allowed drop {MAX_DROP:.0%})"
                )
            else:
                notes.append(
                    f"{workload}: {rate:,.0f} ev/s vs baseline {base_rate:,.0f} ev/s ok"
                )

    # Ratio gates: machine-independent, so they never skip.
    for key, (ceiling_key, meaning) in RATIO_GATES.items():
        ratio, ceiling = current[key]["ratio"], baseline.get(ceiling_key)
        if ceiling is None:
            failures.append(f"baseline has no {ceiling_key}; re-run --write-baseline")
        elif ratio > ceiling:
            failures.append(
                f"{key} {ratio:.1f} is above the committed ceiling {ceiling:.1f}: {meaning}"
            )
        else:
            notes.append(f"{key} {ratio:.1f} vs ceiling {ceiling:.1f} ok")

    for note in notes:
        print(f"  {note}")
    if failures:
        print(f"{len(failures)} bench regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: pass")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=float(os.environ.get("CGSIM_BENCH_SCALE", "0.05")))
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the committed baseline instead of gating",
    )
    parser.add_argument(
        "--baseline-margin",
        type=float,
        default=0.15,
        help="deflate recorded baseline rates by this fraction so run-to-run "
        "timer noise (significant on small scales / busy boxes) does not trip "
        "the 20%% gate",
    )
    args = parser.parse_args()

    current = measure(args.scale, args.repeat)
    write_json(LATEST_PATH, current)
    print(f"recorded {LATEST_PATH.relative_to(REPO_ROOT)}:")
    for workload, rate in sorted(current["rates"].items()):
        print(f"  {workload}: {rate:,.0f} events/s")
    e2e, output = current["e2e_ratio"], current["output_ratio"]
    print(
        f"  grid_end_to_end: {e2e['us_per_job']:.1f} us/job over timeout_churn "
        f"{e2e['us_per_event']:.3f} us/event = ratio {e2e['ratio']:.1f}"
    )
    dispatch = current["dispatch_ratio"]
    print(
        f"  dispatch over {DISPATCH_SHAPE[0]} sites: {dispatch['us_per_job']:.1f} us/job over "
        f"timeout_churn {dispatch['us_per_event']:.3f} us/event = ratio {dispatch['ratio']:.1f}"
    )
    print(
        f"  output_rows: {output['us_per_row']:.2f} us/row ({output['rows']} rows to CSV + SQLite) "
        f"over timeout_churn {output['us_per_event']:.3f} us/event = ratio {output['ratio']:.2f}"
    )

    served = current["served_ratio"]
    print(
        f"  served session: {served['served_ms']:.2f} ms through workers._run_job over "
        f"{served['plain_ms']:.2f} ms plain ({served['jobs']} jobs) = ratio {served['ratio']:.2f}"
    )

    scaling = current["sites_ratio"]
    print(
        f"  sites: {scaling['us_per_job'][1]:.1f} us/job at {scaling['sites'][1]} sites over "
        f"{scaling['us_per_job'][0]:.1f} at {scaling['sites'][0]} ({scaling['jobs_per_site']} "
        f"jobs a site, panda_dispatcher) = ratio {scaling['ratio']:.2f}"
    )

    recovery = current["restore_ratio"]
    print(
        f"  restore at t_half: {recovery['restore_ms']:.1f} ms over a cold run of "
        f"{recovery['cold_ms']:.1f} ms ({recovery['jobs']} jobs, replay_batch shape) "
        f"= ratio {recovery['ratio']:.2f}"
    )

    generation = current["generate_ratio"]
    print(
        f"  generate: {generation['us_per_job']:.2f} us/job ({generation['jobs']} jobs on "
        f"{GENERATE_SHAPE[0]} sites) over timeout_churn {generation['us_per_event']:.3f} "
        f"us/event = ratio {generation['ratio']:.1f}"
    )

    if args.write_baseline:
        baseline = dict(current)
        for key, (ceiling_key, _) in RATIO_GATES.items():
            baseline[ceiling_key] = round(current[key]["ratio"] * (1.0 + RATIO_HEADROOM), 1)
        baseline["rates"] = {
            workload: round(rate * (1.0 - args.baseline_margin), 1)
            for workload, rate in current["rates"].items()
        }
        baseline["margin"] = args.baseline_margin
        write_json(BASELINE_PATH, baseline)
        print(
            f"baseline written to {BASELINE_PATH.relative_to(REPO_ROOT)} "
            f"(rates deflated by {args.baseline_margin:.0%} for noise headroom)"
        )
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH.relative_to(REPO_ROOT)}; run --write-baseline first", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return compare(current, baseline)


if __name__ == "__main__":
    sys.exit(main())

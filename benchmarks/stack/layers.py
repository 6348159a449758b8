"""The traced run: where one workload's time goes, layer by layer.

Four kinds of evidence, all taken from outside the program:

* **stage spans** -- wall time around the public call of each pipeline stage,
  untraced;
* **a cProfile of one whole pipeline repeat**, rolled up by ``repro.<package>``:
  self-time shares (built-in and library time is charged to the package that
  called it, through the profile's caller edges) and exact call counts of the
  functions ROADMAP item 1 is about;
* **direct calls** on a throw-away session paused at ``t_half`` and on fresh
  service components, mean of a few hundred;
* the DES kernel micro-benchmarks, for the stack-over-kernel ratio.

Spans and rows stay in memory and are written out once, after measuring.
No end-to-end number is taken here: cProfile taxes every Python call but not
the work inside native code, which shifts the proportions;
``trace.overhead_ratio`` says by how much.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.data_manager import DataManager
from repro.core.metrics import compute_metrics
from repro.experiments.bench import run_kernel_benchmarks
from repro.monitoring.collector import MonitoringCollector
from repro.monitoring.csv_export import (
    export_events_csv,
    export_jobs_csv,
    export_snapshots_csv,
)
from repro.monitoring.sqlite_store import SQLiteStore
from repro.scenarios.runner import _build_simulator
from repro.scenarios.schema import ScenarioPack
from repro.service.models import StateMessage, SubmitRequest
from repro.service.queue import JobQueue, JobRecord
from repro.service.store import ArtifactStore
from repro.service.wire import encode_frame, parse_frame_header
from repro.state import decode_checkpoint, drive_with_checkpoints, fingerprint_result
from repro.workload.job import JobState, reset_job_id_counter

import stages
import workloads as wl
from stages import clock

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages whose self-time share is a declared metric; the rest of the
#: profile (atlas, config, scenarios, schema, the harness) is ``other``.
PACKAGES = (
    "des", "core", "platform", "plugins", "data", "monitoring", "faults",
    "workload", "state", "utils",
)
#: Exact-repeat call counts: metric -> (path under src/repro, function name).
#: A directory matches every file in it.
COUNTED = {
    "core.dispatch_calls": ("core/server.py", "_dispatch"),
    "core.resource_view_calls": ("core/server.py", "resource_view"),
    "core.retry_pending_calls": ("core/server.py", "_retry_pending"),
    "platform.host_available_cores_calls": ("platform/host.py", "available_cores"),
    "plugins.assign_job_calls": ("plugins/", "assign_job"),
    "data.datasets_at_calls": ("core/data_manager.py", "datasets_at"),
    "monitoring.record_transition_calls": ("monitoring/collector.py", "record_transition"),
    "des.process_resumes": ("des/events.py", "_resume"),
}
MIN_UNTRACED_REPEATS = 3
MIN_RESTORES = 3
CLOSED_BATCHES = 2
DIRECT_CALLS = 200


def _mean_us(fn: Callable[[int], object], calls: int = DIRECT_CALLS) -> float:
    """Mean wall microseconds of ``fn(i)`` over ``calls`` calls."""
    started = clock()
    for index in range(calls):
        fn(index)
    return (clock() - started) / calls * 1e6


def _median_ms(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = clock()
        fn()
        times.append(clock() - started)
    return statistics.median(times) * 1e3


# -- stage spans ----------------------------------------------------------------


def _staged_repeat(pack_dict: dict, scratch: stages.Scratch) -> Dict[str, float]:
    """One untraced pipeline repeat with a span around every stage (seconds).

    The grid and the workload are built once on their own to time them;
    ``build`` is ``_build_simulator`` as a whole, which builds both again and
    wires them to the fault and data models.  The exporters are re-run on the
    finished run's collector into a second directory, so they are timed on
    every workload, not only where the pack configures them.
    """
    pack_dict = stages.stamped(pack_dict, scratch)
    reset_job_id_counter(1)
    t0 = clock()
    pack = stages.load_pack(pack_dict)
    t1 = clock()
    infrastructure, _ = pack.grid.build(pack.base_dir())
    t2 = clock()
    generated = pack.workload.build(infrastructure, pack.base_dir())
    t3 = clock()
    reset_job_id_counter(1)
    t4 = clock()
    simulator, jobs = _build_simulator(pack)
    t5 = clock()
    session = simulator.session(jobs)
    t6 = clock()
    session.advance_to_completion()
    t7 = clock()
    result = session.finalize()
    t8 = clock()
    fingerprint_result(result)
    t9 = clock()
    compute_metrics(result.jobs, collector=result.collector,
                    data_manager=simulator.data_manager)
    t10 = clock()
    out = scratch.fresh()
    collector = result.collector
    export_events_csv(collector.events, out / "events.csv")
    export_snapshots_csv(collector.snapshots, out / "snapshots.csv")
    export_jobs_csv(result.jobs, out / "jobs.csv")
    t11 = clock()
    with SQLiteStore(out / "run.sqlite") as store:
        store.write_batch(collector.events.rows())
        for snapshot in collector.snapshots:
            store.write_snapshot(snapshot)
        store.write_jobs(result.jobs)
    t12 = clock()
    return {
        "validate": t1 - t0,
        "grid": t2 - t1,
        "generate_per_job": (t3 - t2) / max(1, len(generated)),
        "build": t5 - t4,
        "session": t6 - t5,
        "advance": t7 - t6,
        "output": t8 - t7,
        "fingerprint": t9 - t8,
        "compute_metrics": t10 - t9,
        "csv": t11 - t10,
        "sqlite": t12 - t11,
    }


# -- profile roll-up --------------------------------------------------------------


def _package_of(filename: str, cache: Dict[str, Optional[str]]) -> Optional[str]:
    """``repro`` sub-package a profiled file belongs to (None: not the program)."""
    if filename not in cache:
        package = None
        if not filename.startswith(("~", "<")):
            try:
                parts = Path(filename).resolve().relative_to(SOURCE).parts
                package = parts[0] if len(parts) > 1 else "repro"
            except ValueError:
                pass
        cache[filename] = package
    return cache[filename]


def roll_up(stats: Dict[tuple, tuple]) -> Tuple[Dict[str, float], List[dict]]:
    """Self seconds per package, and the raw per-function rows.

    A function of the program owns its self time.  Anything else (built-ins,
    the standard library, numpy, sqlite, this harness) passes its self time to
    its callers in proportion to the self time each caller edge carries,
    recursively, until it lands on a function of the program; time nobody in
    the program asked for ends up in ``other``.
    """
    cache: Dict[str, Optional[str]] = {}
    owner = {func: _package_of(func[0], cache) for func in stats}
    foreign = [func for func in stats if owner[func] is None]
    charge: Dict[tuple, Dict[str, float]] = {func: {"other": 1.0} for func in foreign}
    for _ in range(12):  # deeper than any library call chain that carries weight
        for func in foreign:
            callers = stats[func][4]
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {caller: float(edge[0]) for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0.0:
                continue
            split: Dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                if owner.get(caller) is not None:
                    split[owner[caller]] += weight / total
                else:
                    for package, part in charge.get(caller, {"other": 1.0}).items():
                        split[package] += part * weight / total
            charge[func] = dict(split)
    seconds: Dict[str, float] = defaultdict(float)
    rows: List[dict] = []
    for func, (primitive, calls, tottime, cumtime, _) in stats.items():
        if owner[func] is not None:
            seconds[owner[func]] += tottime
        else:
            for package, part in charge[func].items():
                seconds[package] += tottime * part
        filename = func[0]
        if owner[func] is not None:
            filename = str(Path(filename).resolve().relative_to(SOURCE.parent))
        rows.append({
            "file": filename, "line": func[1], "function": func[2],
            "package": owner[func], "ncalls": calls, "primitive_calls": primitive,
            "tottime": tottime, "cumtime": cumtime,
        })
    rows.sort(key=lambda row: -row["tottime"])
    return dict(seconds), rows


def call_counts(rows: List[dict]) -> Dict[str, int]:
    """Calls of each function in ``COUNTED`` (0 when it is not in the profile)."""
    counts = {}
    for metric, (path, name) in COUNTED.items():
        counts[metric] = sum(
            row["ncalls"] for row in rows
            if row["package"] is not None and row["function"] == name
            and (row["file"].startswith(f"repro/{path}") if path.endswith("/")
                 else row["file"] == f"repro/{path}")
        )
    return counts


# -- direct calls -----------------------------------------------------------------


def _direct_calls(session) -> Dict[str, float]:
    """Mean cost of the per-dispatch calls, on a session paused mid-run.

    The session is thrown away afterwards, so calling the policy (which
    advances its own state) is harmless.
    """
    simulator = session.simulator
    server = simulator.server
    sites = list(simulator.sites.values())
    names = [site.name for site in sites]
    jobs = [job.copy_for_replay() for job in session.jobs[:DIRECT_CALLS]]
    view = server.resource_view()
    # Without a data section there is no data manager: measure the floor of the
    # lookup on an empty one, which is what resource_view would pay first.
    data_manager = simulator.data_manager or DataManager(simulator.env, simulator.platform)
    collector = MonitoringCollector()
    return {
        "core.resource_view_us": _mean_us(lambda i: server.resource_view()),
        "plugins.assign_job_us": _mean_us(
            lambda i: simulator.policy.assign_job(jobs[i % len(jobs)], view)
        ),
        "platform.available_cores_us": _mean_us(
            lambda i: sites[i % len(sites)].zone.available_cores
        ),
        "data.datasets_at_us": _mean_us(
            lambda i: data_manager.datasets_at(names[i % len(names)])
        ),
        "monitoring.record_transition_us": _mean_us(
            lambda i: collector.record_transition(
                jobs[i % len(jobs)], JobState.RUNNING, float(i), site=names[i % len(names)],
                available_cores=8, pending_jobs=1, assigned_jobs=1,
            ),
            calls=5 * DIRECT_CALLS,
        ),
    }


def _service_components(small: dict, medium: dict,
                        scratch: stages.Scratch) -> Dict[str, Dict[str, object]]:
    """Direct calls into the service's building blocks, no server involved."""

    def validate() -> None:
        request = SubmitRequest.from_body({"pack": small})
        ScenarioPack.from_dict(request.pack).to_dict()

    def in_process() -> None:
        pack, session, _ = stages.open_session(small)
        drive_with_checkpoints(
            session, scratch.fresh(), every=wl.SERVICE_CHECKPOINT_EVERY,
            extra={"scenario_pack": pack.to_dict()},
        )
        fingerprint_result(session.finalize())

    # A blob the size a worker stores for the medium pack: its first checkpoint.
    pack, session, _ = stages.open_session(medium)
    session.advance_for(wl.SERVICE_CHECKPOINT_EVERY)
    blob = session.checkpoint(extra={"scenario_pack": pack.to_dict()})
    store = ArtifactStore(scratch.fresh())
    variants = [blob + index.to_bytes(4, "big") for index in range(20)]
    started = clock()
    digests = [store.put(variant) for variant in variants]
    put_ms = (clock() - started) / len(variants) * 1e3
    started = clock()
    for digest in digests:
        store.get(digest)
    get_ms = (clock() - started) / len(digests) * 1e3

    records = [JobRecord(id=f"s{i:06d}", pack={}, priority=i % 3, submit_seq=i)
               for i in range(2000)]
    queue = JobQueue()
    started = clock()
    for record in records:
        queue.push(record)
    while queue.pop() is not None:
        pass
    queue_ops = 2 * len(records) / (clock() - started)

    payload = StateMessage(
        session="s000001", seq=1, state="running", attempts=1, detail="dispatched"
    ).encode().encode("utf-8")
    wire_us = _mean_us(
        lambda i: parse_frame_header(encode_frame(payload)[:2]), calls=5 * DIRECT_CALLS
    )
    return {
        "service.validate_ms": {"value": _median_ms(validate, 15), "unit": "ms"},
        "service.queue_ops_per_s": {"value": queue_ops, "unit": "1/s"},
        "service.store_put_ms": {"value": put_ms, "unit": "ms"},
        "service.store_get_ms": {"value": get_ms, "unit": "ms"},
        "service.wire_frame_us": {"value": wire_us, "unit": "us"},
        "service.inproc_session_ms": {"value": _median_ms(in_process, 7), "unit": "ms"},
    }


# -- the traced run -------------------------------------------------------------


@dataclass
class Traced:
    """Per-layer metrics of one workload, plus what is dumped to disk."""

    metrics: Dict[str, Dict[str, object]]
    tally: stages.Tally
    dump: dict
    notes: List[str]


def measure_layers(workload: wl.Workload, seed: int, seconds: float,
                   scratch: stages.Scratch) -> Traced:
    """Every per-layer metric of one workload (see the module docstring)."""
    tally = stages.Tally()
    pack = wl.main_pack(workload, seed)
    jobs = workload.jobs
    median = statistics.median

    # Untraced stage spans (also the base of trace.overhead_ratio).
    deadline = clock() + 0.3 * seconds
    _staged_repeat(pack, scratch)  # warm-up, discarded
    spans: List[Dict[str, float]] = []
    while len(spans) < MIN_UNTRACED_REPEATS or clock() < deadline:
        gc.collect()
        spans.append(_staged_repeat(pack, scratch))
    span = {name: median(s[name] for s in spans) for name in spans[0]}

    # One whole repeat under cProfile.
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    traced = stages.pipeline(stages.stamped(pack, scratch), keep_result=True)
    profile.disable()
    tally.check(traced.conserved, "job conservation broken in the traced run")
    seconds_by_package, rows = roll_up(pstats.Stats(profile).stats)
    total = sum(seconds_by_package.values())
    shares = {name: seconds_by_package.get(name, 0.0) / total for name in PACKAGES}
    shares["other"] = 1.0 - sum(shares.values())
    counts = call_counts(rows)

    # State: freeze at t_half, restore, finish; then probe the paused session.
    frozen = stages.freeze_at_half(pack, traced, scratch, tally)
    traced.result = None
    restores = [stages.restore(frozen, tally)[1] for _ in range(MIN_RESTORES)]
    direct = _direct_calls(frozen.session)
    frozen.session = None
    restore_s = min(restores)
    cold_s = span["validate"] + span["build"] + span["session"] + span["advance"]

    kernel = {row.workload: row for row in run_kernel_benchmarks(scale=1.0, repeat=3)}
    churn_us_per_event = 1e6 / kernel["timeout_churn"].events_per_second

    # Service: closed-loop batches only, then its components one by one.
    service = stages.Service(workload, scratch, tally)
    try:
        sessions = [s for _ in range(CLOSED_BATCHES) for s in service.closed_batch()]
    finally:
        service.close()
    small, medium = service.shapes
    components = _service_components(
        stages.stamped(small, scratch), stages.stamped(medium, scratch), scratch
    )
    latencies = [s.total_s for s in sessions]
    p50_ms = median(latencies) * 1e3

    def ms(value: float) -> dict:
        return {"value": value * 1e3, "unit": "ms"}

    metrics: Dict[str, Dict[str, object]] = {
        "scenarios.validate_ms": ms(span["validate"]),
        "config.grid_build_ms": ms(span["grid"]),
        "workload.generate_us_per_job": {"value": span["generate_per_job"] * 1e6, "unit": "us"},
        "scenarios.wire_ms": ms(span["build"]),
        "core.session_build_ms": ms(span["session"]),
        "core.advance_us_per_job": {"value": span["advance"] / jobs * 1e6, "unit": "us"},
        "core.compute_metrics_ms": ms(span["compute_metrics"]),
        "monitoring.csv_export_ms": ms(span["csv"]),
        "monitoring.sqlite_write_ms": ms(span["sqlite"]),
        "state.fingerprint_ms": ms(span["fingerprint"]),
    }
    metrics.update({name: {"value": value, "unit": "us"} for name, value in direct.items()})
    for name in ("timeout_churn", "resource_contention", "store_pingpong"):
        metrics[f"des.{name}_events_per_s"] = {
            "value": kernel[name].events_per_second, "unit": "1/s",
        }
    metrics["core.us_per_job_over_des_us_per_event"] = {
        "value": span["advance"] / jobs * 1e6 / churn_us_per_event, "unit": "ratio",
    }
    for name, share in shares.items():
        metrics[f"{name}.self_share"] = {"value": share, "unit": "share"}
    for name, count in counts.items():
        metrics[name] = {"value": count, "unit": "count"}
    metrics["trace.overhead_ratio"] = {
        "value": traced.advance_s / span["advance"], "unit": "ratio",
    }
    metrics.update({
        "state.checkpoint_ms": ms(frozen.checkpoint_s),
        "state.blob_bytes": {"value": len(frozen.blob), "unit": "bytes"},
        "state.blob_bytes_per_job": {"value": len(frozen.blob) / jobs, "unit": "bytes"},
        "state.decode_ms": {
            "value": _median_ms(lambda: decode_checkpoint(frozen.blob), 5), "unit": "ms",
        },
        "state.tail_s": {"value": frozen.tail_s, "unit": "s"},
        "state.restore_vs_cold_ratio": {"value": restore_s / cold_s, "unit": "ratio"},
        "service.submit_ms": ms(median(s.submit_s for s in sessions)),
        "service.session_p95_ms": ms(stages.percentile(latencies, 0.95)),
        "service.medium_session_ms": ms(median(s.total_s for s in sessions if s.shape == 1)),
    })
    metrics.update(components)
    metrics["service.overhead_ms"] = {
        "value": p50_ms - components["service.inproc_session_ms"]["value"], "unit": "ms",
    }
    metrics["service.checkpoint_blobs_per_session"] = {
        "value": sum(s.checkpoints for s in sessions) / len(sessions), "unit": "count",
    }

    notes = [
        f"stage spans: median of {len(spans)} untraced repeats; profile: one repeat, "
        f"{sum(row['ncalls'] for row in rows)} calls in {len(rows)} functions",
        f"t_half = {frozen.t_half:.0f} simulated s; restore_s best of {len(restores)}: "
        f"{restore_s:.4f} s; cold setup+advance {cold_s:.4f} s",
        f"service closed loop: {len(latencies)} sessions, p50 {p50_ms:.2f} ms "
        f"({sum(1 for s in sessions if s.shape == 1)} medium)",
        "other.self_share = everything outside the ten named packages: atlas, config, "
        "scenarios, schema and this harness",
    ]
    dump = {
        "workload": workload.name,
        "seed": seed,
        "packages": {
            name: {"self_s": value, "share": value / total}
            for name, value in sorted(seconds_by_package.items(), key=lambda kv: -kv[1])
        },
        "spans_s": spans,
        "functions": rows,
    }
    return Traced(metrics, tally, dump, notes)

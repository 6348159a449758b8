"""Command-line interface.

``cgsim`` (or ``python -m repro``) exposes the most common workflows without
writing any Python:

* ``cgsim generate-config`` -- write the three JSON input files for a
  synthetic or WLCG-like grid of a given size;
* ``cgsim generate-trace`` -- write a synthetic PanDA-like trace for an
  infrastructure file;
* ``cgsim run`` -- run a simulation from the three config files and a trace,
  print the metrics, and optionally write SQLite/CSV outputs;
* ``cgsim calibrate`` -- run the per-site walltime calibration over a trace
  and print the before/after error table;
* ``cgsim sensitivity`` -- run the one-at-a-time parameter sensitivity study
  for one site against a trace (which parameter dominates walltime accuracy);
* ``cgsim compare-policies`` -- replay one trace under several allocation
  policies and print the operational metrics side by side;
* ``cgsim policies`` -- list the registered allocation policies;
* ``cgsim sweep`` -- fan a grid of independent scenario runs (sites x
  policies x failure rates, with seed replications) across worker processes
  and print the per-scenario aggregate table;
* ``cgsim bench`` -- measure the DES kernel's event throughput on the three
  standard workloads, optionally dumping a cProfile summary (``--profile``);
* ``cgsim scenario {list,show,validate,run}`` -- the declarative front door:
  discover, inspect, validate and execute scenario packs (single YAML/JSON
  files describing whole studies, run in parallel when they sweep);
* ``cgsim lint`` -- run the static determinism & correctness analyzer
  (:mod:`repro.lint`) over source trees and print its findings.

Every subcommand's help string names the artifacts it prints or writes, so
``cgsim <command> --help`` is an accurate contract of what comes out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.config import (
    ExecutionConfig,
    load_execution,
    load_infrastructure,
    load_topology,
    save_execution,
    save_infrastructure,
    save_topology,
)
from repro.utils.errors import CGSimError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``cgsim`` command."""
    parser = argparse.ArgumentParser(
        prog="cgsim",
        description="CGSim reproduction: simulate large-scale distributed computing grids.",
    )
    parser.add_argument("--version", action="version", version=f"cgsim-repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate-config",
        help="write infrastructure.json, topology.json and execution.json to --output-dir",
    )
    gen.add_argument("--sites", type=int, default=10, help="number of sites")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--kind", choices=["synthetic", "wlcg"], default="synthetic",
        help="synthetic heterogeneous grid or the built-in WLCG catalogue",
    )
    gen.add_argument("--topology", choices=["star", "tiered"], default="star")
    gen.add_argument("--output-dir", type=Path, default=Path("configs"))

    trace = sub.add_parser(
        "generate-trace", help="write a synthetic PanDA-like trace CSV to --output"
    )
    trace.add_argument("--infrastructure", type=Path, required=True)
    trace.add_argument("--jobs", type=int, default=1000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", type=Path, default=Path("trace.csv"))

    run = sub.add_parser(
        "run",
        help="run a simulation and print the metrics table "
        "(--per-site/--dashboard print the breakdown and dashboard views; "
        "--progress prints live progress lines to stderr; --until pauses "
        "the clock at a simulated time and reports the partial run)",
    )
    run.add_argument("--infrastructure", type=Path, required=True)
    run.add_argument("--topology", type=Path, required=True)
    run.add_argument("--execution", type=Path, required=True)
    run.add_argument("--trace", type=Path, required=True)
    run.add_argument("--dashboard", action="store_true", help="print the final dashboard view")
    run.add_argument("--per-site", action="store_true", help="print the per-site breakdown")
    run.add_argument("--until", default=None, metavar="TIME",
                     help="advance the simulated clock only to TIME (seconds, "
                     "or a duration such as '12h') and report the partial run")
    run.add_argument("--progress", nargs="?", const=2.0, default=None, type=float,
                     metavar="SECONDS",
                     help="print a live progress line to stderr, throttled to "
                     "at most one every SECONDS of wall-clock time (default 2)")
    run.add_argument("--checkpoint-every", default=None, metavar="TIME",
                     help="write a checkpoint blob every TIME simulated seconds "
                     "(or a duration such as '6h'); requires --checkpoint-dir")
    run.add_argument("--checkpoint-dir", type=Path, default=None, metavar="DIR",
                     help="write checkpoint_t<time>.ckpt blobs plus latest.ckpt "
                     "to DIR (resume with `cgsim resume DIR/latest.ckpt`); "
                     "without --checkpoint-every a single blob freezes the "
                     "final pre-finalize state")

    res = sub.add_parser(
        "resume",
        help="restore a checkpoint blob written by `run`/`scenario run` "
        "--checkpoint-dir, advance it (to completion or --until) and print "
        "the metrics table; --checkpoint-dir keeps checkpointing the "
        "resumed run",
    )
    res.add_argument("checkpoint", type=Path,
                     help="checkpoint blob (.ckpt), e.g. DIR/latest.ckpt")
    res.add_argument("--until", default=None, metavar="TIME",
                     help="advance the simulated clock only to TIME (seconds, "
                     "or a duration such as '12h') and report the partial run")
    res.add_argument("--progress", nargs="?", const=2.0, default=None, type=float,
                     metavar="SECONDS",
                     help="print a live progress line to stderr, throttled to "
                     "at most one every SECONDS of wall-clock time (default 2)")
    res.add_argument("--per-site", action="store_true",
                     help="print the per-site breakdown")
    res.add_argument("--muted-replay", action="store_true",
                     help="skip monitoring recording during the restore "
                     "fast-forward (faster; counters are re-seated from the "
                     "blob, but replayed event rows are not retained)")
    res.add_argument("--checkpoint-every", default=None, metavar="TIME",
                     help="keep writing checkpoints every TIME simulated "
                     "seconds; requires --checkpoint-dir")
    res.add_argument("--checkpoint-dir", type=Path, default=None, metavar="DIR",
                     help="directory for further checkpoint blobs of the "
                     "resumed run")

    cal = sub.add_parser(
        "calibrate",
        help="calibrate per-site core speeds against a trace, print the "
        "before/after error table and optionally write the calibrated "
        "infrastructure JSON (--output)",
    )
    cal.add_argument("--infrastructure", type=Path, required=True)
    cal.add_argument("--trace", type=Path, required=True)
    cal.add_argument("--optimizer", default="random",
                     choices=["random", "bayesian", "cmaes", "brute_force"])
    cal.add_argument("--budget", type=int, default=30)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--output", type=Path, default=None,
                     help="write the calibrated infrastructure JSON here")

    sens = sub.add_parser(
        "sensitivity",
        help="one-at-a-time parameter sensitivity study for one site; prints "
        "the per-parameter error table and the dominant parameter",
    )
    sens.add_argument("--infrastructure", type=Path, required=True)
    sens.add_argument("--trace", type=Path, required=True)
    sens.add_argument("--site", default=None,
                      help="site to study (default: the site with the most trace jobs)")
    sens.add_argument("--factors", default="0.5,0.75,1.0,1.5,2.0",
                      help="comma-separated multiplicative perturbations")
    sens.add_argument("--mode", choices=["simulate", "analytic"], default="simulate")

    cmp = sub.add_parser(
        "compare-policies",
        help="replay one trace under several allocation policies and print "
        "the side-by-side metrics table",
    )
    cmp.add_argument("--infrastructure", type=Path, required=True)
    cmp.add_argument("--topology", type=Path, required=True)
    cmp.add_argument("--trace", type=Path, required=True)
    cmp.add_argument(
        "--policies",
        default="round_robin,least_loaded,panda_dispatcher",
        help="comma-separated policy names (see `cgsim policies`)",
    )

    policies = sub.add_parser(
        "policies",
        help="print the registered plugin names of one family (default: "
        "allocation), one per line; --family all prints every family",
    )
    policies.add_argument(
        "--family", default="allocation",
        help="plugin family to list: allocation, eviction, replication, or 'all'",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a parallel scenario sweep, print the per-scenario aggregate "
        "table and optionally write per-run results as JSON (--output)",
    )
    sweep.add_argument("--sites", default="4",
                       help="comma-separated site counts to sweep")
    sweep.add_argument("--jobs", type=int, default=200, help="jobs per run")
    sweep.add_argument("--policies", default="least_loaded",
                       help="comma-separated allocation-policy names")
    sweep.add_argument("--failure-rates", default="0.0",
                       help="comma-separated per-site job failure probabilities")
    sweep.add_argument("--grid", choices=["synthetic", "wlcg"], default="synthetic")
    sweep.add_argument("--replications", type=int, default=3,
                       help="independent seed replications per scenario")
    sweep.add_argument("--max-retries", type=int, default=0)
    sweep.add_argument("--seed", type=int, default=0, help="root seed of the sweep")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = one per available CPU)")
    sweep.add_argument("--metrics", default="makespan,mean_queue_time,throughput,failure_rate",
                       help="comma-separated grid-level metrics to aggregate")
    sweep.add_argument("--output", type=Path, default=None,
                       help="write the full per-run results as JSON here")

    bench = sub.add_parser(
        "bench",
        help="measure DES-kernel event throughput, print the events/s table "
        "and optionally write the rates as JSON (--output) or print a "
        "cProfile summary (--profile)",
    )
    bench.add_argument("--scale", type=float, default=1.0,
                       help="size multiplier for the three kernel workloads")
    bench.add_argument("--repeat", type=int, default=3,
                       help="runs per workload (best is reported)")
    bench.add_argument("--profile", action="store_true",
                       help="dump a cProfile summary (top 20 functions)")
    bench.add_argument("--sort", choices=["cumulative", "tottime"],
                       default="cumulative",
                       help="profile sort order (with --profile)")
    bench.add_argument("--json", action="store_true",
                       help="with --profile, print the flat profile as JSON "
                       "rows instead of the pstats text block")
    bench.add_argument("--output", type=Path, default=None,
                       help="write the measured rates as JSON here")

    scenario = sub.add_parser(
        "scenario",
        help="work with declarative scenario packs: print the pack catalogue, "
        "a pack's canonical JSON, validation verdicts, or run a pack and "
        "print its metric/sweep/calibration tables",
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scen_list = scen_sub.add_parser(
        "list",
        help="print the table of discoverable packs (bundled, entry-point "
        "and CGSIM_SCENARIO_PATH sources)",
    )
    scen_list.add_argument("--tag", default=None, help="only packs carrying this tag")

    scen_show = scen_sub.add_parser(
        "show", help="print one pack's canonical JSON representation"
    )
    scen_show.add_argument("pack", help="pack name (see `scenario list`) or file path")

    scen_validate = scen_sub.add_parser(
        "validate",
        help="validate pack files/names and print one OK/error verdict per pack",
    )
    scen_validate.add_argument("packs", nargs="+",
                               help="pack names or YAML/JSON file paths")

    scen_run = scen_sub.add_parser(
        "run",
        help="run a pack end-to-end (parallel when it sweeps) and print its "
        "metric/sweep/calibration tables; --output writes the full outcome "
        "as JSON",
    )
    scen_run.add_argument("pack", help="pack name (see `scenario list`) or file path")
    scen_run.add_argument("--workers", type=int, default=None,
                          help="worker processes for sweeps/calibration "
                          "(0 = one per available CPU; default: the pack's choice)")
    scen_run.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="PATH=VALUE",
                          help="dotted-path pack override, e.g. "
                          "--set workload.jobs=500 (repeatable; values parse "
                          "as JSON, falling back to strings)")
    scen_run.add_argument("--output", type=Path, default=None,
                          help="write the full outcome (per-run metrics) as JSON here")
    scen_run.add_argument("--progress", nargs="?", const=2.0, default=None, type=float,
                          metavar="SECONDS",
                          help="single-run packs: print a live progress line to "
                          "stderr, throttled to at most one every SECONDS of "
                          "wall-clock time (default 2)")
    scen_run.add_argument("--checkpoint-every", default=None, metavar="TIME",
                          help="write a checkpoint blob every TIME simulated "
                          "seconds (or a duration such as '6h')")
    scen_run.add_argument("--checkpoint-dir", type=Path, default=None,
                          metavar="DIR",
                          help="write checkpoint blobs to DIR and resume "
                          "automatically from its latest.ckpt when the blob "
                          "matches this pack; sweep packs checkpoint each "
                          "combination into its own DIR subdirectory "
                          "(crash-resumable studies)")

    schema = sub.add_parser(
        "schema",
        help="work with the published scenario-pack JSON Schema: print the "
        "generated document, check the committed copy for drift, or "
        "validate pack files against it",
    )
    schema_sub = schema.add_subparsers(dest="schema_command", required=True)
    schema_emit = schema_sub.add_parser(
        "emit",
        help="print the generated schema JSON to stdout, or write it to "
        "--output / the committed docs/schema location with --update",
    )
    schema_emit.add_argument("--output", type=Path, default=None,
                             help="write the schema JSON to this file instead "
                             "of stdout")
    schema_emit.add_argument("--update", action="store_true",
                             help="write the schema to its committed location "
                             "(docs/schema/scenario-pack.schema.json)")
    schema_sub.add_parser(
        "check",
        help="regenerate the schema and print a drift verdict against the "
        "committed copy (non-zero exit when they differ; CI runs this)",
    )
    schema_validate = schema_sub.add_parser(
        "validate",
        help="validate pack files/names against the JSON Schema and print "
        "one verdict per pack, each error carrying its JSON-pointer path",
    )
    schema_validate.add_argument("packs", nargs="+",
                                 help="pack names or YAML/JSON file paths")

    conformance = sub.add_parser(
        "conformance",
        help="exercise registered plugins against the golden conformance "
        "invariants and print per-plugin pass/fail reports",
    )
    conf_sub = conformance.add_subparsers(dest="conformance_command", required=True)
    conf_run = conf_sub.add_parser(
        "run",
        help="run the conformance battery and print one report per plugin "
        "(non-zero exit when any plugin fails an invariant)",
    )
    conf_run.add_argument("--family", default="all",
                          choices=["all", "allocation", "policy", "eviction",
                                   "replication"],
                          help="plugin family to exercise ('policy' is an "
                          "alias for allocation; default: all)")
    conf_run.add_argument("--plugin", default=None,
                          help="single plugin: a registered name or a "
                          "'module.path:ClassName' spec")
    conf_run.add_argument("--json", action="store_true", dest="as_json",
                          help="print the reports as a JSON document instead "
                          "of text blocks")
    conf_run.add_argument("--no-subprocess", action="store_true",
                          help="skip the PYTHONHASHSEED subprocess sweep "
                          "(faster, but misses iteration-order bugs)")
    conf_run.add_argument("--lint", action="store_true", dest="static_lint",
                          help="also run the static determinism/pickle lint "
                          "over each plugin's source module (no baseline) "
                          "and include the findings in the printed reports")

    lint = sub.add_parser(
        "lint",
        help="run the static determinism & correctness analyzer over "
        "source trees and print one finding per line plus a summary "
        "(non-zero exit on findings or a stale baseline; CI runs this "
        "over src/repro)",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to scan "
                      "(default: src/repro)")
    lint.add_argument("--rule", action="append", default=[], metavar="ID",
                      help="rule id or family name to run (repeatable; "
                      "default: every rule -- see docs/lint.md)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="print the report as a JSON document instead of "
                      "text lines")
    lint.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                      help="baseline file to apply (default: discover a "
                      "committed lint-baseline.json near the scanned paths)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="zero-tolerance mode: ignore any baseline file")
    lint.add_argument("--write-baseline", type=Path, default=None,
                      metavar="FILE", nargs="?", const=Path("lint-baseline.json"),
                      help="write the surviving findings as a new baseline "
                      "file (default path: lint-baseline.json) and exit 0")

    serve = sub.add_parser(
        "serve",
        help="run the simulation service: an HTTP + WebSocket session server "
        "that queues submitted scenario packs onto a pool of worker "
        "processes, writes periodic checkpoint blobs to its artifact store "
        "and prints the bound address on startup",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8641,
                       help="TCP port to bind; 0 picks an ephemeral port "
                       "(the bound port is printed on startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="size of the worker-process pool (default: 2)")
    serve.add_argument("--store-root", type=Path, default=None, metavar="DIR",
                       help="artifact-store directory for checkpoint blobs; "
                       "default is a fresh temporary directory (printed on "
                       "startup)")
    serve.add_argument("--checkpoint-every", default=None, metavar="TIME",
                       help="default checkpoint cadence in simulated seconds "
                       "(or a duration such as '1h') for sessions that do "
                       "not choose their own")
    serve.add_argument("--max-attempts", type=int, default=5,
                       help="per-session retry budget when workers die "
                       "(default: 5)")

    client = sub.add_parser(
        "client",
        help="talk to a running `cgsim serve` instance: submit scenario "
        "packs, print session status, watch live event streams, stop "
        "sessions",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1",
                            help="service host (default: 127.0.0.1)")
    connection.add_argument("--port", type=int, default=8641,
                            help="service port (default: 8641)")
    cl_submit = client_sub.add_parser(
        "submit", parents=[connection],
        help="submit a scenario pack (file path or registry name) and print "
        "the assigned session id; --watch streams its events until the "
        "session ends",
    )
    cl_submit.add_argument("pack", help="pack file path or registry name")
    cl_submit.add_argument("--priority", type=int, default=0,
                           help="queue priority; higher runs first "
                           "(default: 0)")
    cl_submit.add_argument("--checkpoint-every", default=None, metavar="TIME",
                           help="checkpoint cadence for this session in "
                           "simulated seconds (or a duration such as '1h')")
    cl_submit.add_argument("--label", default=None,
                           help="free-form label echoed back in status output")
    cl_submit.add_argument("--watch", action="store_true",
                           help="after submitting, print the session's event "
                           "stream until it reaches a terminal state")
    cl_status = client_sub.add_parser(
        "status", parents=[connection],
        help="print one session's status document, or a one-line-per-session "
        "table of every session the server knows",
    )
    cl_status.add_argument("session", nargs="?", default=None,
                           help="session id; omit to list every session")
    cl_status.add_argument("--json", action="store_true", dest="as_json",
                           help="print the raw JSON document(s) instead of "
                           "the table")
    cl_watch = client_sub.add_parser(
        "watch", parents=[connection],
        help="subscribe to a session's WebSocket event stream and print one "
        "line per state change, progress report, checkpoint and result",
    )
    cl_watch.add_argument("session", help="session id to watch")
    cl_stop = client_sub.add_parser(
        "stop", parents=[connection],
        help="ask the service to stop a session (queued sessions stop "
        "immediately, running ones at the next chunk boundary) and print "
        "the resulting state",
    )
    cl_stop.add_argument("session", help="session id to stop")
    return parser


def _cmd_generate_config(args: argparse.Namespace) -> int:
    from repro.atlas.wlcg import wlcg_grid
    from repro.config.generators import generate_grid

    if args.kind == "wlcg":
        infrastructure, topology = wlcg_grid(site_count=args.sites)
    else:
        infrastructure, topology = generate_grid(
            args.sites, seed=args.seed, topology=args.topology
        )
    execution = ExecutionConfig()
    out = args.output_dir
    save_infrastructure(infrastructure, out / "infrastructure.json")
    save_topology(topology, out / "topology.json")
    save_execution(execution, out / "execution.json")
    print(f"wrote infrastructure.json, topology.json, execution.json to {out}")
    return 0


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from repro.workload.generator import SyntheticWorkloadGenerator
    from repro.workload.trace import save_trace

    infrastructure = load_infrastructure(args.infrastructure)
    generator = SyntheticWorkloadGenerator(infrastructure, seed=args.seed)
    jobs = generator.generate(args.jobs)
    save_trace(jobs, args.output)
    print(f"wrote {len(jobs)} jobs to {args.output}")
    return 0


def _throttled_progress_printer(min_interval: float):
    """Build a wall-clock-throttled progress-line printer for a session.

    The returned callable takes the live
    :class:`~repro.core.session.SimulationSession` and prints one progress
    line to stderr -- counters from :meth:`~SimulationSession.progress` plus
    headline numbers from :meth:`~SimulationSession.peek_metrics` -- at most
    once every ``min_interval`` seconds of wall-clock time (the metric
    computation only happens when a line is actually printed).
    """
    import time as _time

    last = [float("-inf")]

    def printer(session, force: bool = False) -> None:
        now = _time.monotonic()
        if not force and now - last[0] < min_interval:
            return
        last[0] = now
        progress = session.progress()
        metrics = session.peek_metrics()
        print(
            f"[progress] {progress.describe()} | "
            f"mean_queue={metrics.mean_queue_time:.0f}s "
            f"throughput={metrics.throughput * 3600.0:.1f} jobs/h",
            file=sys.stderr,
            flush=True,
        )

    return printer


def _drive_session(args: argparse.Namespace, session, extra=None) -> None:
    """Advance a CLI session per --until/--checkpoint-every/--checkpoint-dir."""
    from repro.utils.units import parse_duration

    every = (
        parse_duration(args.checkpoint_every)
        if args.checkpoint_every is not None
        else None
    )
    until = parse_duration(args.until) if args.until is not None else None
    if args.checkpoint_dir is None:
        if every is not None:
            raise CGSimError("--checkpoint-every requires --checkpoint-dir")
        if until is not None:
            session.advance_until(until)
        else:
            session.advance_to_completion()
        return
    from repro.state import drive_with_checkpoints

    written = drive_with_checkpoints(
        session, args.checkpoint_dir, every=every, until=until, extra=extra
    )
    print(
        f"wrote {len(written)} checkpoint(s) to {args.checkpoint_dir} "
        f"(resume with `cgsim resume {args.checkpoint_dir / 'latest.ckpt'}`)",
        file=sys.stderr,
    )


def _report_run(args: argparse.Namespace, session, result) -> None:
    """Print the standard post-run report (metrics, pause note, breakdowns)."""
    from repro.analysis.reporting import metrics_table, site_table, transition_table
    from repro.monitoring.dashboard import Dashboard

    print(metrics_table(result.metrics))
    if args.until is not None and not session.done:
        print()
        print(
            f"paused at t={result.simulated_time:.0f}s (--until): "
            f"{result.metrics.finished_jobs}/{result.metrics.total_jobs} jobs "
            f"finished, {result.pending_jobs} pending"
        )
    if result.stopped_reason is not None:
        print()
        print(f"stopped early: {result.stopped_reason}")
    if args.per_site:
        print()
        print(site_table(result.metrics))
        print()
        print(transition_table(result.metrics))
    if getattr(args, "dashboard", False):
        print()
        print(Dashboard(result.collector).render(result.simulated_time))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.simulator import Simulator
    from repro.workload.trace import load_trace

    infrastructure = load_infrastructure(args.infrastructure)
    topology = load_topology(args.topology)
    execution = load_execution(args.execution)
    jobs = load_trace(args.trace)
    simulator = Simulator(infrastructure, topology, execution)
    session = simulator.session(jobs)
    printer = None
    if args.progress is not None:
        printer = _throttled_progress_printer(args.progress)
        # The in-sim tick is deliberately fine-grained (60 simulated
        # seconds); the wall-clock throttle above decides what actually
        # prints.
        session.on_progress(60.0, lambda _snapshot: printer(session))
    _drive_session(args, session)
    if printer is not None:
        # Always end with one line, even for runs shorter than a tick.
        printer(session, force=True)
    result = session.finalize()
    _report_run(args, session, result)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.state import restore_session_from_blob

    if not args.checkpoint.exists():
        raise CGSimError(f"checkpoint blob not found: {args.checkpoint}")
    blob = args.checkpoint.read_bytes()
    session, payload = restore_session_from_blob(
        blob, monitoring="muted" if args.muted_replay else "replay"
    )
    extra = payload.get("extra") or {}
    print(
        f"restored from {args.checkpoint}: {session.progress().describe()}",
        file=sys.stderr,
    )
    printer = None
    if args.progress is not None:
        printer = _throttled_progress_printer(args.progress)
        session.on_progress(60.0, lambda _snapshot: printer(session))
    _drive_session(args, session, extra=extra if extra else None)
    if printer is not None:
        printer(session, force=True)
    result = session.finalize()
    _report_run(args, session, result)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.calibration import GridCalibrator
    from repro.workload.trace import load_trace

    infrastructure = load_infrastructure(args.infrastructure)
    jobs = load_trace(args.trace)
    calibrator = GridCalibrator(
        infrastructure,
        jobs,
        optimizer=args.optimizer,
        budget=args.budget,
        seed=args.seed,
    )
    report = calibrator.calibrate()
    print(format_table([r.to_row() for r in report.sites]))
    summary = report.summary()
    print()
    print(json.dumps(summary, indent=2))
    if args.output is not None:
        calibrated = calibrator.calibrated_infrastructure(report)
        save_infrastructure(calibrated, args.output)
        print(f"wrote calibrated infrastructure to {args.output}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.calibration.sensitivity import SensitivityAnalysis
    from repro.workload.trace import load_trace

    infrastructure = load_infrastructure(args.infrastructure)
    jobs = load_trace(args.trace)
    site_name = args.site
    if site_name is None:
        # Default to the site the trace covers best.
        counts: dict = {}
        for job in jobs:
            if job.target_site:
                counts[job.target_site] = counts.get(job.target_site, 0) + 1
        if not counts:
            raise CGSimError("the trace attributes no jobs to any site")
        site_name = max(counts, key=counts.get)
    site = infrastructure.site(site_name)
    site_jobs = [j for j in jobs if j.target_site == site_name]
    factors = [float(value) for value in args.factors.split(",") if value.strip()]
    analysis = SensitivityAnalysis(site, site_jobs, factors=factors, mode=args.mode)
    results = analysis.analyze()
    print(f"sensitivity study for {site_name} ({len(site_jobs)} jobs, factors {factors})")
    print(format_table([result.to_row() for result in results]))
    print()
    print(f"dominant parameter: {SensitivityAnalysis.dominant_parameter(results)}")
    return 0


def _cmd_compare_policies(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.core.simulator import Simulator
    from repro.plugins import available_policies
    from repro.workload.trace import load_trace

    infrastructure = load_infrastructure(args.infrastructure)
    topology = load_topology(args.topology)
    jobs = load_trace(args.trace)
    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    unknown = [name for name in policies if name not in available_policies()]
    if unknown:
        raise CGSimError(f"unknown policies {unknown}; see `cgsim policies`")
    rows = []
    for policy in policies:
        execution = ExecutionConfig(plugin=policy)
        result = Simulator(infrastructure, topology, execution).run(
            [job.copy_for_replay() for job in jobs]
        )
        metrics = result.metrics
        rows.append(
            {
                "policy": policy,
                "finished": metrics.finished_jobs,
                "failed": metrics.failed_jobs,
                "makespan_h": metrics.makespan / 3600.0,
                "mean_queue_min": metrics.mean_queue_time / 60.0,
                "throughput_jobs_per_h": metrics.throughput * 3600.0,
            }
        )
    print(format_table(rows))
    best = min(rows, key=lambda row: row["makespan_h"])
    print()
    print(f"shortest makespan: {best['policy']} ({best['makespan_h']:.2f} h)")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.plugins import available_plugins, plugin_families

    family = getattr(args, "family", "allocation")
    if family == "all":
        for family_name in plugin_families():
            for name in available_plugins(family_name):
                print(f"{family_name}:{name}")
        return 0
    for name in available_plugins(family):
        print(name)
    return 0


def _parse_csv(raw: str, cast, flag: str) -> list:
    """Parse a comma-separated CLI list, reporting bad items as a CGSimError."""
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(cast(item))
        except ValueError:
            raise CGSimError(f"invalid value {item!r} for {flag}") from None
    if not values:
        raise CGSimError(f"{flag} must list at least one value")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import RunSpec, SweepRunner, scenario_grid

    axes = {
        "sites": _parse_csv(args.sites, int, "--sites"),
        "policy": _parse_csv(args.policies, str, "--policies"),
        "failure_rate": _parse_csv(args.failure_rates, float, "--failure-rates"),
    }
    # Single-valued axes pin the base spec instead of widening scenario names.
    base = RunSpec(
        jobs=args.jobs,
        seed=args.seed,
        grid=args.grid,
        max_retries=args.max_retries,
    )
    for name in list(axes):
        if len(axes[name]) == 1:
            base = base.with_(**{name: axes.pop(name)[0]})
    specs = scenario_grid(base, replications=args.replications, **axes)

    runner = SweepRunner(n_workers=args.workers or None)
    print(
        f"Sweep: {len(specs)} runs "
        f"({len(specs) // max(1, args.replications)} scenarios x "
        f"{args.replications} replications) on {runner.n_workers} worker(s)"
    )
    sweep = runner.run(specs)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    print()
    print(sweep.table(metrics))
    print(
        f"\n{len(sweep.ok)}/{len(sweep)} runs succeeded "
        f"in {sweep.wallclock_seconds:.2f} s wall-clock"
    )
    for failed in sweep.failed:
        print(f"  failed: {failed.spec.label()}: {failed.error}", file=sys.stderr)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(sweep.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote per-run results to {args.output}")
    return 0 if not sweep.failed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.experiments.bench import (
        profile_callable,
        profile_flat,
        run_kernel_benchmarks,
    )

    if args.scale <= 0:
        raise CGSimError("--scale must be positive")
    if args.repeat < 1:
        raise CGSimError("--repeat must be >= 1")
    if args.json and not args.profile:
        raise CGSimError("--json formats the flat profile; it requires --profile")
    results = run_kernel_benchmarks(scale=args.scale, repeat=args.repeat)
    if not args.json:
        print(format_table([result.to_row() for result in results]))
    if args.profile:
        one_pass = lambda: run_kernel_benchmarks(scale=args.scale, repeat=1)
        if args.json:
            payload = {
                "scale": args.scale,
                "repeat": args.repeat,
                "results": [result.to_row() for result in results],
                "profile_sort": args.sort,
                "profile": profile_flat(one_pass, top=20, sort=args.sort),
            }
            print(json.dumps(payload, indent=2))
        else:
            print()
            print(
                "cProfile (one pass of every kernel workload, "
                f"top 20 by {args.sort} time):"
            )
            print(profile_callable(one_pass, top=20, sort=args.sort))
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "scale": args.scale,
            "repeat": args.repeat,
            "results": [result.to_row() for result in results],
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote rates to {args.output}")
    return 0


def _resolve_pack(reference: str):
    """Resolve a CLI pack reference: an existing file path, else a registry name."""
    from repro.scenarios import load_scenario_pack
    from repro.scenarios.loader import PACK_SUFFIXES

    path = Path(reference)
    if path.exists() or reference.endswith(PACK_SUFFIXES) or "/" in reference:
        return load_scenario_pack(path)
    from repro.scenarios import get_scenario_pack

    return get_scenario_pack(reference)


def _parse_overrides(pairs: List[str]) -> dict:
    """Parse repeated ``--set path=value`` flags (values are JSON when possible)."""
    overrides = {}
    for pair in pairs:
        path, separator, raw = pair.partition("=")
        if not separator or not path.strip():
            raise CGSimError(f"--set expects PATH=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[path.strip()] = value
    return overrides


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.scenarios import run_scenario_pack
    from repro.scenarios.registry import default_registry

    if args.scenario_command == "list":
        rows = []
        for pack in default_registry.packs():
            if args.tag is not None and args.tag not in pack.tags:
                continue
            rows.append(pack.summary_row())
        if rows:
            print(format_table(rows))
        else:
            print("no scenario packs found")
        for warning in default_registry.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return 0

    if args.scenario_command == "show":
        print(_resolve_pack(args.pack).to_json())
        return 0

    if args.scenario_command == "validate":
        failures = 0
        for reference in args.packs:
            try:
                pack = _resolve_pack(reference)
            except CGSimError as exc:
                failures += 1
                print(f"FAIL  {reference}: {exc}")
                continue
            runs = 1
            if pack.sweep is not None:
                runs = len(pack.sweep.combinations()) * pack.sweep.replications
            print(f"OK    {pack.name} ({pack.mode()}, {runs} run(s))")
        return 1 if failures else 0

    pack = _resolve_pack(args.pack)
    progress_fn = None
    if args.progress is not None:
        if pack.mode() == "single":
            progress_fn = _throttled_progress_printer(args.progress)
        else:
            print(
                f"note: --progress applies to single-run packs only "
                f"(this pack runs a {pack.mode()})",
                file=sys.stderr,
            )
    checkpoint_dir = args.checkpoint_dir
    checkpoint_every = None
    if checkpoint_dir is not None and pack.mode() == "calibration":
        print(
            "note: --checkpoint-dir applies to single-run and sweep packs "
            "only (this pack runs a calibration)",
            file=sys.stderr,
        )
        checkpoint_dir = None
    if args.checkpoint_every is not None and checkpoint_dir is not None:
        from repro.utils.units import parse_duration

        checkpoint_every = parse_duration(args.checkpoint_every)
    elif args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise CGSimError("--checkpoint-every requires --checkpoint-dir")
    outcome = run_scenario_pack(
        pack,
        workers=args.workers,
        overrides=_parse_overrides(args.overrides),
        progress=progress_fn,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    header = outcome.pack.title or outcome.pack.name
    print(f"scenario {outcome.pack.name} [{outcome.mode}]: {header}")
    print()
    print(outcome.render())
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(outcome.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote outcome to {args.output}")
    if not outcome.ok:
        assert outcome.sweep is not None
        for failed in outcome.sweep.failed:
            print(f"  failed: {failed.spec.label()}: {failed.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    from repro.schema import schema_json, schema_path, validate_pack_dict

    if args.schema_command == "emit":
        if args.update and args.output is not None:
            raise CGSimError("--update writes the committed path; drop --output")
        target = schema_path() if args.update else args.output
        if target is None:
            print(schema_json(), end="")
            return 0
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(schema_json(), encoding="utf-8")
        print(f"wrote schema to {target}")
        return 0

    if args.schema_command == "check":
        committed_path = schema_path()
        if not committed_path.exists():
            raise CGSimError(
                f"committed schema missing at {committed_path}; "
                "run `cgsim schema emit --update`")
        committed = committed_path.read_text(encoding="utf-8")
        if committed != schema_json():
            print(
                f"DRIFT  {committed_path} no longer matches the generated "
                "schema; run `cgsim schema emit --update` and commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"OK     {committed_path} matches the generated schema")
        return 0

    from repro.config.loaders import read_structured_file

    failures = 0
    for reference in args.packs:
        path = Path(reference)
        try:
            if path.exists():
                data = read_structured_file(path, "scenario pack")
            else:
                from repro.scenarios import get_scenario_pack

                data = get_scenario_pack(reference).to_dict()
        except CGSimError as exc:
            failures += 1
            print(f"FAIL  {reference}: {exc}")
            continue
        errors = validate_pack_dict(data)
        if errors:
            failures += 1
            print(f"FAIL  {reference}: {len(errors)} schema violation(s)")
            for error in errors:
                print(f"        {error}")
        else:
            print(f"OK    {reference}")
    return 1 if failures else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import render_reports, run_conformance

    reports = run_conformance(
        family=args.family,
        plugin=args.plugin,
        subprocess_checks=not args.no_subprocess,
        static_lint=args.static_lint,
    )
    if args.as_json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        print(render_reports(reports))
    return 0 if all(report.ok for report in reports) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run :mod:`repro.lint` per the CLI flags and print its report."""
    from repro.lint import run_lint
    from repro.lint.baseline import Baseline

    if args.no_baseline and args.baseline is not None:
        raise CGSimError("--no-baseline contradicts --baseline FILE")
    try:
        rules = list(args.rule)
        baseline = None if args.no_baseline else (args.baseline or "auto")
        if args.write_baseline is not None:
            baseline = None
        report = run_lint(args.paths, rules=rules, baseline=baseline)
    except (ValueError, FileNotFoundError) as exc:
        raise CGSimError(str(exc)) from exc
    if args.write_baseline is not None:
        target = args.write_baseline
        Baseline.from_findings(report.findings, root=target.parent).dump(target)
        print(
            f"wrote baseline with {len(report.findings)} finding(s) "
            f"to {target}"
        )
        return 0
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service in the foreground until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.service import ServiceConfig, ServiceServer

    checkpoint_every = None
    if args.checkpoint_every is not None:
        from repro.utils.units import parse_duration

        checkpoint_every = parse_duration(args.checkpoint_every)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_root=str(args.store_root) if args.store_root is not None else None,
        checkpoint_every=checkpoint_every,
        max_attempts=args.max_attempts,
    )

    async def _serve() -> None:
        server = ServiceServer(config)
        await server.start()
        print(
            f"serving on http://{config.host}:{server.port} "
            f"(workers={config.workers}, store={server.store.root})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("shutting down: draining active sessions ...", flush=True)
        await server.shutdown(drain=True)

    asyncio.run(_serve())
    print("service stopped")
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.host, args.port)


def _watch_session(client, session_id: str) -> int:
    """Print a session's event stream line by line until a terminal message."""
    from repro.service.models import (
        CheckpointMessage,
        ErrorMessage,
        ProgressMessage,
        ResultMessage,
        StateMessage,
    )

    status = 0
    for message in client.watch(session_id):
        if isinstance(message, StateMessage):
            line = f"state={message.state} attempts={message.attempts}"
            if message.detail:
                line += f" ({message.detail})"
        elif isinstance(message, ProgressMessage):
            line = (
                f"progress t={message.time:.0f}s "
                f"{message.completed_jobs}/{message.total_jobs} jobs done"
            )
        elif isinstance(message, CheckpointMessage):
            line = f"checkpoint {message.digest[:12]} t={message.time:.0f}s"
        elif isinstance(message, ResultMessage):
            line = (
                f"result state={message.state} "
                f"fingerprint={message.fingerprint} "
                f"simulated_time={message.simulated_time}"
            )
        elif isinstance(message, ErrorMessage):
            line = f"error {message.error}"
            status = 1
        else:  # pragma: no cover - future message kinds print their type
            line = message.TYPE
        print(f"[{session_id}] {line}", flush=True)
    return status


def _cmd_client(args: argparse.Namespace) -> int:
    """Dispatch ``cgsim client submit/status/watch/stop`` against a server."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.client_command == "submit":
            pack = _resolve_pack(args.pack)
            view = client.submit(
                pack.to_dict(),
                priority=args.priority,
                checkpoint_every=args.checkpoint_every,
                label=args.label,
            )
            print(f"submitted {view['id']} state={view['state']}")
            if args.watch:
                return _watch_session(client, view["id"])
            return 0
        if args.client_command == "status":
            if args.session is not None:
                views = [client.status(args.session)]
            else:
                views = client.sessions()
            if args.as_json:
                print(json.dumps(views if args.session is None else views[0],
                                 indent=2))
                return 0
            if not views:
                print("no sessions")
                return 0
            for view in views:
                fingerprint = view.get("fingerprint") or ""
                print(
                    f"{view['id']}  state={view['state']:<8} "
                    f"attempts={view['attempts']} "
                    f"checkpoints={view['checkpoints']}"
                    + (f"  fingerprint={fingerprint}" if fingerprint else "")
                )
            return 0
        if args.client_command == "watch":
            return _watch_session(client, args.session)
        if args.client_command == "stop":
            view = client.stop(args.session)
            print(f"{view['id']} state={view['state']}")
            return 0
        raise CGSimError(f"unknown client command {args.client_command!r}")
    except ServiceError as exc:
        raise CGSimError(f"service request failed: {exc}") from exc
    except ConnectionError as exc:
        raise CGSimError(
            f"cannot reach service at {args.host}:{args.port}: {exc}"
        ) from exc


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``cgsim`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-config": _cmd_generate_config,
        "generate-trace": _cmd_generate_trace,
        "run": _cmd_run,
        "resume": _cmd_resume,
        "calibrate": _cmd_calibrate,
        "sensitivity": _cmd_sensitivity,
        "compare-policies": _cmd_compare_policies,
        "policies": _cmd_policies,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "scenario": _cmd_scenario,
        "schema": _cmd_schema,
        "conformance": _cmd_conformance,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    try:
        return handlers[args.command](args)
    except CGSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Full-stack benchmark with per-layer attribution.

    python benchmarks/stack/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

With ``--workload`` it measures that workload in this (fresh) interpreter and
prints every metric by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (default) gives the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` is the separate traced run that gives the
per-layer metrics, and end-to-end numbers are never taken from it.

Without ``--workload`` it runs every workload in turn, each in its own child
interpreter (untraced, then traced when ``--trace`` is given), and prints one
combined JSON object; ``--out FILE`` also writes that object to a file.

The exit code is 0 only if every checked operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
#: Prefix of the line that carries a run's simulated statistics.
REFERENCE = "# reference: "


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _use_checkout_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` or fail.

    The benchmark measures the program it sits next to.  An installed copy
    from somewhere else would be measured silently instead, so its absence
    here is an error, not a fallback.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SOURCE / 'repro'} is missing")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import repro

    if SOURCE not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: 'repro' resolved to {repro.__file__}, outside this checkout")


def _print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:.6g} {metric['unit']}")


def _print_samples(samples: dict) -> None:
    for name, s in samples.items():
        print(
            f"  {name}: n={s['n']} min={s['min']:.5g} q1={s['q1']:.5g} "
            f"median={s['median']:.5g} q3={s['q3']:.5g} max={s['max']:.5g}"
        )


def child_pids() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # gone in between
            continue
        # "pid (comm) state ppid ..." -- comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def _stop_children() -> None:
    """End every process this run started and wait until each is gone.

    The service joins its own workers on ``close``.  What outlives it is
    multiprocessing's resource tracker, started with the first spawned
    worker: it ends only when every holder of its pipe has closed it, which
    for this process is normally interpreter exit -- so it is still there a
    moment *after* its parent is gone.  Close the pipe now, kill and reap
    whatever else is left (workers, if the run is being terminated or a
    shutdown failed half way), then reap the tracker; and look again, until
    there is no child left.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    while True:
        tracker_pid = tracker._pid
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
        children = child_pids()
        if not children:
            return
        for pid in sorted(children, key=lambda pid: pid == tracker_pid):
            _reap(pid, grace=5.0 if pid == tracker_pid else 0.0)


def _reap(pid: int, grace: float) -> None:
    """Wait up to ``grace`` seconds for child ``pid`` to end, then kill it; reap it."""
    deadline = time.monotonic() + grace
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
        pass


def _clean_up(root: Path) -> None:
    _stop_children()
    shutil.rmtree(root, ignore_errors=True)
    try:
        root.parent.rmdir()
    except OSError:  # another run is using it
        pass


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in this interpreter; returns the exit code."""
    _use_checkout_sources()
    import stages
    import workloads as wl

    workload = next((w for w in wl.WORKLOADS if w.name == name), None)
    if workload is None:
        raise SystemExit(
            f"error: unknown workload {name!r}; choose from "
            + ", ".join(w.name for w in wl.WORKLOADS)
        )
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    # Spawned service workers inherit the environment: keep their temporary
    # files inside the checkout too.
    os.environ["TMPDIR"] = str(root)
    tempfile.tempdir = str(root)
    scratch = stages.Scratch(root)
    print(f"# workload {name}: {workload.why}")
    print(f"# seed {seed}, {seconds:g} s, trace {'on' if trace else 'off'}")

    def terminated(signum, frame):
        # Not an exception: raised from a signal handler it can land in a
        # generator's finaliser and be swallowed there.  The service's
        # threads are still running and respawn a worker that dies, so take
        # their means to start one away first.
        multiprocessing.util.spawnv_passfds = None
        _clean_up(root)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    try:
        if trace:
            import layers

            traced = layers.measure_layers(workload, seed, seconds, scratch)
            metrics, tally = traced.metrics, traced.tally
            path = HERE / "results" / f"trace_{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(traced.dump, indent=1) + "\n", encoding="utf-8")
            print(f"# raw profile rows and package roll-up: {path.relative_to(ROOT)}")
            for line in traced.notes:
                print(f"# {line}")
        else:
            run = stages.measure_end_to_end(workload, seed, seconds, scratch)
            metrics, tally = stages.end_to_end_metrics(workload, run), run.tally
            print(f"# {len(run.rounds)} rounds; the samples behind the best values:")
            _print_samples({
                name: stages.spread(values)
                for name, values in stages.end_to_end_samples(workload, run).items()
            })
            _print_pinned(name, seed, run.cold)
    finally:
        _clean_up(root)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: declared metrics not measured: {missing}")
    metrics = {m["name"]: metrics[m["name"]] for m in declared}
    _print_metrics(metrics)
    failed = len(tally.failures)
    print(f"failed_share  {failed / tally.attempted:.6g} ({failed} of {tally.attempted} operations)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _print_pinned(name: str, seed: int, cold) -> None:
    """Print the cold run's simulated statistics; compare them with
    ``expected.json`` on the pinned seed (informational).

    A mismatch is not a failure -- numpy or platform drift moves fingerprints
    too -- but a speed-only change on the same machine must print 1 here.
    """
    import workloads as wl

    print(REFERENCE + json.dumps(cold.reference, sort_keys=True))
    if seed != wl.DEFAULT_SEED:
        return
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8")).get(name)
    if expected is not None:
        print(f"core.fingerprint_matches_pinned  {int(expected == cold.reference)}")


def run_all(seed: int, seconds: float, trace: bool, out: Path | None) -> int:
    """Every workload, one fresh child interpreter each, sequentially."""
    combined: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    status = 0
    for entry in _declared()["workloads"]:
        name = entry["name"]
        for traced in ([0, 1] if trace else [0]):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            lines = child.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"error: {name} (trace {traced}) printed no result, exit {child.returncode}")
                status = 1
                continue
            status = status or child.returncode
            attempted += result["attempted"]
            failed += result["failed"]
            slot = combined["workloads"].setdefault(name, {})
            slot["per_layer" if traced else "end_to_end"] = result
            for line in lines:
                if line.startswith(REFERENCE):
                    slot["reference"] = json.loads(line[len(REFERENCE):])
    combined.update(correct=failed == 0 and status == 0, attempted=attempted, failed=failed)
    text = json.dumps(combined)
    if out is not None:
        out.write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    print(text)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in this interpreter")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run (all workloads: both runs)")
    parser.add_argument("--out", type=Path, help="all workloads: also write the combined JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else float(_declared()["run_seconds"])
    if args.seed is None:
        sys.path.insert(0, str(HERE))
        import workloads as wl

        args.seed = wl.DEFAULT_SEED
    if args.workload:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args.seed, seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the stack benchmark itself, at shrunken sizes.

    python -m pytest benchmarks/stack -q

Not part of tier-1 (``testpaths`` pins that to ``tests/``): it boots real
services and takes a couple of minutes.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from run import child_pids  # noqa: E402
import stages  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(HERE / "run.py")]
#: ``prctl`` option (linux/prctl.h): orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36


def shrunk(workload: wl.Workload) -> wl.Workload:
    """The same family at a twentieth of the size, one burst of four."""
    return dataclasses.replace(
        workload,
        jobs=max(60, workload.jobs // 20),
        medium_jobs=min(workload.medium_jobs, 30),
        burst=4,
        service_boots=min(workload.service_boots, 2),
    )


def check_metrics(metrics: dict, declared: list) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for entry in declared:
        metric = metrics[entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert UNIT.fullmatch(metric["unit"])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_declaration_is_consistent():
    assert DECLARED["paths"] == ["benchmarks/stack"]
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS
    ]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_packs_depend_on_the_seed_only():
    for workload in wl.WORKLOADS:
        assert wl.main_pack(workload, 5) == wl.main_pack(workload, 5)
        # service_mix is fixed traffic (see workloads._service_mix).
        seeded = workload.name != "service_mix"
        assert (wl.main_pack(workload, 5) != wl.main_pack(workload, 6)) == seeded


@pytest.mark.parametrize("workload", wl.WORKLOADS, ids=lambda w: w.name)
def test_end_to_end_run_reports_every_declared_metric(workload, tmp_path):
    small = shrunk(workload)
    run = stages.measure_end_to_end(small, seed=3, seconds=1.0, scratch=stages.Scratch(tmp_path))
    metrics = stages.end_to_end_metrics(small, run)
    check_metrics(metrics, DECLARED["end_to_end"])
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert run.tally.attempted > 0 and run.tally.failures == []


@pytest.mark.parametrize("workload", wl.WORKLOADS, ids=lambda w: w.name)
def test_traced_run_reports_every_declared_metric(workload, tmp_path):
    small = shrunk(workload)
    traced = layers.measure_layers(small, seed=3, seconds=1.0, scratch=stages.Scratch(tmp_path))
    check_metrics(traced.metrics, DECLARED["per_layer"])
    assert traced.tally.failures == []
    shares = [m["value"] for name, m in traced.metrics.items() if name.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 0.01 and min(shares) >= 0.0
    assert traced.metrics["trace.overhead_ratio"]["value"] > 1.0
    assert traced.metrics["core.dispatch_calls"]["value"] >= small.jobs
    if workload.name == "replay_batch":
        # Nothing is ever parked there, so the view is built once per dispatch.
        assert (
            traced.metrics["core.resource_view_calls"]["value"]
            == traced.metrics["core.dispatch_calls"]["value"]
        )
    assert json.loads(json.dumps(traced.dump))["functions"]


def test_a_corrupted_fingerprint_is_a_failed_operation(monkeypatch, tmp_path):
    workload = shrunk(wl.WORKLOADS[0])
    calls = []

    def corrupting(result):
        # Main-pack results only: the cold run, the restored run, then the repeats.
        calls.extend([1] if len(result.jobs) == workload.jobs else [])
        fingerprint = stages_fingerprint(result)
        return fingerprint[::-1] if len(calls) == 3 else fingerprint

    stages_fingerprint = stages.fingerprint_result
    monkeypatch.setattr(stages, "fingerprint_result", corrupting)
    run = stages.measure_end_to_end(workload, seed=3, seconds=0.0, scratch=stages.Scratch(tmp_path))
    assert len(run.tally.failures) == 1 and "fingerprint" in run.tally.failures[0]
    assert len(run.tally.failures) / run.tally.attempted > 0


def test_command_prints_each_metric_once_and_one_result_line():
    # As a subreaper this process inherits whatever outlives the command, dead
    # or alive: a process the command left behind shows as a new child here.
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        before = set(child_pids())
        done = subprocess.run(
            RUN + ["--workload", "data_cache", "--seed", "4", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT,
        )
        left = set(child_pids()) - before
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    for pid in left:
        os.waitpid(pid, 0)
    assert not left
    assert done.returncode == 0
    lines = done.stdout.strip().splitlines()
    for entry in DECLARED["end_to_end"]:
        rows = [line for line in lines[:-1] if line.split()[:1] == [entry["name"]]]
        assert len(rows) == 1 and rows[0].split()[-1] == entry["unit"], entry["name"]
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result["metrics"], DECLARED["end_to_end"])
    assert not (HERE / ".work").exists() or not any((HERE / ".work").iterdir())


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "stack",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload", "replay_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

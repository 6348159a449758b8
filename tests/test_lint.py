"""Tests for the static determinism & correctness analyzer (repro.lint).

Each rule family gets a fixture suite -- a positive case the rule must
flag, a negative case it must not, a suppressed case, and an
aliased-import case proving resolution is alias-aware -- plus engine,
suppression and baseline mechanics, the seeded-bug acceptance cases from
the issue, and a self-check that the committed tree is lint-clean modulo
the committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_RNG_ALLOWLIST,
    Baseline,
    all_rules,
    collect_files,
    discover_baseline,
    load_baseline,
    parse_suppressions,
    run_lint,
    select_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def lint_source(tmp_path: Path, source: str, rules=(), name="module.py"):
    """Write ``source`` to a file and lint it with no baseline."""
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return run_lint([target], rules=rules, baseline=None)


def rule_ids(report):
    return sorted({finding.rule for finding in report.findings})


# -- determinism family ----------------------------------------------------------


class TestGlobalRngRule:
    def test_flags_global_stdlib_random_call(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "def pick(items):\n"
            "    return items[random.randrange(len(items))]\n",
            rules=["det-global-rng"],
        )
        assert rule_ids(report) == ["det-global-rng"]
        assert report.findings[0].line == 3

    def test_flags_aliased_numpy_random(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy.random as npr\n"
            "def draw():\n"
            "    return npr.default_rng().random()\n",
            rules=["det-global-rng"],
        )
        assert rule_ids(report) == ["det-global-rng"]
        assert "numpy.random.default_rng" in report.findings[0].message

    def test_flags_np_dot_random_attribute_chain(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.rand()\n",
            rules=["det-global-rng"],
        )
        assert rule_ids(report) == ["det-global-rng"]

    def test_injected_generator_is_not_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def pick(rng, items):\n"
            "    return items[int(rng.integers(len(items)))]\n",
            rules=["det-global-rng"],
        )
        assert report.ok

    def test_shadowed_name_is_not_the_module(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "def pick(random, items):\n"
            "    return items[random.choice()]\n",
            rules=["det-global-rng"],
        )
        assert report.ok

    def test_allowlisted_module_is_exempt(self, tmp_path):
        rng_dir = tmp_path / "repro" / "utils"
        rng_dir.mkdir(parents=True)
        (rng_dir / "rng.py").write_text(
            "import numpy.random\n"
            "def fresh(seed):\n"
            "    return numpy.random.default_rng(seed)\n",
            encoding="utf-8",
        )
        report = run_lint(
            [rng_dir / "rng.py"], rules=["det-global-rng"], baseline=None
        )
        assert report.ok

    def test_suppressed_with_reason(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "def jitter():\n"
            "    return random.random()  "
            "# cgsim: lint-ignore[det-global-rng] demo of a wrong pattern\n",
            rules=["det-global-rng"],
        )
        assert report.ok
        assert report.suppressed == 1


class TestRandomImportRule:
    def test_flags_bare_import(self, tmp_path):
        report = lint_source(
            tmp_path, "import random\n", rules=["det-random-import"]
        )
        assert rule_ids(report) == ["det-random-import"]

    def test_flags_from_import(self, tmp_path):
        report = lint_source(
            tmp_path, "from random import choice\n", rules=["det-random-import"]
        )
        assert rule_ids(report) == ["det-random-import"]

    def test_other_modules_pass(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import randomness_helper\nfrom mymod import random_walk\n",
            rules=["det-random-import"],
        )
        assert report.ok

    def test_allowlist_matches_rng_layer(self):
        assert "repro/utils/rng.py" in DEFAULT_RNG_ALLOWLIST
        assert "repro/conformance/checks.py" in DEFAULT_RNG_ALLOWLIST
        # The demo plugins are baselined, not allow-listed: a baseline-free
        # run (conformance --lint) must still flag them.
        assert not any("demo" in entry for entry in DEFAULT_RNG_ALLOWLIST)


class TestSetIterationRule:
    def test_flags_for_loop_over_set_literal(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def names(sites):\n"
            "    out = []\n"
            "    for site in {'a', 'b', 'c'}:\n"
            "        out.append(site)\n"
            "    return out\n",
            rules=["det-set-iter"],
        )
        assert rule_ids(report) == ["det-set-iter"]
        assert report.findings[0].line == 3

    def test_flags_list_over_set_typed_local(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def dedupe(items):\n"
            "    unique = set(items)\n"
            "    return list(unique)\n",
            rules=["det-set-iter"],
        )
        assert rule_ids(report) == ["det-set-iter"]

    def test_flags_next_iter_and_set_pop(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def pick(candidates: set):\n"
            "    first = next(iter(candidates))\n"
            "    second = candidates.pop()\n"
            "    return first, second\n",
            rules=["det-set-iter"],
        )
        assert len(report.findings) == 2
        assert rule_ids(report) == ["det-set-iter"]

    def test_sorted_and_membership_pass(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def ordered(items):\n"
            "    unique = set(items)\n"
            "    if 'x' in unique:\n"
            "        return sorted(unique)\n"
            "    return len(unique), min(unique)\n",
            rules=["det-set-iter"],
        )
        assert report.ok

    def test_set_in_another_function_does_not_taint_name(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def inner(items):\n"
            "    region = set(items)\n"
            "    return len(region)\n"
            "def outer(regions):\n"
            "    return tuple(tuple(region) for region in regions)\n",
            rules=["det-set-iter"],
        )
        assert report.ok

    def test_dict_views_are_not_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def keys(mapping):\n"
            "    return list(mapping.keys())\n",
            rules=["det-set-iter"],
        )
        assert report.ok


class TestWallClockRule:
    def test_flags_time_time(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            rules=["det-wall-clock"],
        )
        assert rule_ids(report) == ["det-wall-clock"]

    def test_flags_from_import_datetime_now(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n",
            rules=["det-wall-clock"],
        )
        assert rule_ids(report) == ["det-wall-clock"]

    def test_monotonic_telemetry_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "def took():\n"
            "    start = time.monotonic()\n"
            "    return time.perf_counter() - start\n",
            rules=["det-wall-clock"],
        )
        assert report.ok


# -- snapshot family -------------------------------------------------------------


SNAPSHOT_POSITIVE = (
    "class Gauge:\n"
    "    __slots__ = ('value', 'samples')\n"
    "    def __init__(self):\n"
    "        self.value = 0\n"
    "        self.samples = []\n"
    "    def record(self, n):\n"
    "        self.value = n\n"
    "        self.samples.append(n)\n"
    "    def snapshot(self):\n"
    "        return {'value': self.value}\n"
    "    def restore(self, state):\n"
    "        self.value = state['value']\n"
)


class TestSnapshotCoverageRule:
    def test_flags_mutable_slot_missing_from_snapshot(self, tmp_path):
        report = lint_source(
            tmp_path, SNAPSHOT_POSITIVE, rules=["snap-field-coverage"]
        )
        assert rule_ids(report) == ["snap-field-coverage"]
        finding = report.findings[0]
        assert "samples" in finding.message
        assert "Gauge" in finding.message
        assert finding.line == 9  # the `def snapshot` line

    def test_covered_fields_pass(self, tmp_path):
        covered = SNAPSHOT_POSITIVE.replace(
            "return {'value': self.value}",
            "return {'value': self.value, 'samples': list(self.samples)}",
        )
        report = lint_source(tmp_path, covered, rules=["snap-field-coverage"])
        assert report.ok

    def test_string_key_mention_counts_for_private_field(self, tmp_path):
        report = lint_source(
            tmp_path,
            "class Clock:\n"
            "    def __init__(self):\n"
            "        self._now = 0.0\n"
            "    def advance(self, dt):\n"
            "        self._now += dt\n"
            "    def snapshot(self):\n"
            "        return {'now': self._now}\n"
            "    def restore(self, state):\n"
            "        assert state['now'] == self._now\n",
            rules=["snap-field-coverage"],
        )
        assert report.ok

    def test_parameter_bound_config_fields_are_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "class Runner:\n"
            "    def __init__(self, env, limit):\n"
            "        self.env = env\n"
            "        self.limit = limit\n"
            "        self.done = 0\n"
            "    def step(self):\n"
            "        self.done += 1\n"
            "        self.env = None\n"
            "    def snapshot(self):\n"
            "        return {'done': self.done}\n"
            "    def restore(self, state):\n"
            "        self.done = state['done']\n",
            rules=["snap-field-coverage"],
        )
        assert report.ok

    def test_never_mutated_fields_are_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "class Fixed:\n"
            "    def __init__(self):\n"
            "        self.table = build_table()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "    def snapshot(self):\n"
            "        return {'count': self.count}\n"
            "    def restore(self, state):\n"
            "        self.count = state['count']\n",
            rules=["snap-field-coverage"],
        )
        assert report.ok

    def test_classes_without_the_protocol_are_ignored(self, tmp_path):
        report = lint_source(
            tmp_path,
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def push(self, x):\n"
            "        self.items.append(x)\n",
            rules=["snap-field-coverage"],
        )
        assert report.ok

    def test_own_line_suppression_above_def_silences_class(self, tmp_path):
        suppressed = SNAPSHOT_POSITIVE.replace(
            "    def snapshot(self):",
            "    # cgsim: lint-ignore[snap-field-coverage] samples are "
            "replay-derived\n"
            "    def snapshot(self):",
        )
        report = lint_source(
            tmp_path, suppressed, rules=["snap-field-coverage"]
        )
        assert report.ok
        assert report.suppressed == 1


# -- async family ----------------------------------------------------------------


class TestAsyncBlockingCallRule:
    def test_flags_time_sleep_in_async_def(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "async def pump():\n"
            "    time.sleep(0.1)\n",
            rules=["async-blocking-call"],
        )
        assert rule_ids(report) == ["async-blocking-call"]
        assert report.findings[0].line == 3
        assert "asyncio.sleep" in report.findings[0].hint

    def test_flags_aliased_from_import_sleep(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from time import sleep\n"
            "async def pump():\n"
            "    sleep(1)\n",
            rules=["async-blocking-call"],
        )
        assert rule_ids(report) == ["async-blocking-call"]

    def test_flags_open_and_path_io(self, tmp_path):
        report = lint_source(
            tmp_path,
            "async def load(path):\n"
            "    with open(path) as handle:\n"
            "        head = handle\n"
            "    return path.read_text()\n",
            rules=["async-blocking-call"],
        )
        assert len(report.findings) == 2

    def test_awaited_asyncio_sleep_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import asyncio\n"
            "async def pump():\n"
            "    await asyncio.sleep(0.1)\n",
            rules=["async-blocking-call"],
        )
        assert report.ok

    def test_nested_sync_def_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "async def pump(loop):\n"
            "    def blocking():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, blocking)\n",
            rules=["async-blocking-call"],
        )
        assert report.ok

    def test_sync_def_is_not_checked(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "def pause():\n"
            "    time.sleep(1)\n",
            rules=["async-blocking-call"],
        )
        assert report.ok


# -- pickle family ---------------------------------------------------------------


class TestPickleSafetyRule:
    def test_flags_lambda_to_executor_submit(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(lambda x: x + 1, i) for i in items]\n",
            rules=["pickle-unsafe-callable"],
        )
        assert rule_ids(report) == ["pickle-unsafe-callable"]
        assert "lambda" in report.findings[0].message

    def test_flags_local_function_to_parallel_map(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from repro.experiments import parallel_map\n"
            "def run(specs):\n"
            "    def work(spec):\n"
            "        return spec.run()\n"
            "    return parallel_map(work, specs)\n",
            rules=["pickle-unsafe-callable"],
        )
        assert rule_ids(report) == ["pickle-unsafe-callable"]
        assert "locally-defined function 'work'" in report.findings[0].message

    def test_flags_partial_over_lambda_to_process(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import functools\n"
            "import multiprocessing\n"
            "def launch():\n"
            "    target = functools.partial(lambda x: x, 1)\n"
            "    job = multiprocessing.Process(\n"
            "        target=functools.partial(lambda x: x, 1))\n"
            "    return job\n",
            rules=["pickle-unsafe-callable"],
        )
        assert rule_ids(report) == ["pickle-unsafe-callable"]
        assert "functools.partial over a lambda" in report.findings[0].message

    def test_module_level_function_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + 1\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n",
            rules=["pickle-unsafe-callable"],
        )
        assert report.ok

    def test_thread_like_receivers_are_not_pools(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def run(queue, items):\n"
            "    return queue.map(lambda x: x, items)\n",
            rules=["pickle-unsafe-callable"],
        )
        assert report.ok


# -- suppression mechanics -------------------------------------------------------


class TestSuppressions:
    def test_parse_extracts_rules_reason_and_own_line(self):
        found = parse_suppressions(
            "x = 1  # cgsim: lint-ignore[det-set-iter] ordering is checked\n"
            "# cgsim: lint-ignore[det-global-rng, det-wall-clock] demo code\n"
        )
        assert found[1].rules == ("det-set-iter",)
        assert found[1].reason == "ordering is checked"
        assert not found[1].own_line
        assert found[2].rules == ("det-global-rng", "det-wall-clock")
        assert found[2].own_line

    def test_docstring_describing_the_syntax_is_not_a_suppression(self):
        found = parse_suppressions(
            '"""Write # cgsim: lint-ignore[rule-id] reason to suppress."""\n'
        )
        assert found == {}

    def test_bare_ignore_is_itself_a_finding(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random  # cgsim: lint-ignore[det-random-import]\n",
        )
        assert "lint-bare-ignore" in rule_ids(report)
        # The reason-less ignore does NOT silence the original finding.
        assert "det-random-import" in rule_ids(report)

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        report = lint_source(
            tmp_path,
            "x = 1  # cgsim: lint-ignore[det-tpyo] because reasons\n",
        )
        assert "lint-unknown-rule" in rule_ids(report)

    def test_trailing_comment_does_not_cover_the_next_line(self, tmp_path):
        report = lint_source(
            tmp_path,
            "x = 1  # cgsim: lint-ignore[det-random-import] wrong line\n"
            "import random\n",
            rules=["det-random-import"],
        )
        assert "det-random-import" in rule_ids(report)

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random  # cgsim: lint-ignore[det-set-iter] mismatched id\n",
            rules=["det-random-import", "det-set-iter"],
        )
        assert "det-random-import" in rule_ids(report)


# -- baseline mechanics ----------------------------------------------------------


class TestBaseline:
    def seeded_file(self, tmp_path):
        target = tmp_path / "seeded.py"
        target.write_text(
            "import random\n"
            "def pick(items):\n"
            "    return items[random.randrange(len(items))]\n",
            encoding="utf-8",
        )
        return target

    def test_baseline_absorbs_recorded_findings(self, tmp_path):
        target = self.seeded_file(tmp_path)
        raw = run_lint([target], baseline=None)
        assert not raw.ok
        baseline = Baseline.from_findings(raw.findings, root=tmp_path)
        report = run_lint([target], baseline=baseline)
        assert report.ok
        assert report.baselined == len(raw.findings)

    def test_new_findings_beyond_the_count_still_fail(self, tmp_path):
        target = self.seeded_file(tmp_path)
        raw = run_lint([target], baseline=None)
        baseline = Baseline.from_findings(raw.findings, root=tmp_path)
        target.write_text(
            target.read_text() + "def more():\n    return random.random()\n",
            encoding="utf-8",
        )
        report = run_lint([target], baseline=baseline)
        assert not report.ok
        assert len(report.findings) == 1

    def test_stale_entries_fail_the_ratchet(self, tmp_path):
        target = self.seeded_file(tmp_path)
        raw = run_lint([target], baseline=None)
        baseline = Baseline.from_findings(raw.findings, root=tmp_path)
        target.write_text("X = 1\n", encoding="utf-8")  # all findings fixed
        report = run_lint([target], baseline=baseline)
        assert not report.ok
        assert report.stale_baseline
        assert "shrink" in report.render()

    def test_stale_check_skips_unscanned_files(self, tmp_path):
        target = self.seeded_file(tmp_path)
        raw = run_lint([target], baseline=None)
        baseline = Baseline.from_findings(raw.findings, root=tmp_path)
        other = tmp_path / "other.py"
        other.write_text("X = 1\n", encoding="utf-8")
        report = run_lint([other], baseline=baseline)
        assert report.ok

    def test_dump_load_round_trip_and_discovery(self, tmp_path):
        target = self.seeded_file(tmp_path)
        raw = run_lint([target], baseline=None)
        baseline = Baseline.from_findings(raw.findings, root=tmp_path)
        path = tmp_path / "lint-baseline.json"
        baseline.dump(path)
        assert load_baseline(path).entries == baseline.entries
        assert discover_baseline([target]) == path
        assert run_lint([target], baseline="auto").ok

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text('{"entries": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a cgsim lint baseline"):
            load_baseline(path)


# -- engine mechanics ------------------------------------------------------------


class TestEngine:
    def test_collect_files_skips_pycache_and_dot_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("X = 1\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "mod.py").write_text("X = 1\n")
        files = collect_files([tmp_path / "pkg"])
        assert files == [tmp_path / "pkg" / "mod.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nope"])

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        (tmp_path / "fine.py").write_text("import random\n", encoding="utf-8")
        report = run_lint([tmp_path], baseline=None)
        assert "lint-parse-error" in rule_ids(report)
        # The broken file did not hide the other file's finding.
        assert "det-random-import" in rule_ids(report)

    def test_select_rules_by_family_and_id(self):
        determinism = select_rules(["determinism"])
        assert {rule.id for rule in determinism} == {
            "det-global-rng", "det-random-import", "det-set-iter",
            "det-wall-clock",
        }
        assert [rule.id for rule in select_rules(["async-blocking-call"])] == [
            "async-blocking-call"
        ]
        assert len(select_rules([])) == len(all_rules())

    def test_select_rules_rejects_unknown_tokens(self):
        with pytest.raises(ValueError, match="unknown rule or family"):
            select_rules(["det-tpyo"])

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.id and rule.family and rule.short
            assert rule.__doc__ and len(rule.__doc__.strip()) > 60, (
                f"rule {rule.id} needs a substantive docstring; it is the "
                "published rationale docs/lint.md renders"
            )


# -- seeded-bug acceptance cases -------------------------------------------------


class TestSeededBugAcceptance:
    """The issue's acceptance bugs, verified through the CLI text and JSON."""

    def run_cli(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def seed(self, tmp_path, name, source):
        target = tmp_path / name
        target.write_text(source, encoding="utf-8")
        return target

    def assert_finding(self, capsys, tmp_path, target, rule, line):
        code, text = self.run_cli(
            capsys, ["lint", str(target), "--no-baseline"]
        )
        assert code == 1
        assert f"{target}:{line}" in text
        assert rule in text
        code, raw = self.run_cli(
            capsys, ["lint", str(target), "--no-baseline", "--json"]
        )
        assert code == 1
        document = json.loads(raw)
        assert not document["ok"]
        assert any(
            f["rule"] == rule and f["line"] == line
            and f["path"] == str(target)
            for f in document["findings"]
        ), document["findings"]

    def test_global_rng_plugin(self, tmp_path, capsys):
        target = self.seed(
            tmp_path, "plugin.py",
            "import numpy as np\n"
            "class Wobbly:\n"
            "    def victim(self, candidates):\n"
            "        return candidates[int(np.random.rand() * 3)]\n",
        )
        self.assert_finding(capsys, tmp_path, target, "det-global-rng", 4)

    def test_snapshottable_missing_slot(self, tmp_path, capsys):
        target = self.seed(tmp_path, "gauge.py", SNAPSHOT_POSITIVE)
        self.assert_finding(
            capsys, tmp_path, target, "snap-field-coverage", 9
        )

    def test_time_sleep_in_async_def(self, tmp_path, capsys):
        target = self.seed(
            tmp_path, "service.py",
            "import time\n"
            "async def poll():\n"
            "    time.sleep(0.5)\n",
        )
        self.assert_finding(
            capsys, tmp_path, target, "async-blocking-call", 3
        )

    def test_lambda_across_spawn_boundary(self, tmp_path, capsys):
        target = self.seed(
            tmp_path, "fanout.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda x: x, items))\n",
        )
        self.assert_finding(
            capsys, tmp_path, target, "pickle-unsafe-callable", 4
        )


# -- whole-tree self-check -------------------------------------------------------


class TestSourceTreeSelfCheck:
    def test_src_repro_is_lint_clean_modulo_baseline(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        report = run_lint([SRC_ROOT], baseline=baseline)
        assert report.ok, "\n" + report.render()
        # A ratchet: new state is snapshotted or self-audited, not suppressed.
        assert report.suppressed <= 5

    def test_baseline_covers_only_the_demo_plugins(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert all(
            key.endswith("conformance/demo.py") for key in baseline.entries
        ), (
            "the committed baseline may only absorb the deliberately broken "
            "conformance demo plugins; fix or suppress anything else: "
            f"{sorted(baseline.entries)}"
        )

    def test_every_suppression_in_tree_names_a_rule_and_reason(self):
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for suppression in parse_suppressions(
                path.read_text(encoding="utf-8")
            ).values():
                assert suppression.rules and suppression.reason, (
                    f"{path}:{suppression.line}: bare lint-ignore"
                )

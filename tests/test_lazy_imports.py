"""A process imports what it runs.

``repro/__init__.py`` and the subpackages a service worker loads resolve
their public names on first use (PEP 562, :func:`repro.lazy_exports`), and
the runtime needs numpy alone.  These tests start a fresh interpreter per
case, with ``PYTHONPATH`` pointing at ``src``, and assert on the modules
that end up in ``sys.modules``: a count of modules, unlike a time, does not
depend on how loaded the machine is.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def _lazy_packages() -> List[str]:
    """Every package whose ``__init__`` binds its hooks with ``lazy_exports``."""
    inits = sorted((SRC / "repro").glob("**/__init__.py"))
    return [
        ".".join(path.parent.relative_to(SRC).parts)
        for path in inits
        if "= lazy_exports(__name__, _EXPORTS" in path.read_text(encoding="utf-8")
    ]


LAZY_PACKAGES = _lazy_packages()

#: Subpackages the simulation core must not pull in.
NOT_IN_THE_CORE = (
    "calibration",
    "experiments",
    "analysis",
    "lint",
    "atlas",
    "mldata",
    "conformance",
    "service",
)


def _run(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that sees only ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout


def _loaded_after(statement: str) -> List[str]:
    """Names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    return _run(f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))").split()


def _top_level(modules: List[str]) -> set:
    return {name.split(".")[0] for name in modules}


def _repro_modules(modules: List[str]) -> List[str]:
    return [name for name in modules if name == "repro" or name.startswith("repro.")]


def test_import_repro_loads_nothing_else():
    modules = _loaded_after("import repro")
    assert _repro_modules(modules) == ["repro"]
    assert "numpy" not in _top_level(modules)


def test_import_des_loads_the_kernel_and_utils_only():
    modules = _repro_modules(_loaded_after("import repro.des"))
    assert "repro.des.core" in modules
    strays = [
        name
        for name in modules
        if name != "repro" and not name.startswith(("repro.des", "repro.utils"))
    ]
    assert not strays, f"import repro.des loaded {strays}"


@pytest.mark.parametrize("module", ["repro.core.simulator", "repro.service.workers", "repro.cli"])
def test_entry_points_load_neither_scipy_nor_networkx(module):
    found = _top_level(_loaded_after(f"import {module}")) & {"scipy", "networkx"}
    assert not found, f"import {module} loaded {sorted(found)}"


def test_the_simulator_loads_no_tooling_subpackage():
    modules = _repro_modules(_loaded_after("import repro.core.simulator"))
    tooling = sorted(
        name for name in modules if name.split(".")[1:2] and name.split(".")[1] in NOT_IN_THE_CORE
    )
    assert not tooling, f"import repro.core.simulator loaded {tooling}"


#: What a service worker must not load: it runs sessions, never the server,
#: the client, sweeps, calibration, the schema validator or a profiler.
NOT_IN_A_WORKER = (
    "repro.analysis",
    "repro.calibration",
    "repro.experiments",
    "repro.conformance",
    "repro.lint",
    "repro.mldata",
    "repro.schema.validator",
    "repro.schema.sampler",
    "repro.service.server",
    "repro.service.client",
    "repro.service.harness",
    "repro.service.models",
    "repro.monitoring.dashboard",
    "cProfile",
    "asyncio",
    "http",
)

#: What ``worker_main`` does before it reports ``worker-online``.
BOOT = "import repro.service.workers as w\nw.load_session_path()"


def _under(modules: List[str], roots) -> List[str]:
    return sorted(m for m in modules if any(m == r or m.startswith(r + ".") for r in roots))


def test_a_worker_boots_the_session_path_and_no_tooling():
    modules = _loaded_after(BOOT)
    assert not _under(modules, NOT_IN_A_WORKER)
    from repro.service.workers import SESSION_PATH

    assert set(SESSION_PATH) <= set(modules)


def test_the_cli_loads_no_tooling():
    """A ``cgsim serve`` worker re-runs the console script, so it imports this."""
    modules = _loaded_after("import repro.cli")
    assert not _under(modules, ("repro.analysis", "repro.calibration", "repro.experiments"))
    assert not _under(modules, ("repro.atlas", "repro.monitoring.dashboard", "numpy"))


#: One served session in a fresh interpreter after the worker's boot imports;
#: prints the last event's type and every module the session added.
SESSION = """
import json, sys
{boot}
from repro.service.store import ArtifactStore

class Pipe(list):
    send = list.append

    def poll(self):
        return False

def loaded():
    return {{m for m in sys.modules if m.split(".")[0] in ("repro", "numpy")}}

before = loaded()
pipe = Pipe()
w._run_job(0, {job!r}, pipe, pipe, ArtifactStore({store!r}))
print(json.dumps([pipe[-1]["type"], sorted(loaded() - before)]))
"""


def _session_jobs(tmp_path: Path) -> Dict[str, dict]:
    """One job of each session kind a worker serves, keyed by kind."""
    from repro.config.generators import generate_grid
    from repro.service import tiny_pack
    from repro.workload.generator import SyntheticWorkloadGenerator
    from repro.workload.trace import save_trace

    trace = tmp_path / "trace.csv"
    infrastructure, _ = generate_grid(2, seed=1)
    save_trace(SyntheticWorkloadGenerator(infrastructure, seed=3).generate(20), trace)
    wlcg_panda = {
        "name": "wlcg-panda",
        "grid": {"kind": "wlcg", "sites": 10},
        "workload": {"generator": "panda", "jobs": 60, "seed": 3},
        "execution": {
            "plugin": "panda_dispatcher",
            "monitoring": {"enable_events": True, "snapshot_interval": 300.0},
            "output": {
                "sqlite_path": str(tmp_path / "out" / "run.sqlite"),
                "csv_directory": str(tmp_path / "out" / "csv"),
            },
        },
    }
    packs = {
        "tiny": tiny_pack(),
        "wlcg_panda": wlcg_panda,
        "data_cache": {
            "name": "data-cache",
            "grid": {"kind": "wlcg", "sites": 10},
            "workload": {"generator": "panda", "jobs": 60, "seed": 3},
            "execution": {"plugin": "data_aware"},
            "data": {
                "datasets": 20,
                "assignment": "zipf",
                "cache": {"capacity": 100e9, "policy": "lru", "replication": "static_n"},
            },
        },
        "faults": {
            "name": "faults",
            "grid": {"kind": "synthetic", "sites": 3, "seed": 1},
            "workload": {"jobs": 60, "seed": 3},
            "execution": {"plugin": "least_loaded", "max_retries": 3},
            "faults": {
                "job_failures": {"default_rate": 0.2, "seed": 4},
                "outages": [{"site": "SITE_000", "start": 100, "end": 2000}],
                "outage_model": {
                    "horizon": "2d",
                    "mean_time_between_failures": "1d",
                    "mean_time_to_repair": "2h",
                },
            },
        },
        "trace": {
            "name": "trace",
            "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
            "workload": {"trace": str(trace)},
            "execution": {"plugin": "round_robin"},
        },
    }
    return {kind: {"id": kind, "pack": pack} for kind, pack in packs.items()}


def _middle_checkpoint(job: dict, store: Path) -> str:
    """Serve ``job`` in this process and return its middle checkpoint's digest."""
    from repro.service import workers
    from repro.service.store import ArtifactStore

    events: list = []

    class Pipe:
        send = events.append

        @staticmethod
        def poll() -> bool:
            return False

    workers._run_job(0, job, Pipe, Pipe, ArtifactStore(str(store)))
    digests = [event["digest"] for event in events if event["type"] == "checkpoint"]
    assert events[-1]["type"] == "result" and digests
    return digests[len(digests) // 2]


@pytest.mark.parametrize(
    "kind", ["tiny", "wlcg_panda", "data_cache", "faults", "trace", "resume"]
)
def test_online_means_ready_no_session_imports_anything(kind, tmp_path):
    """After the boot imports a session of any kind loads no repro or numpy module."""
    jobs = _session_jobs(tmp_path)
    store = tmp_path / "store"
    if kind == "resume":
        job = dict(jobs["tiny"], resume=_middle_checkpoint(jobs["tiny"], store))
    else:
        job = jobs[kind]
    last, added = json.loads(_run(SESSION.format(boot=BOOT, job=job, store=str(store))))
    assert last == "result"
    assert added == []


def _table_names(package) -> Set[str]:
    return {name for names in package._EXPORTS.values() for name in names}


def _type_checking_imports(package: str) -> Dict[str, Set[str]]:
    """``module -> names`` of the ``if TYPE_CHECKING:`` block of an ``__init__``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    imports: Dict[str, Set[str]] = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                imports.setdefault(stmt.module, set()).update(a.name for a in stmt.names)
    return imports


def test_the_worker_path_packages_are_lazy():
    expected = {"config", "faults", "monitoring", "scenarios", "schema", "service", "workload"}
    assert {f"repro.{name}" for name in expected} | {"repro"} <= set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_importing_a_lazy_package_loads_nothing_else(package):
    modules = _repro_modules(_loaded_after(f"import {package}"))
    parents = {".".join(package.split(".")[:n]) for n in range(1, package.count(".") + 2)}
    assert set(modules) == parents


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_and_subpackage_resolves_lazily(package):
    module = importlib.import_module(package)
    names = [name for name in module.__all__ if name != "__version__"]
    children = sorted(
        {m.rpartition(".")[2] for m in module._EXPORTS if m.rpartition(".")[0] == package}
        | set(getattr(module, "_SUBPACKAGES", ()))
    )
    code = (
        f"import {package} as p\n"
        f"names = {names!r}\n"
        f"children = {children!r}\n"
        "missing = [n for n in names if getattr(p, n, None) is None]\n"
        "modules = [getattr(p, n).__name__ for n in children]\n"
        "listed = set(names) | set(children) <= set(dir(p))\n"
        f"print(missing, modules == ['{package}.' + n for n in children], listed)\n"
    )
    assert _run(code).split() == ["[]", "True", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        module.not_a_name  # noqa: B018


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_tables_match_all_and_the_subpackages_on_disk(package):
    """Each table equals ``__all__`` and what static readers see.

    Static readers (IDEs, griffe/mkdocstrings) read a subpackage's
    ``if TYPE_CHECKING:`` imports; the root lists every subpackage on disk.
    """
    module = importlib.import_module(package)
    assert _table_names(module) == set(module.__all__) - {"__version__"}
    assert len(module.__all__) == len(set(module.__all__))
    if package == "repro":
        on_disk = {path.parent.name for path in (SRC / "repro").glob("*/__init__.py")}
        assert repro._SUBPACKAGES == on_disk
    else:
        tables = {name: set(names) for name, names in module._EXPORTS.items()}
        assert _type_checking_imports(package) == tables


#: Each registry's listing, bound to ``r``, reached through its own module.
COLD = {
    "allocation": "from repro.plugins.registry import available_policies as f; r = f()",
    "optimizers": (
        "from repro.calibration.search.base import get_optimizer as g\n"
        "r = {n: type(g(n)).__name__ for n in ('brute_force', 'random', 'bayesian', 'cmaes')}"
    ),
    "eviction": "from repro.plugins.registry import available_plugins as f; r = f('eviction')",
    "replication": (
        "from repro.plugins.registry import available_plugins as f; r = f('replication')"
    ),
    "scenario_packs": (
        "from repro.scenarios.registry import available_scenario_packs as f; r = f()"
    ),
    "rule_ids": "from repro.lint.rules import known_rule_ids as f; r = f()",
}


def test_registries_list_the_same_names_cold_and_after_importing_everything():
    """A registry must not depend on the eager imports the package dropped."""
    warm_code = (
        "import importlib, json, repro\n"
        "for name in sorted(repro._SUBPACKAGES):\n"
        "    importlib.import_module('repro.' + name)\n"
        "for name in repro.__all__:\n"
        "    getattr(repro, name)\n"
        "listings = {}\n"
        f"for registry, code in {COLD!r}.items():\n"
        "    scope = {}\n"
        "    exec(code, scope)\n"
        "    listings[registry] = scope['r']\n"
        "print(json.dumps(listings))\n"
    )
    warm = json.loads(_run(warm_code))
    assert warm["allocation"] and warm["eviction"] and warm["replication"]
    assert warm["scenario_packs"] and warm["rule_ids"]
    assert len(warm["optimizers"]) == 4
    for registry, code in COLD.items():
        cold = json.loads(_run(f"import json\n{code}\nprint(json.dumps(r))"))
        assert cold == warm[registry], f"{registry} registry differs when reached cold"

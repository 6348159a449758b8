"""A process imports what it runs.

``repro/__init__.py`` resolves its public names on first use (PEP 562), and
the runtime needs numpy alone.  These tests start a fresh interpreter per
case, with ``PYTHONPATH`` pointing at ``src``, and assert on the modules
that end up in ``sys.modules``: a count of modules, unlike a time, does not
depend on how loaded the machine is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_every_public_name_and_subpackage_resolves_lazily():
    names = [name for name in repro.__all__ if name != "__version__"]
    code = (
        "import sys, repro\n"
        f"names = {names!r}\n"
        f"subpackages = {sorted(repro._SUBPACKAGES)!r}\n"
        "missing = [n for n in names if getattr(repro, n, None) is None]\n"
        "modules = [getattr(repro, n).__name__ for n in subpackages]\n"
        "listed = set(names) | set(subpackages) <= set(dir(repro))\n"
        "print(missing, modules == ['repro.' + n for n in subpackages], listed)\n"
    )
    assert _run(code).split() == ["[]", "True", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        repro.not_a_name  # noqa: B018


def test_lazy_tables_match_all_and_the_subpackages_on_disk():
    assert set(repro._MODULE_OF) == set(repro.__all__) - {"__version__"}
    on_disk = {path.parent.name for path in (SRC / "repro").glob("*/__init__.py")}
    assert repro._SUBPACKAGES == on_disk


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

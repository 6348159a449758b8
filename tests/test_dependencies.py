"""Every third-party module ``src/repro`` imports is declared in ``pyproject.toml``.

An offline stand-in for installing the package into a bare environment: the
package's imports are read with ``ast`` and checked against the declared
requirements.

* A module imported at module level (class bodies included) is needed by
  ``import repro`` itself, so it must be in ``[project].dependencies``.
* A module imported only inside a function, or inside a ``try`` that
  catches ``ImportError``, is loaded on demand, so an optional extra is
  enough.
* Conversely, every runtime dependency is imported at module level
  somewhere, so a requirement cannot outlive its last import.

The standard library (``sys.stdlib_module_names``), ``repro`` itself and
imports guarded by ``if TYPE_CHECKING:`` are ignored.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

try:
    import tomllib
except ImportError:  # Python < 3.11: pytest itself depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Import name -> distribution name, where the two differ.
DISTRIBUTION = {"yaml": "pyyaml"}

_IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}


def _requirement_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("_", "-")


def _declared() -> Tuple[Set[str], Set[str]]:
    """(runtime dependencies, everything any optional extra adds)."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {_requirement_name(req) for req in project.get("dependencies", [])}
    extras = {
        _requirement_name(req)
        for group in project.get("optional-dependencies", {}).values()
        for req in group
    }
    return runtime, extras


def _catches_import_error(node: ast.Try) -> bool:
    return any(
        isinstance(handler.type, ast.Name) and handler.type.id in _IMPORT_ERRORS
        for handler in node.handlers
    )


def _imports(node: ast.AST, lazy: bool = False) -> Iterator[Tuple[str, bool]]:
    """Yield ``(top-level module, lazy)`` for every absolute import under ``node``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0], lazy
        return
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module:
            yield node.module.split(".")[0], lazy
        return
    if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
        for child in node.orelse:
            yield from _imports(child, lazy)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        lazy = True
    if isinstance(node, ast.Try) and _catches_import_error(node):
        for child in node.body:
            yield from _imports(child, True)
        for child in node.handlers + node.orelse + node.finalbody:
            yield from _imports(child, lazy)
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, lazy)


def _third_party_imports() -> Tuple[Dict[str, Set[Path]], Dict[str, Set[Path]]]:
    """Third-party module -> importing files, split into (eager, lazy) imports."""
    eager: Dict[str, Set[Path]] = {}
    lazy: Dict[str, Set[Path]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for module, is_lazy in _imports(ast.parse(path.read_text(), filename=str(path))):
            if module in sys.stdlib_module_names or module == "repro":
                continue
            (lazy if is_lazy else eager).setdefault(module, set()).add(path)
    return eager, lazy


def _distribution(module: str) -> str:
    return DISTRIBUTION.get(module, module).lower().replace("_", "-")


def _where(paths: Set[Path]) -> str:
    return ", ".join(sorted(str(path.relative_to(ROOT)) for path in paths))


def test_scan_tells_module_level_from_on_demand_imports():
    source = (
        "import numpy.linalg\n"
        "from numba import jit\n"
        "from . import sibling\n"
        "if TYPE_CHECKING:\n"
        "    import pandas\n"
        "try:\n"
        "    import yaml\n"
        "except ImportError:\n"
        "    yaml = None\n"
        "class Model:\n"
        "    import pyarrow\n"
        "    def fit(self):\n"
        "        import sklearn\n"
    )
    assert sorted(_imports(ast.parse(source))) == [
        ("numba", False),
        ("numpy", False),
        ("pyarrow", False),
        ("sklearn", True),
        ("yaml", True),
    ]


def test_module_level_imports_are_runtime_dependencies():
    runtime, _extras = _declared()
    eager, _lazy = _third_party_imports()
    assert "numpy" in eager  # the scan sees the package's imports at all
    missing = {
        module: _where(paths)
        for module, paths in eager.items()
        if _distribution(module) not in runtime
    }
    assert not missing, (
        f"imported at module level but not in [project].dependencies: {missing}"
    )


def test_runtime_dependencies_are_imported_at_module_level():
    runtime, _extras = _declared()
    eager, _lazy = _third_party_imports()
    imported = {_distribution(module) for module in eager}
    unused = sorted(runtime - imported)
    assert not unused, (
        f"in [project].dependencies but imported at module level nowhere in src/repro: {unused}"
    )


def test_on_demand_imports_are_declared_somewhere():
    runtime, extras = _declared()
    eager, lazy = _third_party_imports()
    lazy_only = {module: paths for module, paths in lazy.items() if module not in eager}
    assert "yaml" in lazy_only  # the optional YAML loader is imported on demand
    missing = {
        module: _where(paths)
        for module, paths in lazy_only.items()
        if _distribution(module) not in runtime | extras
    }
    assert not missing, (
        f"imported on demand but in neither dependencies nor an extra: {missing}"
    )

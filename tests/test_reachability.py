"""Nothing in ``src/repro`` is built that nothing runs.

A static reachability audit, read with ``ast``.  Every top-level ``def`` /
``class`` of the package must meet one of these conditions:

* some code other than its own body refers to it by name, attribute or
  ``from ... import`` in ``src/repro``.  Re-exports in ``__init__.py`` and
  ``__all__`` lists do not count;
* ``examples/``, ``benchmarks/`` or ``scripts/`` refer to it;
* it subclasses a registry base: plugins, lint rules and optimizers are
  found through their family, not by name;
* it is a module-level ``__getattr__`` or ``__dir__`` (PEP 562): the
  interpreter calls those on attribute lookup and ``dir()``;
* it is a key of :data:`LIBRARY_ONLY`, the published names kept on purpose
  although only the tests call them.

Matching is by bare name, so a name collision can hide an unreached
definition. It cannot make a reached one look unreached, except where
code is loaded from a string, which is what :data:`LIBRARY_ONLY` is for.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "scripts")

#: Classes whose subclasses are discovered through a registry, not by name.
REGISTRY_BASES = frozenset(
    {"AllocationPolicy", "EvictionPolicy", "ReplicationStrategy", "Optimizer", "Rule"}
)

#: Module-level functions the interpreter itself calls (PEP 562).
MODULE_HOOKS = frozenset({"__getattr__", "__dir__"})

#: ``"module:name"`` -> why it stays although no library code reaches it.
LIBRARY_ONLY = {
    "repro.calibration.queue_model:QueueTimeModel":
        "the paper's queue-time prediction extension, a public model",
    "repro.plugins.registry:load_entry_point_plugins":
        "plugin-mechanism entry point for third-party plugin packages",
    "repro.workload.patterns:constant_arrivals":
        "arrival-pattern helper for hand-built workloads",
    "repro.workload.patterns:burst_arrivals":
        "arrival-pattern helper for hand-built workloads",
    "repro.workload.patterns:diurnal_arrivals":
        "arrival-pattern helper for hand-built workloads",
    "repro.config.loaders:load_simulation_inputs":
        "loads the paper's three input files in one call",
    "repro.utils.units:format_duration": "public formatting helper",
    "repro.utils.units:format_bytes": "public formatting helper",
    "repro.utils.logging:get_logger": "public logger factory for scripts",
    "repro.workload.hepscore:site_benchmark_table":
        "per-site HEPScore table for analysis notebooks",
    "repro.scenarios.loader:save_scenario_pack":
        "writes the pack interchange format that load_scenario_pack reads",
    "repro.scenarios.registry:available_scenario_packs":
        "public scenario-registry function, documented in docs/scenarios/schema.md",
    "repro.scenarios.registry:register_scenario_pack":
        "public scenario-registry function, documented in docs/scenarios/schema.md",
    "repro.scenarios.registry:add_scenario_directory":
        "public scenario-registry function, documented in docs/scenarios/schema.md",
    "repro.atlas.sites_data:site_spec": "WLCG catalogue lookup",
    "repro.atlas.sites_data:sites_by_tier": "WLCG catalogue lookup",
    "repro.des.resources:PriorityResource":
        "SimPy-style kernel primitive; no simulator layer queues by priority",
    "repro.des.resources:Container":
        "SimPy-style kernel primitive; no simulator layer uses a level store",
    "repro.schema.sampler:sample_pack":
        "random schema-conforming packs for the schema property tests",
    "repro.state.protocol:Snapshottable":
        "the checkpoint protocol every snapshottable component implements",
    "repro.utils.jsonpointer:split_pointer":
        "inverse of join_pointer, which builds validation-error pointers",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _references(node: ast.AST, count_imports: bool = True) -> Counter:
    """Names, attributes and ``from``-imported names used under ``node``."""
    names: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif count_imports and isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reached(node: ast.AST, package_refs: Counter, caller_refs: Counter) -> bool:
    """Whether a top-level definition meets one of the module docstring's rules."""
    name = node.name
    bases = {
        base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        for base in getattr(node, "bases", ())
    }
    return bool(
        package_refs[name] > _references(node)[name]
        or caller_refs[name]
        or bases & REGISTRY_BASES
        or (isinstance(node, ast.FunctionDef) and name in MODULE_HOOKS)
    )


def _audit() -> Tuple[Dict[str, ast.AST], Dict[str, bool]]:
    """(``"module:name"`` -> definition, ``"module:name"`` -> reached)."""
    definitions: Dict[str, ast.AST] = {}
    package_refs: Counter = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        module = _module_name(path)
        package_refs.update(_references(tree, count_imports=path.name != "__init__.py"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{module}:{node.name}"] = node
    caller_refs: Counter = Counter()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            caller_refs.update(_references(_parse(path)))

    reached = {
        key: _reached(node, package_refs, caller_refs) for key, node in definitions.items()
    }
    return definitions, reached


def test_references_count_names_attributes_and_from_imports():
    tree = ast.parse(
        "from repro.x import helper\n"
        "import repro.y\n"
        "def recurse(n):\n"
        "    return recurse(n - 1) + repro.y.tool(n)\n"
    )
    refs = _references(tree)
    assert (refs["helper"], refs["recurse"], refs["tool"], refs["y"]) == (1, 1, 1, 1)
    assert _references(tree, count_imports=False)["helper"] == 0
    # A self-call is inside the definition, so it does not reach the function.
    recurse = tree.body[2]
    assert _references(recurse)["recurse"] == refs["recurse"]
    assert not _reached(recurse, refs, Counter())
    # PEP 562 hooks are reached by the interpreter although nothing names them.
    lazy = ast.parse(
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        "def __dir__():\n"
        "    return []\n"
        "class Proxy:\n"
        "    pass\n"
    )
    lazy_refs = _references(lazy)
    getattr_hook, dir_hook, proxy = lazy.body
    assert (lazy_refs["__getattr__"], lazy_refs["__dir__"]) == (0, 0)
    assert _reached(getattr_hook, lazy_refs, Counter())
    assert _reached(dir_hook, lazy_refs, Counter())
    assert not _reached(proxy, lazy_refs, Counter())


def test_every_top_level_definition_is_reached():
    _definitions, reached = _audit()
    unreached = sorted(
        key for key, ok in reached.items() if not ok and key not in LIBRARY_ONLY
    )
    assert not unreached, (
        "defined in src/repro but reached by nothing outside the tests; delete "
        f"them or add them to LIBRARY_ONLY with a reason: {unreached}"
    )


def test_library_only_entries_exist_and_are_still_unreached():
    definitions, reached = _audit()
    missing = sorted(key for key in LIBRARY_ONLY if key not in definitions)
    assert not missing, f"LIBRARY_ONLY names definitions that no longer exist: {missing}"
    now_reached = sorted(key for key in LIBRARY_ONLY if reached[key])
    assert not now_reached, f"LIBRARY_ONLY entries now reached; drop them: {now_reached}"


def test_registry_bases_are_defined_in_the_package():
    definitions, _reached = _audit()
    defined = {key.split(":")[1] for key, node in definitions.items()
               if isinstance(node, ast.ClassDef)}
    assert REGISTRY_BASES <= defined

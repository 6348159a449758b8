"""Declarative scenario packs: whole "what if" studies as single files.

Every study in this reproduction used to be a hand-written Python script
gluing together three JSON configs, a workload generator, optional fault
models and monitoring knobs.  A *scenario pack* turns that glue into data:
one YAML/JSON file bundling the grid, the workload, fault-injection
campaigns, data placement, execution parameters and -- optionally -- a sweep
axis or a calibration study.  Packs are validated eagerly
(:mod:`~repro.scenarios.schema`), discovered through a registry with
bundled/entry-point/directory sources (:mod:`~repro.scenarios.registry`),
and executed end-to-end -- in parallel when a sweep axis is present -- by
:func:`~repro.scenarios.runner.run_scenario_pack`.

The bundled packs reproduce the paper's studies; ``repro scenario list``
names them and ``docs/scenarios/cookbook.md`` walks through each one.

Quickstart
----------
>>> from repro.scenarios import get_scenario_pack, run_scenario_pack
>>> pack = get_scenario_pack("heavy-tail-stress")
>>> outcome = run_scenario_pack(pack, overrides={
...     "workload.jobs": 60, "grid.sites": 3,
...     "sweep.axes": {"workload.spec.walltime_sigma": [0.7]},
...     "sweep.replications": 1,
... })
>>> outcome.ok
True
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.scenarios.loader import load_scenario_pack, save_scenario_pack
    from repro.scenarios.registry import (
        ScenarioRegistry,
        add_scenario_directory,
        available_scenario_packs,
        get_scenario_pack,
        register_scenario_pack,
    )
    from repro.scenarios.runner import (
        ScenarioOutcome,
        execute_scenario_spec,
        run_scenario_pack,
        sweep_specs,
    )
    from repro.scenarios.schema import (
        CacheSection,
        CalibrationSection,
        DataSection,
        FaultsSection,
        GridSection,
        ScenarioPack,
        SweepSection,
        WorkloadSection,
        apply_override,
        apply_overrides,
    )

__all__ = [
    # schema
    "ScenarioPack",
    "GridSection",
    "WorkloadSection",
    "FaultsSection",
    "DataSection",
    "CacheSection",
    "CalibrationSection",
    "SweepSection",
    "apply_override",
    "apply_overrides",
    # loader
    "load_scenario_pack",
    "save_scenario_pack",
    # registry
    "ScenarioRegistry",
    "available_scenario_packs",
    "get_scenario_pack",
    "register_scenario_pack",
    "add_scenario_directory",
    # runner
    "ScenarioOutcome",
    "run_scenario_pack",
    "sweep_specs",
    "execute_scenario_spec",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.scenarios.loader": ("load_scenario_pack", "save_scenario_pack"),
    "repro.scenarios.registry": (
        "ScenarioRegistry",
        "add_scenario_directory",
        "available_scenario_packs",
        "get_scenario_pack",
        "register_scenario_pack",
    ),
    "repro.scenarios.runner": (
        "ScenarioOutcome",
        "execute_scenario_spec",
        "run_scenario_pack",
        "sweep_specs",
    ),
    "repro.scenarios.schema": (
        "CacheSection",
        "CalibrationSection",
        "DataSection",
        "FaultsSection",
        "GridSection",
        "ScenarioPack",
        "SweepSection",
        "WorkloadSection",
        "apply_override",
        "apply_overrides",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

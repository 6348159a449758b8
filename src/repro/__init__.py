"""CGSim reproduction: a simulation framework for large-scale distributed computing.

This package is a from-scratch Python reproduction of **CGSim** (SC'25 PMBS
workshop): a simulator for WLCG-scale computing grids built, in the original,
on top of SimGrid.  Here every layer is implemented in pure Python:

* :mod:`repro.des` -- the discrete-event kernel (SimGrid substitute).
* :mod:`repro.platform` -- hosts, links, zones, routing and flow-level
  network sharing.
* :mod:`repro.config` -- the three JSON inputs (infrastructure, topology,
  execution parameters).
* :mod:`repro.workload` -- the standardized job structure, traces and
  synthetic PanDA-like workload generation.
* :mod:`repro.core` -- the simulation core: main-server sender actor, per-site
  receiver actors, data manager, metrics and the :class:`~repro.core.Simulator`
  facade.
* :mod:`repro.plugins` -- the allocation-policy plugin system with bundled
  policies.
* :mod:`repro.faults` -- fault injection: job failure models, site outage
  schedules and PanDA-style automatic retries.
* :mod:`repro.monitoring` -- event-level monitoring, SQLite/CSV output and the
  dashboard.
* :mod:`repro.calibration` -- the walltime/queue-time calibration framework
  with brute-force, random, Bayesian and CMA-ES optimizers.
* :mod:`repro.mldata` -- ML-ready event dataset assembly and a surrogate
  baseline.
* :mod:`repro.atlas` -- the ATLAS/WLCG case-study builders.
* :mod:`repro.experiments` -- parallel experiment sweeps: fan independent
  simulation runs (scenario grids, seed replications, calibration trials)
  across worker processes with deterministic derived seeding.
* :mod:`repro.scenarios` -- declarative scenario packs: whole studies (grid +
  workload + faults + data + execution + optional sweep/calibration) as
  single validated YAML/JSON files, discovered through a registry and run
  end-to-end by ``repro scenario run``.

Quickstart
----------
>>> from repro import generate_grid, SyntheticWorkloadGenerator, Simulator
>>> infra, topo = generate_grid(4, seed=1)
>>> jobs = SyntheticWorkloadGenerator(infra, seed=1).generate(100)
>>> result = Simulator(infra, topo).run(jobs)
>>> result.metrics.finished_jobs
100
"""

import importlib

#: Where each public name lives.  Nothing is imported until a name is first
#: used (PEP 562), so ``import repro.des`` pays for the kernel alone.
_EXPORTS = {
    "repro.config": (
        "ExecutionConfig",
        "InfrastructureConfig",
        "LinkConfig",
        "MonitoringConfig",
        "OutputConfig",
        "SiteConfig",
        "TopologyConfig",
        "load_simulation_inputs",
    ),
    "repro.config.generators": ("generate_grid", "generate_sites"),
    "repro.faults": ("FaultInjector", "JobFailureModel", "OutageWindow", "SiteOutageModel"),
    "repro.core": (
        "DataManager",
        "JobManager",
        "MainServer",
        "SessionProgress",
        "SimulationMetrics",
        "SimulationResult",
        "SimulationSession",
        "Simulator",
        "SiteRuntime",
        "compute_metrics",
    ),
    "repro.monitoring": ("Dashboard", "MonitoringCollector", "SQLiteStore"),
    "repro.plugins": ("AllocationPolicy", "ResourceView", "available_policies", "create_policy"),
    "repro.workload": (
        "Job",
        "JobState",
        "SyntheticWorkloadGenerator",
        "WorkloadSpec",
        "load_trace",
        "save_trace",
    ),
    "repro.experiments": ("RunResult", "RunSpec", "SweepResult", "SweepRunner", "scenario_grid"),
    "repro.scenarios": (
        "ScenarioOutcome",
        "ScenarioPack",
        "available_scenario_packs",
        "get_scenario_pack",
        "load_scenario_pack",
        "register_scenario_pack",
        "run_scenario_pack",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

#: Subpackages reachable as attributes (``repro.core``) without an import.
_SUBPACKAGES = frozenset(
    {
        "analysis",
        "atlas",
        "calibration",
        "config",
        "conformance",
        "core",
        "data",
        "des",
        "experiments",
        "faults",
        "lint",
        "mldata",
        "monitoring",
        "platform",
        "plugins",
        "scenarios",
        "schema",
        "service",
        "state",
        "utils",
        "workload",
    }
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SiteConfig",
    "InfrastructureConfig",
    "LinkConfig",
    "TopologyConfig",
    "ExecutionConfig",
    "MonitoringConfig",
    "OutputConfig",
    "load_simulation_inputs",
    "generate_grid",
    "generate_sites",
    # workload
    "Job",
    "JobState",
    "SyntheticWorkloadGenerator",
    "WorkloadSpec",
    "load_trace",
    "save_trace",
    # core
    "Simulator",
    "SimulationSession",
    "SessionProgress",
    "SimulationResult",
    "SimulationMetrics",
    "compute_metrics",
    "MainServer",
    "SiteRuntime",
    "JobManager",
    "DataManager",
    # plugins
    "AllocationPolicy",
    "ResourceView",
    "available_policies",
    "create_policy",
    # fault injection
    "JobFailureModel",
    "SiteOutageModel",
    "OutageWindow",
    "FaultInjector",
    # monitoring
    "MonitoringCollector",
    "SQLiteStore",
    "Dashboard",
    # experiment sweeps
    "RunSpec",
    "RunResult",
    "SweepRunner",
    "SweepResult",
    "scenario_grid",
    # scenario packs
    "ScenarioPack",
    "ScenarioOutcome",
    "load_scenario_pack",
    "available_scenario_packs",
    "get_scenario_pack",
    "register_scenario_pack",
    "run_scenario_pack",
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
    elif name in _SUBPACKAGES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBPACKAGES)

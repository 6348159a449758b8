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
import sys


def lazy_exports(package, exports, submodules=()):
    """PEP 562 hooks that import a package's public names on first use.

    ``exports`` maps each module to the names the package re-exports from
    it; ``submodules`` are further children reachable as attributes, on top
    of the direct children ``exports`` names.  Returns ``(__getattr__,
    __dir__)`` for the package to bind at module level.  A resolved value is
    cached in the package's namespace, so each name costs one lookup.
    """
    module_of = {name: module for module, names in exports.items() for name in names}
    children = frozenset(submodules) | {
        module.rpartition(".")[2] for module in exports if module.rpartition(".")[0] == package
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        module = module_of.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name in children:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(module_of) | children)

    return __getattr__, __dir__


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


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, _SUBPACKAGES)

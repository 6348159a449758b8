"""Input layer: the three JSON configuration files of CGSim.

The paper's input layer configures a simulation through three JSON files:

1. **Infrastructure** -- the computing sites: core counts, per-core speed,
   RAM, storage and site properties (:class:`SiteConfig`,
   :class:`InfrastructureConfig`).
2. **Network topology** -- how sites are interconnected: links with
   bandwidth/latency, and which sites they join (:class:`LinkConfig`,
   :class:`TopologyConfig`).
3. **Execution parameters** -- everything about the run itself: the workload
   source, the allocation-policy plugin, monitoring cadence, seeds and output
   destinations (:class:`ExecutionConfig`).

All three are plain dataclasses with eager validation, JSON (de)serialisation
helpers in :mod:`repro.config.loaders`, and synthetic generators in
:mod:`repro.config.generators` for building WLCG-like setups of arbitrary
size.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.config.execution import ExecutionConfig, MonitoringConfig, OutputConfig
    from repro.config.infrastructure import InfrastructureConfig, SiteConfig
    from repro.config.loaders import (
        load_execution,
        load_infrastructure,
        load_simulation_inputs,
        load_topology,
        read_structured_file,
        save_execution,
        save_infrastructure,
        save_topology,
    )
    from repro.config.topology import LinkConfig, TopologyConfig

__all__ = [
    "SiteConfig",
    "InfrastructureConfig",
    "LinkConfig",
    "TopologyConfig",
    "ExecutionConfig",
    "MonitoringConfig",
    "OutputConfig",
    "read_structured_file",
    "load_infrastructure",
    "load_topology",
    "load_execution",
    "load_simulation_inputs",
    "save_infrastructure",
    "save_topology",
    "save_execution",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.config.execution": ("ExecutionConfig", "MonitoringConfig", "OutputConfig"),
    "repro.config.infrastructure": ("InfrastructureConfig", "SiteConfig"),
    "repro.config.loaders": (
        "load_execution",
        "load_infrastructure",
        "load_simulation_inputs",
        "load_topology",
        "read_structured_file",
        "save_execution",
        "save_infrastructure",
        "save_topology",
    ),
    "repro.config.topology": ("LinkConfig", "TopologyConfig"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

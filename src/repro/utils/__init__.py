"""Shared utilities for the CGSim reproduction.

This package contains small, dependency-free helpers used across the whole
code base:

* :mod:`repro.utils.units` -- parsing and formatting of physical quantities
  (bandwidth, data sizes, CPU speeds, durations) as they appear in the JSON
  configuration files.
* :mod:`repro.utils.rng` -- seeded random-number-generator management so every
  simulation run is exactly reproducible.
* :mod:`repro.utils.logging` -- a tiny structured logger used by the
  simulation core and the monitoring layer.
* :mod:`repro.utils.errors` -- the exception hierarchy shared by all
  subpackages.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.utils.errors import (
        CGSimError,
        ConfigurationError,
        PlatformError,
        SchedulingError,
        SimulationError,
        WorkloadError,
    )
    from repro.utils.rng import RandomSource, derive_seed, spawn_rng
    from repro.utils.units import (
        format_bytes,
        format_duration,
        parse_bandwidth,
        parse_bytes,
        parse_duration,
        parse_frequency,
    )

__all__ = [
    "CGSimError",
    "ConfigurationError",
    "PlatformError",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
    "RandomSource",
    "spawn_rng",
    "derive_seed",
    "format_bytes",
    "format_duration",
    "parse_bandwidth",
    "parse_bytes",
    "parse_duration",
    "parse_frequency",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.utils.errors": (
        "CGSimError",
        "ConfigurationError",
        "PlatformError",
        "SchedulingError",
        "SimulationError",
        "WorkloadError",
    ),
    "repro.utils.rng": ("RandomSource", "derive_seed", "spawn_rng"),
    "repro.utils.units": (
        "format_bytes",
        "format_duration",
        "parse_bandwidth",
        "parse_bytes",
        "parse_duration",
        "parse_frequency",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

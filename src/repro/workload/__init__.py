"""Workload layer: jobs, traces, synthetic generators and arrival patterns.

CGSim is calibrated and evaluated with job records from the PanDA workload
management system.  This package defines the standardized job structure the
simulator (and plugins) operate on, readers/writers for trace files, and a
synthetic PanDA-like trace generator used when real production records are
not available:

* :class:`~repro.workload.job.Job` and :class:`~repro.workload.job.JobState`
  -- the standardized job record with lifecycle timestamps.
* :mod:`~repro.workload.trace` -- CSV/JSON trace readers and writers.
* :mod:`~repro.workload.generator` -- synthetic PanDA-like workload
  generation with realistic walltime/core/file distributions.
* :mod:`~repro.workload.patterns` -- arrival-time patterns (Poisson, bursts,
  diurnal cycles).
* :mod:`~repro.workload.hepscore` -- HEPScore23-like per-site benchmark
  scores used to configure realistic site speeds.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.workload.generator import SyntheticWorkloadGenerator, WorkloadSpec
    from repro.workload.hepscore import hepscore_speed, site_benchmark_table
    from repro.workload.job import Job, JobState
    from repro.workload.patterns import (
        burst_arrivals,
        constant_arrivals,
        diurnal_arrivals,
        poisson_arrivals,
    )
    from repro.workload.trace import (
        jobs_from_records,
        load_trace,
        records_from_jobs,
        save_trace,
    )

__all__ = [
    "Job",
    "JobState",
    "SyntheticWorkloadGenerator",
    "WorkloadSpec",
    "load_trace",
    "save_trace",
    "jobs_from_records",
    "records_from_jobs",
    "poisson_arrivals",
    "constant_arrivals",
    "burst_arrivals",
    "diurnal_arrivals",
    "hepscore_speed",
    "site_benchmark_table",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.workload.generator": ("SyntheticWorkloadGenerator", "WorkloadSpec"),
    "repro.workload.hepscore": ("hepscore_speed", "site_benchmark_table"),
    "repro.workload.job": ("Job", "JobState"),
    "repro.workload.patterns": (
        "burst_arrivals",
        "constant_arrivals",
        "diurnal_arrivals",
        "poisson_arrivals",
    ),
    "repro.workload.trace": ("jobs_from_records", "load_trace", "records_from_jobs", "save_trace"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

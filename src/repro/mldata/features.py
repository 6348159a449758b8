"""Feature definitions shared by the ML dataset builders."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

import numpy as np

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.trace_buffer import TraceBuffer

__all__ = [
    "event_feature_names",
    "job_feature_names",
    "event_matrix",
    "job_features",
]

_STATE_CODES = {
    "created": 0.0,
    "pending": 1.0,
    "assigned": 2.0,
    "transferring": 3.0,
    "running": 4.0,
    "finished": 5.0,
    "failed": 6.0,
}


def event_feature_names() -> List[str]:
    """Column names of the event-level feature matrix."""
    return [
        "time",
        "job_id",
        "state_code",
        "available_cores",
        "pending_jobs",
        "assigned_jobs",
        "finished_jobs",
        "cores",
    ]


def event_matrix(buffer: "TraceBuffer") -> np.ndarray:
    """Feature matrix of a whole columnar trace buffer.

    Column-wise construction: each column converts through one C-level
    ``np.asarray`` instead of a Python-level feature list per row, which is
    what makes ML dataset assembly scale with the event count.
    """
    state_codes = _STATE_CODES
    columns = [
        np.asarray(buffer.times, dtype=float),
        np.asarray(buffer.job_ids, dtype=float),
        np.fromiter(
            (state_codes.get(state, -1.0) for state in buffer.states),
            dtype=float,
            count=len(buffer.states),
        ),
        np.asarray(buffer.available_cores, dtype=float),
        np.asarray(buffer.pending_jobs, dtype=float),
        np.asarray(buffer.assigned_jobs, dtype=float),
        np.asarray(buffer.finished_jobs, dtype=float),
        np.asarray(buffer.cores, dtype=float),
    ]
    return np.column_stack(columns)


def job_feature_names() -> List[str]:
    """Column names of the per-job feature matrix (inputs to the surrogate)."""
    return [
        "work",
        "cores",
        "memory",
        "input_files",
        "output_files",
        "input_size",
        "output_size",
        "submission_time",
        "site_core_speed",
        "site_total_cores",
        "log_work",
        "log_input_size",
        "log_output_size",
        "expected_compute_seconds",
    ]


def job_features(job: Job, site_speed: float = 0.0, site_cores: float = 0.0) -> List[float]:
    """Numeric feature vector of one job (static fields + site context).

    Besides the raw PanDA-record fields, the vector carries log-transformed
    sizes (walltimes and file sizes are heavy-tailed, so linear models need
    the log scale) and the physics-informed ``expected_compute_seconds`` =
    ``work / (site_speed * cores)`` -- the uncontended walltime the platform
    model would predict, which is the single most informative input a fast
    surrogate can start from.
    """
    expected_compute = 0.0
    if site_speed > 0 and job.cores > 0:
        expected_compute = job.work / (site_speed * job.cores)
    return [
        float(job.work),
        float(job.cores),
        float(job.memory),
        float(job.input_files),
        float(job.output_files),
        float(job.input_size),
        float(job.output_size),
        float(job.submission_time),
        float(site_speed),
        float(site_cores),
        math.log1p(max(0.0, float(job.work))),
        math.log1p(max(0.0, float(job.input_size))),
        math.log1p(max(0.0, float(job.output_size))),
        float(expected_compute),
    ]

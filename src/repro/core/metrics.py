"""Simulation metrics.

The performance of distributed systems is measured in the paper with metrics
derived from operational logs: queue time, CPU efficiency, job failure rate
and throughput.  :func:`compute_metrics` derives all of them (plus makespan
and per-site breakdowns) from the jobs of a completed simulation run, and
optionally summarises the monitoring trace (transition counts per state)
straight from the collector's columnar buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

import numpy as np

from repro.utils.floats import ordered_sum
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.data_manager import DataManager
    from repro.monitoring.collector import MonitoringCollector

__all__ = ["SiteMetrics", "SimulationMetrics", "compute_metrics", "event_state_counts"]


@dataclass
class SiteMetrics:
    """Per-site summary of a completed run."""

    site: str
    finished_jobs: int
    failed_jobs: int
    mean_walltime: float
    mean_queue_time: float
    total_core_seconds: float

    def to_row(self) -> dict:
        """Flatten for CSV/reporting."""
        return {
            "site": self.site,
            "finished_jobs": self.finished_jobs,
            "failed_jobs": self.failed_jobs,
            "mean_walltime": self.mean_walltime,
            "mean_queue_time": self.mean_queue_time,
            "total_core_seconds": self.total_core_seconds,
        }


@dataclass
class SimulationMetrics:
    """Grid-level summary of a completed run.

    The operational metrics the paper lists as primary outputs of grid
    monitoring -- job counts, makespan, walltime/queue-time statistics,
    throughput, failure rate, consumed CPU time -- plus per-site breakdowns
    (:attr:`per_site`) and monitoring-trace transition counts
    (:attr:`transitions`).  Obtained as ``result.metrics`` from
    :meth:`repro.core.Simulator.run` or recomputed via
    :func:`compute_metrics`; :meth:`to_dict` flattens everything for JSON.

    Examples
    --------
    >>> from repro import Simulator, SyntheticWorkloadGenerator, generate_grid
    >>> infrastructure, topology = generate_grid(2, seed=1)
    >>> jobs = SyntheticWorkloadGenerator(infrastructure, seed=2).generate(20)
    >>> metrics = Simulator(infrastructure, topology).run(jobs).metrics
    >>> metrics.finished_jobs, metrics.makespan > 0
    (20, True)
    """

    total_jobs: int
    finished_jobs: int
    failed_jobs: int
    makespan: float
    mean_walltime: float
    median_walltime: float
    mean_queue_time: float
    median_queue_time: float
    mean_total_time: float
    throughput: float
    failure_rate: float
    cpu_time: float
    per_site: Dict[str, SiteMetrics] = field(default_factory=dict)
    #: Monitoring-trace transition counts per state (empty without a collector).
    transitions: Dict[str, int] = field(default_factory=dict)
    #: Aggregate data-layer counters (cache hits/misses/evictions, bytes by
    #: tier); empty unless the run had a cache-aware data manager.
    data: Dict[str, float] = field(default_factory=dict)
    #: Per-site cache counter rows (see :meth:`repro.data.CacheStats.to_row`).
    cache_per_site: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-friendly representation (per-site rows included)."""
        data = {
            "total_jobs": self.total_jobs,
            "finished_jobs": self.finished_jobs,
            "failed_jobs": self.failed_jobs,
            "makespan": self.makespan,
            "mean_walltime": self.mean_walltime,
            "median_walltime": self.median_walltime,
            "mean_queue_time": self.mean_queue_time,
            "median_queue_time": self.median_queue_time,
            "mean_total_time": self.mean_total_time,
            "throughput": self.throughput,
            "failure_rate": self.failure_rate,
            "cpu_time": self.cpu_time,
            "per_site": {name: m.to_row() for name, m in self.per_site.items()},
            "transitions": dict(self.transitions),
        }
        if self.data:
            data["data"] = dict(self.data)
        if self.cache_per_site:
            data["cache_per_site"] = {
                name: dict(row) for name, row in self.cache_per_site.items()
            }
        return data


def _safe_mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _safe_median(values: List[float]) -> float:
    """``np.median(values)``, bit for bit on finite floats; 0.0 when empty.

    The middle element, or ``(a + b) / 2`` of the two middle ones, which is
    the mean ``np.median`` takes.  Sorting in Python spares the first call
    ``np.median``'s import of ``numpy.ma``.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


def event_state_counts(collector: "MonitoringCollector") -> Dict[str, int]:
    """Transition counts per state, read off the collector's columnar buffer.

    One C-level ``Counter`` pass over the ``states`` column; returns an empty
    dict when the collector did not retain events (``keep_in_memory=False``
    or ``detail="aggregate"``) rather than failing, since the counts are a
    best-effort summary.
    """
    if not collector.keep_in_memory:
        return {}
    return dict(collector.buffer.state_counts())


def compute_metrics(
    jobs: Iterable[Job],
    start_time: float = 0.0,
    collector: Optional["MonitoringCollector"] = None,
    data_manager: Optional["DataManager"] = None,
) -> SimulationMetrics:
    """Summarise a set of (mostly terminal) jobs into :class:`SimulationMetrics`.

    Parameters
    ----------
    jobs:
        Jobs of the run (finished, failed, or still incomplete -- incomplete
        jobs count towards totals but not towards time statistics).
    start_time:
        Simulation start time used for the makespan/throughput horizon.
    collector:
        Optional monitoring collector; when given (and retaining events) the
        result carries the per-state transition counts of the trace.
    data_manager:
        Optional data manager; when given and cache-aware, the result
        carries the aggregate cache counters (:attr:`SimulationMetrics.data`)
        and the per-site cache rows (:attr:`SimulationMetrics.cache_per_site`).
    """
    jobs = list(jobs)
    finished = [j for j in jobs if j.state is JobState.FINISHED]
    failed = [j for j in jobs if j.state is JobState.FAILED]

    walltimes = [j.walltime for j in finished if j.walltime is not None]
    queue_times = [j.queue_time for j in finished if j.queue_time is not None]
    total_times = [j.total_time for j in finished if j.total_time is not None]
    end_times = [j.end_time for j in jobs if j.end_time is not None]
    makespan = (max(end_times) - start_time) if end_times else 0.0

    cpu_time = ordered_sum((j.walltime or 0.0) * j.cores for j in finished)
    throughput = len(finished) / makespan if makespan > 0 else 0.0
    terminal = len(finished) + len(failed)
    failure_rate = len(failed) / terminal if terminal else 0.0

    per_site: Dict[str, SiteMetrics] = {}
    sites = sorted({j.assigned_site for j in jobs if j.assigned_site})
    for site in sites:
        site_finished = [j for j in finished if j.assigned_site == site]
        site_failed = [j for j in failed if j.assigned_site == site]
        per_site[site] = SiteMetrics(
            site=site,
            finished_jobs=len(site_finished),
            failed_jobs=len(site_failed),
            mean_walltime=_safe_mean([j.walltime for j in site_finished if j.walltime is not None]),
            mean_queue_time=_safe_mean(
                [j.queue_time for j in site_finished if j.queue_time is not None]
            ),
            total_core_seconds=ordered_sum((j.walltime or 0.0) * j.cores for j in site_finished),
        )

    return SimulationMetrics(
        total_jobs=len(jobs),
        finished_jobs=len(finished),
        failed_jobs=len(failed),
        makespan=makespan,
        mean_walltime=_safe_mean(walltimes),
        median_walltime=_safe_median(walltimes),
        mean_queue_time=_safe_mean(queue_times),
        median_queue_time=_safe_median(queue_times),
        mean_total_time=_safe_mean(total_times),
        throughput=throughput,
        failure_rate=failure_rate,
        cpu_time=cpu_time,
        per_site=per_site,
        transitions=event_state_counts(collector) if collector is not None else {},
        data=data_manager.cache_summary() if data_manager is not None else {},
        cache_per_site=(
            {site: stats.to_row() for site, stats in data_manager.cache_stats().items()}
            if data_manager is not None and data_manager.caches
            else {}
        ),
    )

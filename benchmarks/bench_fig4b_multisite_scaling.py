"""Figure 4(b): multi-site scaling performance of the simulator.

The paper distributes a fixed per-site workload (200 PanDA jobs per site,
sites configured with 100-2,000 cores) over 1 to 50 sites and reports the
simulator's wall-clock runtime, observing *near-linear* growth (~50 s for one
site to ~400 s for fifty on the authors' machine).

The reproduction sweeps the same dimension, fits ``runtime = a * n_sites ** b``
and asserts the exponent lies in the near-linear band.  The series is written
to ``benchmarks/results/fig4b_multisite_scaling.json``.

``follow_trace`` reads one site per dispatch; a second series sweeps
``panda_dispatcher``, whose dispatch reads the sites in backlog order and stops
at the first that cannot win, out to 160 sites, and is written to
``benchmarks/results/fig4b_multisite_scaling_panda.json``.
"""

from __future__ import annotations

import time

import pytest

from repro import ExecutionConfig, Simulator, SyntheticWorkloadGenerator
from repro.analysis.scaling import fit_power_law, linearity_score
from repro.config.execution import MonitoringConfig
from repro.config.generators import generate_grid
from repro.workload.generator import WorkloadSpec

#: Site counts swept (the paper sweeps 1-50).
SITE_COUNTS = [1, 2, 5, 10, 20, 40]
#: Fixed workload density, as in the paper.
JOBS_PER_SITE = 200
#: Site counts of the ``panda_dispatcher`` series ("hundreds of sites").
PANDA_SITE_COUNTS = [5, 10, 20, 40, 80, 160]
#: Bound on the ``panda_dispatcher`` series' fitted exponent.  Nine sweeps on a
#: shared 2-CPU container (CPython 3.11) fitted 0.87-1.11; the bound is their
#: maximum plus half their spread, rounded up.  (The sweeps of the code that
#: scored every site at every dispatch fitted 1.14-1.25 on the same box.)
PANDA_MAX_EXPONENT = 1.25


def _run_sites(n_sites: int, seed: int = 0, plugin: str = "follow_trace") -> float:
    """Simulate ``JOBS_PER_SITE`` jobs on each of ``n_sites`` sites under ``plugin``."""
    infrastructure, topology = generate_grid(
        n_sites, seed=seed, min_cores=100, max_cores=2000
    )
    spec = WorkloadSpec(walltime_median=2 * 3600.0)
    generator = SyntheticWorkloadGenerator(infrastructure, spec=spec, seed=seed)
    jobs = generator.generate_per_site(JOBS_PER_SITE)
    execution = ExecutionConfig(
        plugin=plugin,
        monitoring=MonitoringConfig(enable_events=True, snapshot_interval=0.0),
    )
    simulator = Simulator(infrastructure, topology, execution)
    result = simulator.run(jobs)
    assert result.metrics.finished_jobs == n_sites * JOBS_PER_SITE
    return result.wallclock_seconds


def _sweep(site_counts=SITE_COUNTS, plugin: str = "follow_trace") -> list:
    """Run a site-count sweep under ``plugin``; return one row per grid size."""
    series = []
    for n_sites in site_counts:
        started = time.perf_counter()
        _run_sites(n_sites, plugin=plugin)
        elapsed = time.perf_counter() - started
        series.append(
            {
                "sites": n_sites,
                "jobs": n_sites * JOBS_PER_SITE,
                "wallclock_seconds": elapsed,
            }
        )
    return series


@pytest.mark.benchmark(group="fig4b-multisite-scaling")
def test_multisite_scaling_series_is_near_linear(benchmark, record_result):
    """Sweep the site counts and assert near-linear runtime growth."""
    series = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    fit = fit_power_law(
        [row["sites"] for row in series],
        [row["wallclock_seconds"] for row in series],
    )
    linear_r2 = linearity_score(
        [row["sites"] for row in series],
        [row["wallclock_seconds"] for row in series],
    )
    record_result(
        "fig4b_multisite_scaling",
        {
            "series": series,
            "power_law_exponent": fit.exponent,
            "linear_fit_r_squared": linear_r2,
            "paper": "runtime grows near-linearly from ~50 s (1 site) to ~400 s (50 sites)",
        },
    )
    # The paper's claim: near-linear scaling with the number of sites.  The
    # fitted exponent must at the very least stay clearly below quadratic and
    # the direct linear fit must explain most of the variance.
    assert fit.exponent < 1.6, f"multi-site scaling exponent too high: {fit.exponent:.2f}"
    assert linear_r2 > 0.8, f"runtime is not close to linear in site count (R^2={linear_r2:.2f})"
    assert series[-1]["wallclock_seconds"] > series[0]["wallclock_seconds"]


@pytest.mark.benchmark(group="fig4b-multisite-scaling")
def test_panda_dispatcher_series_to_160_sites(benchmark, record_result):
    """Sweep ``panda_dispatcher`` to 160 sites: a dispatch must not read every site."""
    series = benchmark.pedantic(
        _sweep, args=(PANDA_SITE_COUNTS, "panda_dispatcher"), rounds=1, iterations=1
    )
    sites = [row["sites"] for row in series]
    fit = fit_power_law(sites, [row["wallclock_seconds"] for row in series])
    us_per_job = [row["wallclock_seconds"] / row["jobs"] * 1e6 for row in series]
    record_result(
        "fig4b_multisite_scaling_panda",
        {
            "series": series,
            "us_per_job": us_per_job,
            "power_law_exponent": fit.exponent,
            "sites_ratio": us_per_job[-1] / us_per_job[sites.index(10)],
        },
    )
    assert fit.exponent < PANDA_MAX_EXPONENT, (
        f"panda_dispatcher site-scaling exponent {fit.exponent:.3f} >= {PANDA_MAX_EXPONENT}"
    )


@pytest.mark.benchmark(group="fig4b-multisite-scaling")
def test_benchmark_ten_sites(benchmark):
    """pytest-benchmark timing of the 10-site / 2,000-job configuration."""
    benchmark.pedantic(_run_sites, args=(10,), rounds=1, iterations=1)

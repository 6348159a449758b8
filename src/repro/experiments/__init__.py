"""Parallel experiment sweeps: many independent simulations, one result set.

The paper's headline numbers are ensembles -- calibration error over 50
sites, the Figure 4 scaling series, failure-injection studies averaged over
replications.  This package is the substrate those studies run on:

* :class:`~repro.experiments.spec.RunSpec` /
  :class:`~repro.experiments.spec.RunResult` -- picklable descriptions of one
  independent run and its outcome (including recorded, non-fatal errors);
* :func:`~repro.experiments.spec.scenario_grid` -- expand cartesian parameter
  axes and replications into concrete runs with derived seeds;
* :class:`~repro.experiments.runner.SweepRunner` /
  :func:`~repro.experiments.runner.parallel_map` -- fan the runs across a
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked, order
  preserving dispatch (``n_workers=1`` is the bit-identical sequential
  reference);
* :mod:`~repro.experiments.aggregate` -- fold per-run metrics into the
  per-scenario mean/CI rows the :mod:`repro.analysis` reporting renders.

Determinism contract: every stochastic stream of a run is derived from the
sweep's root seed and the run's identity via
:func:`repro.utils.rng.derive_seed`, and results come back in submission
order -- so the same specs yield identical aggregate results for any worker
count.

Quickstart
----------
>>> from repro.experiments import RunSpec, SweepRunner, scenario_grid
>>> specs = scenario_grid(RunSpec(jobs=50, seed=7), replications=2, sites=[2, 3])
>>> sweep = SweepRunner(n_workers=1).run(specs)
>>> [len(sweep.values("finished_jobs", s)) for s in sweep.scenarios()]
[2, 2]
"""

from repro.experiments.aggregate import aggregate_results
from repro.experiments.bench import (
    KernelBenchResult,
    kernel_workloads,
    profile_callable,
    run_kernel_benchmarks,
)
from repro.experiments.runner import (
    SweepResult,
    SweepRunner,
    default_workers,
    execute_run,
    parallel_map,
)
from repro.experiments.spec import RunResult, RunSpec, scenario_grid

__all__ = [
    "RunSpec",
    "RunResult",
    "scenario_grid",
    "SweepRunner",
    "SweepResult",
    "execute_run",
    "parallel_map",
    "default_workers",
    "aggregate_results",
    "KernelBenchResult",
    "kernel_workloads",
    "run_kernel_benchmarks",
    "profile_callable",
]

"""Synthetic PanDA-like workload generation.

The paper calibrates and evaluates CGSim with six months of production ATLAS
PanDA job records.  Those records are not public, so the reproduction
generates synthetic traces with the same structure and realistic marginal
distributions:

* **walltimes** are lognormal (hours-scale median, heavy right tail), with
  multi-core jobs longer on average than single-core ones;
* **core counts** follow the ATLAS single-core/8-core split (configurable);
* **input/output file counts and sizes** are Poisson / lognormal;
* **per-site assignment** follows configurable site weights (capacity-
  proportional by default), giving every site its own mix of jobs;
* each site has a hidden "true" per-core speed used to convert walltimes into
  computational work, so a simulator configured with *nominal* speeds shows
  exactly the calibration gap the paper's Figure 3 starts from.

Everything is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.infrastructure import InfrastructureConfig
from repro.utils.errors import WorkloadError
from repro.utils.fieldspec import check_declared, declare
from repro.utils.rng import RandomSource
from repro.workload.job import Job
from repro.workload.patterns import poisson_arrivals

__all__ = ["WorkloadSpec", "SyntheticWorkloadGenerator"]


@dataclass
class WorkloadSpec:
    """Tunable knobs of the synthetic PanDA-like workload.

    Parameters
    ----------
    multicore_fraction:
        Fraction of jobs requesting :attr:`multicore_cores` cores.
    multicore_cores:
        Core count of multi-core jobs (ATLAS production uses 8).
    walltime_median / walltime_sigma:
        Median (seconds) and lognormal sigma of single-core walltimes.
    multicore_walltime_factor:
        Multiplier on the median walltime for multi-core jobs.
    mean_input_files / mean_output_files:
        Poisson means of the file counts.
    mean_file_size:
        Mean size of one file in bytes (lognormal, sigma 0.8).
    memory_per_core:
        Memory requested per core, bytes.
    arrival_rate:
        Mean job arrival rate (jobs/second) for the Poisson arrival process;
        ``None`` submits everything at time zero (the batch replay mode used
        by the calibration experiments).
    walltime_noise_sigma:
        Lognormal sigma of the per-job discrepancy between the recorded
        walltime and what the site's true speed alone would predict.  This
        models everything the single calibration parameter cannot capture
        (I/O stalls, pile-up-dependent event complexity, shared-node
        interference) and is what leaves a residual calibration error, as in
        the paper's Figure 3.
    """

    multicore_fraction: float = declare(
        "Fraction of jobs requesting multicore_cores cores.", default=0.4, ge=0, le=1)
    multicore_cores: int = declare("Core count of multi-core jobs.", default=8, ge=2)
    walltime_median: float = declare(
        "Median single-core walltime, seconds.", default=4 * 3600.0, gt=0)
    walltime_sigma: float = declare("Lognormal sigma of walltimes.", default=0.7, ge=0)
    multicore_walltime_factor: float = declare(
        "Walltime multiplier for multi-core jobs.", default=1.5, gt=0)
    mean_input_files: float = declare("Poisson mean of input-file counts.", default=3.0, ge=0)
    mean_output_files: float = declare("Poisson mean of output-file counts.", default=1.5, ge=0)
    mean_file_size: float = declare("Mean file size in bytes.", default=1.5e9, ge=0)
    memory_per_core: float = declare(
        "Memory requested per core, bytes.", default=2 * 2**30, ge=0)
    arrival_rate: Optional[float] = declare(
        "Poisson arrival rate (jobs/s); null submits at t=0.", default=None, gt=0,
        publish_default=True)
    walltime_noise_sigma: float = declare(
        "Lognormal sigma of per-job walltime discrepancy.", default=0.18, ge=0)

    def __post_init__(self) -> None:
        check_declared(self, error=WorkloadError)


class SyntheticWorkloadGenerator:
    """Generate PanDA-like job traces against a known infrastructure.

    Parameters
    ----------
    infrastructure:
        The sites jobs will be attributed to.
    spec:
        Distribution parameters (:class:`WorkloadSpec`).
    seed:
        Root seed; every draw is derived from it.
    true_speed_bias:
        Dict mapping site name to the *hidden* ratio between the site's true
        per-core speed and its nominal (configured) speed.  When omitted,
        each site receives a deterministic pseudo-random bias drawn away from
        1 (either ~0.35-0.7x or ~1.4-2.6x nominal) -- this is precisely the
        configuration-parameter misalignment the calibration experiments must
        recover, sized so the *uncalibrated* walltime error lands in the
        several-tens-of-percent range the paper reports.
    site_weights:
        Relative probability of assigning a job to each site; defaults to
        core-count proportional.
    """

    def __init__(
        self,
        infrastructure: InfrastructureConfig,
        spec: Optional[WorkloadSpec] = None,
        seed: int = 0,
        true_speed_bias: Optional[Dict[str, float]] = None,
        site_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if len(infrastructure) == 0:
            raise WorkloadError("cannot generate a workload for an empty infrastructure")
        self.infrastructure = infrastructure
        self.spec = spec or WorkloadSpec()
        self.seed = seed
        self.rng = RandomSource(seed).child("workload")
        self.true_speed_bias = dict(true_speed_bias or {})
        for site in infrastructure.sites:
            if site.name not in self.true_speed_bias:
                # Deterministic per-site bias kept away from 1: sites are
                # either clearly slower or clearly faster than their nominal
                # configuration, so the uncalibrated error is substantial.
                gen = RandomSource(seed).child(f"bias:{site.name}")
                if gen.uniform("side") < 0.5:
                    bias = gen.uniform("bias", 0.35, 0.70)
                else:
                    bias = gen.uniform("bias", 1.4, 2.6)
                self.true_speed_bias[site.name] = bias
        weights = site_weights or {s.name: float(s.cores) for s in infrastructure.sites}
        missing = set(infrastructure.site_names) - set(weights)
        if missing:
            raise WorkloadError(f"site_weights missing sites {sorted(missing)}")
        total = sum(weights[name] for name in infrastructure.site_names)
        if total <= 0:
            raise WorkloadError("site weights must sum to a positive value")
        self._site_probabilities = np.array(
            [weights[name] / total for name in infrastructure.site_names]
        )

    # -- single-site helpers -----------------------------------------------------
    def true_core_speed(self, site_name: str) -> float:
        """The hidden true per-core speed of ``site_name`` (ops/second)."""
        site = self.infrastructure.site(site_name)
        return site.core_speed * self.true_speed_bias[site_name]

    def _arrivals(self, count: int, start_time: float) -> List[float]:
        if self.spec.arrival_rate is None:
            return [start_time] * count
        return poisson_arrivals(count, self.spec.arrival_rate, start=start_time, seed=self.seed)

    def _draw_jobs(
        self,
        gen: np.random.Generator,
        targets: Sequence[Tuple[str, float]],
        arrivals: Sequence[float],
        trace_indices: Iterable[object],
    ) -> List[Job]:
        """One job per ``(site name, true core speed)`` target, drawn in order.

        Each job takes its draws from ``gen`` in a fixed order -- multicore
        coin, walltime, noise, file counts, input sizes, output sizes, queue
        time -- so a job's values depend only on the stream position it
        starts at.  A job's input (and output) file sizes are one call: a
        ``size=n`` draw yields the same bits as ``n`` scalar draws, and is the
        cheaper call from two files up.  They are added left to right, as
        the scalar draws were (``ndarray.sum`` adds pairwise and rounds
        differently once ``n >= 8``).  Batching draws *across* jobs would
        reorder the stream, so it is not done.
        """
        spec = self.spec
        coin, lognormal, poisson, exponential = (
            gen.random, gen.lognormal, gen.poisson, gen.exponential
        )
        multicore_fraction = spec.multicore_fraction
        multicore_cores = spec.multicore_cores
        single_mu = np.log(spec.walltime_median)
        multi_mu = np.log(spec.walltime_median * spec.multicore_walltime_factor)
        walltime_sigma = spec.walltime_sigma
        noise_sigma = spec.walltime_noise_sigma
        mean_input_files = spec.mean_input_files
        mean_output_files = spec.mean_output_files
        memory_per_core = spec.memory_per_core
        # Taken at the first drawn file: np.log(0) warns, and a spec with a
        # zero mean file size and zero mean file counts never draws one.
        size_mu = None

        def file_sizes(n: int) -> float:
            nonlocal size_mu
            if not n:
                return 0.0
            if size_mu is None:
                size_mu = np.log(spec.mean_file_size)
            if n == 1:
                return float(lognormal(size_mu, 0.8))
            # An explicit loop, not sum(): from CPython 3.12 on, sum() of
            # Python floats compensates its rounding and so differs from
            # the left-to-right adds of the scalar draws in the last bits.
            total = 0.0
            for size in lognormal(size_mu, 0.8, n).tolist():
                total += size
            return total

        jobs: List[Job] = []
        append = jobs.append
        for (site_name, true_speed), submission_time, trace_index in zip(
            targets, arrivals, trace_indices
        ):
            # random() is uniform() on [0, 1): the same draw, the same bits.
            if coin() < multicore_fraction:
                cores, walltime_mu = multicore_cores, multi_mu
            else:
                cores, walltime_mu = 1, single_mu
            true_walltime = float(lognormal(walltime_mu, walltime_sigma))
            # The job's work is defined by how long it *actually* took on the
            # site's true hardware (work = walltime * true_speed * cores), up
            # to a per-job noise factor that no single-parameter calibration
            # can remove -- this is what leaves the residual error after
            # calibration.
            noise = float(lognormal(0.0, noise_sigma)) if noise_sigma > 0 else 1.0
            input_files = int(poisson(mean_input_files))
            output_files = int(poisson(mean_output_files))
            input_size = file_sizes(input_files)
            output_size = file_sizes(output_files)
            append(Job(
                work=true_walltime * true_speed * cores * noise,
                cores=cores,
                memory=memory_per_core * cores,
                submission_time=submission_time,
                input_files=input_files,
                output_files=output_files,
                input_size=input_size,
                output_size=output_size,
                target_site=site_name,
                true_walltime=true_walltime,
                true_queue_time=float(exponential(900.0)),
                # A deterministic identity within the trace: fault models key
                # their draws on it (plus the attempt number) so that
                # regenerating the same trace -- in another process, or later
                # in this one -- reproduces the same injected failures
                # regardless of the global job-id counter.
                attributes={"trace_index": trace_index},
            ))
        return jobs

    # -- public API ------------------------------------------------------------
    def generate(self, count: int, start_time: float = 0.0) -> List[Job]:
        """Generate ``count`` jobs spread over every site.

        Site attribution follows the configured site weights; arrival times
        follow the spec's arrival process (or all ``start_time`` for batch
        replay).
        """
        if count < 0:
            raise WorkloadError("count must be >= 0")
        gen = self.rng.generator("jobs")
        site_names = self.infrastructure.site_names
        site_indices = gen.choice(len(site_names), size=count, p=self._site_probabilities)
        sites = [(name, self.true_core_speed(name)) for name in site_names]
        return self._draw_jobs(
            gen,
            [sites[index] for index in site_indices.tolist()],
            self._arrivals(count, start_time),
            range(count),
        )

    def generate_for_site(self, site_name: str, count: int, start_time: float = 0.0) -> List[Job]:
        """Generate ``count`` jobs all targeted at one site (calibration input)."""
        if site_name not in self.infrastructure.site_names:
            raise WorkloadError(f"unknown site {site_name!r}")
        if count < 0:
            raise WorkloadError("count must be >= 0")
        gen = self.rng.generator(f"jobs:{site_name}")
        # Site-qualified trace identity (see _draw_jobs()): unique across the
        # concatenation generate_per_site() builds.
        return self._draw_jobs(
            gen,
            [(site_name, self.true_core_speed(site_name))] * count,
            self._arrivals(count, start_time),
            [f"{site_name}:{index}" for index in range(count)],
        )

    def generate_per_site(self, jobs_per_site: int, start_time: float = 0.0) -> List[Job]:
        """Generate exactly ``jobs_per_site`` jobs for every site (multi-site scaling)."""
        jobs: List[Job] = []
        for site_name in self.infrastructure.site_names:
            jobs.extend(self.generate_for_site(site_name, jobs_per_site, start_time))
        return jobs

"""Bundled allocation policies.

CGSim ships a simple example plugin out of the box and leaves richer policies
to users; this reproduction bundles a representative set so the scheduling
ablation benchmarks have something meaningful to compare:

* :class:`RoundRobinPolicy` -- cycle through eligible sites (the out-of-the-
  box example of the paper).
* :class:`RandomPolicy` -- uniform random eligible site.
* :class:`LeastLoadedPolicy` -- least outstanding work per core.
* :class:`WeightedCapacityPolicy` -- probability proportional to total cores
  (optionally scaled by core speed).
* :class:`DataAwarePolicy` -- prefer sites already holding the job's input
  data; fall back to least-loaded.
* :class:`PandaDispatcherPolicy` -- a PanDA-inspired heuristic balancing
  queue depth against site capacity, used to replicate the production
  dispatching behaviour during calibration.
* :class:`BackfillPolicy` -- least-loaded for wide jobs, but lets single-core
  jobs slip into sites with a few idle cores.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.plugins.base import AllocationPolicy, ResourceView, SiteStatus
from repro.plugins.registry import register_policy
from repro.utils.rng import RandomSource
from repro.workload.job import Job

__all__ = [
    "RoundRobinPolicy",
    "RandomPolicy",
    "LeastLoadedPolicy",
    "WeightedCapacityPolicy",
    "DataAwarePolicy",
    "PandaDispatcherPolicy",
    "BackfillPolicy",
    "FollowTracePolicy",
]


@register_policy("round_robin")
class RoundRobinPolicy(AllocationPolicy):
    """Assign jobs to eligible sites in a fixed cyclic order (the paper's
    out-of-the-box example plugin)."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self._cursor = 0

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        eligible = resources.sites_that_fit(job.cores)
        if not eligible:
            return None
        names = sorted(s.name for s in eligible)
        choice = names[self._cursor % len(names)]
        self._cursor += 1
        return choice

    def snapshot(self) -> dict:
        """Capture the cyclic cursor so a restored run resumes the rotation."""
        return {"cursor": self._cursor}

    def restore(self, state: dict) -> None:
        """Re-seat the cyclic cursor from a :meth:`snapshot` payload."""
        self._cursor = int(state.get("cursor", 0))


@register_policy("random")
class RandomPolicy(AllocationPolicy):
    """Assign each job to a uniformly random eligible site (seeded)."""

    def __init__(self, seed: int = 0, **options) -> None:
        super().__init__(seed=seed, **options)
        self._rng = RandomSource(seed).generator("random-policy")

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        eligible = sorted(s.name for s in resources.sites_that_fit(job.cores))
        if not eligible:
            return None
        return eligible[int(self._rng.integers(0, len(eligible)))]

    def snapshot(self) -> dict:
        """Capture the policy's RNG stream position for checkpointing."""
        from repro.utils.rng import generator_state

        return {"rng": generator_state(self._rng)}

    def restore(self, state: dict) -> None:
        """Re-seat the policy's RNG stream from a :meth:`snapshot` payload."""
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])

    def reseed(self, seed: int) -> None:
        """Re-derive the choice stream from ``seed`` (fork-branch divergence)."""
        self._rng = RandomSource(int(seed)).generator("random-policy")


@register_policy("least_loaded")
class LeastLoadedPolicy(AllocationPolicy):
    """Assign each job to the eligible site with the smallest normalised backlog
    (outstanding jobs per core); load fraction, then name, break ties
    (:meth:`ResourceView.least_loaded`)."""

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        best = resources.least_loaded(job.cores)
        return best.name if best is not None else None


@register_policy("weighted_capacity")
class WeightedCapacityPolicy(AllocationPolicy):
    """Probabilistic assignment proportional to site capacity.

    ``use_speed=True`` weights by aggregate speed (cores x per-core speed)
    instead of plain core count.
    """

    def __init__(self, seed: int = 0, use_speed: bool = False, **options) -> None:
        super().__init__(seed=seed, use_speed=use_speed, **options)
        self.use_speed = bool(use_speed)
        self._rng = RandomSource(seed).generator("weighted-capacity")

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        eligible = sorted(resources.sites_that_fit(job.cores), key=lambda s: s.name)
        if not eligible:
            return None
        if self.use_speed:
            weights = np.array([s.total_cores * s.core_speed for s in eligible], dtype=float)
        else:
            weights = np.array([s.total_cores for s in eligible], dtype=float)
        total = weights.sum()
        if total <= 0:
            return eligible[0].name
        index = int(self._rng.choice(len(eligible), p=weights / total))
        return eligible[index].name

    def snapshot(self) -> dict:
        """Capture the policy's RNG stream position for checkpointing."""
        from repro.utils.rng import generator_state

        return {"rng": generator_state(self._rng)}

    def restore(self, state: dict) -> None:
        """Re-seat the policy's RNG stream from a :meth:`snapshot` payload."""
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])

    def reseed(self, seed: int) -> None:
        """Re-derive the weighting stream from ``seed`` (fork-branch divergence)."""
        self._rng = RandomSource(int(seed)).generator("weighted-capacity")


@register_policy("data_aware")
class DataAwarePolicy(AllocationPolicy):
    """Prefer sites that already hold the job's input dataset.

    The job's ``attributes["dataset"]`` (when present) names the dataset it
    reads; sites whose storage holds a replica and that can fit the job win.
    Otherwise the policy falls back to the least-loaded eligible site, which
    keeps behaviour sensible for jobs without data affinity.
    """

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        dataset = job.attributes.get("dataset")
        if dataset is not None:
            # The holder with the smallest (load fraction, backlog, name).
            holder, least = None, 0.0
            for s in resources.sites_that_fit(job.cores):
                if dataset in s.resident_data:
                    load = s.load_fraction
                    if holder is None or load < least or (
                        load == least and (s.backlog, s.name) < (holder.backlog, holder.name)
                    ):
                        holder, least = s, load
            if holder is not None:
                return holder.name
        best = resources.least_loaded(job.cores)
        return best.name if best is not None else None


@register_policy("panda_dispatcher")
class PandaDispatcherPolicy(AllocationPolicy):
    """PanDA-inspired dispatching heuristic.

    Production PanDA brokers jobs by comparing each queue's backlog with its
    processing capacity: sites with a short backlog relative to how fast they
    drain it receive the next job.  The score used here is::

        expected_wait(site) = backlog_cores / (total_cores * relative_speed)

    The eligible site with the smallest expected wait wins; ties break by
    name for determinism.  ``respect_target=True`` (used when replaying
    historical traces during calibration) sends each job to its recorded
    production site whenever that site exists.
    """

    def __init__(self, respect_target: bool = False, **options) -> None:
        super().__init__(respect_target=respect_target, **options)
        self.respect_target = bool(respect_target)
        self._mean_speed: Optional[float] = None

    def initialize(self, platform_description: dict) -> None:
        zones = platform_description.get("zones", {})
        speeds = [z["mean_core_speed"] for z in zones.values() if z.get("mean_core_speed")]
        self._mean_speed = float(np.mean(speeds)) if speeds else None

    def _capacity(self, site: SiteStatus) -> float:
        """``total_cores * relative_speed``: the run-constant weight of a site."""
        return max(site.total_cores, 1) * max(site.core_speed / (self._mean_speed or 1.0), 1e-9)

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        """The fitting site of least ``(expected_wait, name)``, read in backlog order.

        The sites come in ``(k, name)`` order, ``k = fl(b / C)`` for backlog
        ``b`` and capacity ``C`` (:meth:`ResourceView.sites_by_backlog`), and
        the walk stops where no later site can win.  It picks what a scan of
        every site picks.  With ``t = b / C`` the exact rational, a site's
        wait is ``W = fl(w * t)`` (``b * w`` is an exact integer, divided once,
        correctly rounded) and ``k = fl(t)``: both are non-decreasing in
        ``t``, so ``k' > k`` implies ``t' > t`` and ``W' >= W``.

        * Width ``w == 1``: ``W == k`` bit for bit, so the order *is* the
          ``(W, name)`` order and the first fitting site wins.
        * ``W == 0`` for the best so far: ``0 <= k <= W`` puts every site with
          ``W == 0`` in the ``k == 0`` group, which is read in name order, so
          the ones not read yet have larger names.  Stop.
        * Otherwise, at the first site whose ``W`` exceeds the best, every
          later ``k`` group has a larger ``W`` still and cannot win; a later
          site of the *same* group may have a smaller ``t`` and tie the best
          under a smaller name, so the group is read to its end, then stop.
          Sites read on the way that tie or beat the best update it as the
          full scan would.
        """
        if self.respect_target and job.target_site and job.target_site in resources:
            target = resources.site(job.target_site)
            if target.max_host_cores >= job.cores:
                return target.name
        cores, width = job.cores, max(1, job.cores)
        order = resources.sites_by_backlog(self._capacity)
        if width == 1:
            for _, name, site in order:
                if site.max_host_cores >= cores:
                    return name
            return None
        best, least, closing = None, 0.0, None
        for key, name, site in order:
            if closing is not None and key != closing:
                break
            wait = site.backlog * width / self._capacity(site)
            if best is not None and wait > least:
                closing = key
            elif site.max_host_cores >= cores and (best is None or wait < least or name < best):
                best, least = name, wait
                if wait == 0.0:
                    break
        return best


@register_policy("backfill")
class BackfillPolicy(AllocationPolicy):
    """Least-loaded placement with single-core backfilling.

    Multi-core jobs go to the least-loaded site that can ever fit them;
    single-core jobs preferentially fill sites that currently have idle cores
    (even heavily loaded ones), which keeps narrow jobs from queueing behind
    wide ones.
    """

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        if job.cores == 1:
            # The site with free cores and the smallest (backlog, -free cores, name).
            gap, least = None, 0
            for s in resources.sites_with_capacity(1):
                backlog = s.backlog
                if gap is None or backlog < least or (
                    backlog == least
                    and (-s.available_cores, s.name) < (-gap.available_cores, gap.name)
                ):
                    gap, least = s, backlog
            if gap is not None:
                return gap.name
        best = resources.least_loaded(job.cores)
        return best.name if best is not None else None


@register_policy("follow_trace")
class FollowTracePolicy(AllocationPolicy):
    """Send every job to its recorded production site (calibration replay).

    Jobs without a ``target_site`` (or whose target does not exist in the
    simulated platform) fall back to the least-loaded eligible site so that
    replays of partially-known traces still complete.
    """

    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        if job.target_site and job.target_site in resources:
            site = resources.site(job.target_site)
            if site.max_host_cores >= job.cores:
                return site.name
        best = resources.least_loaded(job.cores)
        return best.name if best is not None else None

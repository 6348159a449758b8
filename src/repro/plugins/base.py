"""Abstract allocation-policy base class and the resource view it sees.

This mirrors the abstract class CGSim installs for plugin developers
(paper Figure 2): the plugin's job is to fill in the *allocation site* of
every incoming job, using the standardized job structure and the resource
information the simulator exposes.

A policy never touches simulator internals: it sees a
:class:`ResourceView` -- a read-only window onto the live per-site capacity
and queue state, handed to every dispatch -- and returns a site name (or
``None`` to leave the job pending).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from repro.utils.errors import SchedulingError
from repro.workload.job import Job

__all__ = ["SiteStatus", "ResourceView", "AllocationPolicy"]


@dataclass
class SiteStatus:
    """Dynamic, per-site information exposed to allocation policies.

    Built by hand (tests, offline analysis) it is a plain record.  The ones
    the main server hands out are *live*: one per site for the whole run,
    whose dynamic fields read the site as it is now and refuse writes.  Keep
    the values you read inside ``assign_job``, not the status.
    ``resident_data`` and ``properties`` are shared with the simulator.
    """

    name: str
    total_cores: int
    available_cores: int
    core_speed: float
    pending_jobs: int
    running_jobs: int
    assigned_jobs: int
    finished_jobs: int
    failed_jobs: int = 0
    #: Names of datasets/files whose replicas the site's storage holds.
    resident_data: frozenset = field(default_factory=frozenset)
    #: Free-form site properties (tier, cloud, country); read-only.
    properties: Mapping[str, str] = field(default_factory=dict)
    #: Cores of the site's widest host: the widest job it can ever admit.
    #: ``None`` (hand-built records) means one host holding ``total_cores``.
    max_host_cores: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_host_cores is None:
            self.max_host_cores = self.total_cores

    @property
    def load_fraction(self) -> float:
        """Fraction of cores currently busy (0 when the site has no cores)."""
        if self.total_cores == 0:
            return 0.0
        return 1.0 - self.available_cores / self.total_cores

    @property
    def backlog(self) -> int:
        """Jobs waiting at or assigned to the site but not yet finished."""
        return self.pending_jobs + self.assigned_jobs + self.running_jobs

    @property
    def normalized_backlog(self) -> float:
        """Outstanding jobs per core -- a drain-time proxy.

        Instantaneous core occupancy alone is a misleading load signal: a
        site whose few free cores are stuck behind a wide job at the head of
        its FIFO queue looks "less loaded" than a fully-busy site even while
        its queue grows without bound.  Normalising the backlog by capacity
        avoids that feedback loop.
        """
        if self.total_cores == 0:
            return float("inf") if self.backlog else 0.0
        return self.backlog / self.total_cores


class ResourceView:
    """The grid as a policy's ``assign_job`` sees it, for one dispatch.

    This is the reproduction of CGSim's ``getResourceInformation`` hook: the
    policy reads it and must not mutate it.  ``sites`` is any site-name ->
    :class:`SiteStatus` mapping, used as given: tests pass a dict of plain
    records, the main server passes the same dict of live statuses to every
    dispatch.  A dispatch is synchronous, so nothing changes under the
    policy; a view or status kept after ``assign_job`` returns keeps reading
    the grid as it is then, so keep values, not statuses.
    """

    def __init__(self, sites: Mapping[str, SiteStatus], time: float = 0.0) -> None:
        self._sites = sites
        self.time = time

    # -- read access ---------------------------------------------------------
    @property
    def site_names(self) -> List[str]:
        """All site names, in platform registration order."""
        return list(self._sites)

    @property
    def sites(self) -> List[SiteStatus]:
        """All site status records."""
        return list(self._sites.values())

    def site(self, name: str) -> SiteStatus:
        """Status of one site (raises :class:`SchedulingError` if unknown)."""
        try:
            return self._sites[name]
        except KeyError:
            raise SchedulingError(f"unknown site {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    # -- common queries used by bundled policies ---------------------------------
    def sites_with_capacity(self, cores: int) -> List[SiteStatus]:
        """Sites that currently have at least ``cores`` free cores."""
        return [s for s in self._sites.values() if s.available_cores >= cores]

    def sites_that_fit(self, cores: int) -> List[SiteStatus]:
        """Sites that can ever run a ``cores``-core job: admission needs one
        *host* that wide, so this reads ``max_host_cores``, not the total."""
        return [s for s in self._sites.values() if s.max_host_cores >= cores]

    def least_loaded(self, cores: int = 1) -> Optional[SiteStatus]:
        """The eligible site with the least outstanding work per core.

        The primary key is the capacity-normalised backlog (a drain-time
        proxy); instantaneous core occupancy and the site name break ties.
        Ranking by occupancy alone would send every job to whichever site has
        a few idle cores stuck behind a wide job, starving the rest of the
        grid.
        """
        best, least = None, 0.0
        for s in self.sites_that_fit(cores):
            backlog = s.normalized_backlog
            if best is None or backlog < least or (
                backlog == least
                and (s.load_fraction, s.name) < (best.load_fraction, best.name)
            ):
                best, least = s, backlog
        return best

    def sites_by_backlog(
        self, weight: Callable[[SiteStatus], float]
    ) -> Iterator[Tuple[float, str, SiteStatus]]:
        """Every site as ``(backlog / weight(site), name, site)``, smallest first.

        ``weight`` must be positive and *run-constant*: it may read only the
        fields a site keeps for the whole run (``total_cores``,
        ``max_host_cores``, ``core_speed``, ``properties``), and the same
        callable (a bound method, say) must be passed at every dispatch.  A
        view over plain records sorts them on every call; the main server's
        view keeps one order per weight for the run and re-files only the
        sites whose backlog changed since the previous call, so a policy that
        stops early reads a few sites instead of all of them ("What a dispatch
        scans" in ``docs/architecture.md``).
        """
        return iter(sorted(
            ((s.backlog / weight(s), s.name, s) for s in self._sites.values()),
            key=itemgetter(0, 1),
        ))

    def total_available_cores(self) -> int:
        """Free cores across the whole grid."""
        return sum(s.available_cores for s in self._sites.values())


class AllocationPolicy(abc.ABC):
    """Base class every allocation-policy plugin inherits from.

    Subclasses must implement :meth:`assign_job`; the other hooks have
    sensible no-op defaults.  The simulation core guarantees the following
    call order:

    1. :meth:`initialize` once, before any job is dispatched, with the static
       platform description (the ``get_resource_information`` equivalent).
    2. :meth:`assign_job` for every job the main server tries to place
       (including re-tries of pending jobs), with a fresh
       :class:`ResourceView`.
    3. :meth:`on_job_finished` whenever a job reaches a terminal state.
    4. :meth:`finalize` once, when the simulation ends.
    """

    #: Registry name; filled in by :func:`repro.plugins.registry.register_policy`.
    name: str = "custom"

    def __init__(self, **options) -> None:
        #: Free-form options from the execution configuration.
        self.options = dict(options)

    # -- mandatory hook -------------------------------------------------------
    @abc.abstractmethod
    def assign_job(self, job: Job, resources: ResourceView) -> Optional[str]:
        """Return the name of the site ``job`` should run at.

        Returning ``None`` means "no suitable resource right now"; the main
        server then parks the job on its pending list and retries later, as
        described in the paper's workflow.
        """

    # -- optional hooks ---------------------------------------------------------
    def initialize(self, platform_description: dict) -> None:
        """Called once with the static platform description before dispatching."""

    def on_job_finished(self, job: Job) -> None:
        """Called when a job reaches a terminal state (finished or failed)."""

    def finalize(self) -> None:
        """Called once when the simulation completes."""

    # -- checkpoint hooks -----------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the policy's checkpointable state (default: none).

        Part of the :class:`repro.state.Snapshottable` protocol.  Stateless
        policies inherit this empty default; stateful ones (cursors, RNG
        streams, learned weights) override it together with :meth:`restore`
        so checkpoints can freeze and re-seat their decision state exactly.
        """
        return {}

    def restore(self, state: dict) -> None:
        """Re-seat the policy onto a :meth:`snapshot` payload (default: no-op).

        Stateful subclasses override this to stamp their cursors/RNG state
        back; the base implementation accepts any payload silently so
        stateless policies satisfy the protocol without boilerplate.
        """

    def reseed(self, seed: int) -> None:
        """Re-derive the policy's random streams from ``seed`` (default: no-op).

        Called on fork branches so each branch explores an independent
        future: subclasses owning generators rebuild them from the given
        seed; deterministic policies have nothing to reseed and inherit this
        no-op.
        """

    # -- helpers -------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} options={self.options}>"

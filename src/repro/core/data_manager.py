"""Data manager: a Rucio-like replica catalogue with simulated transfers.

The ATLAS ecosystem pairs PanDA (workload management) with Rucio (data
management).  CGSim's data-movement policies are pluggable; this module
provides the substrate they need: a catalogue mapping datasets to the sites
holding replicas, stage-in of a job's input data to its execution site (a
network transfer from the closest replica plus a write into the site storage)
and stage-out of its outputs.

With a :class:`~repro.data.DataCacheSpec` attached, every site additionally
fronts its storage with a finite :class:`~repro.data.SiteCache`: stage-ins
check the destination cache first (hit -> served locally, no WAN flow), a
miss selects a source replica, runs the WAN transfer and inserts the dataset
into the cache -- evicting victims chosen by the configured eviction policy,
whose catalogue replicas are deregistered.  Hit/miss/eviction counters and
bytes-moved-by-tier per site are kept on the caches and surfaced through
:func:`repro.core.metrics.compute_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.des import Environment, Event
from repro.platform.platform import Platform
from repro.utils.errors import CheckpointError, SchedulingError
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.cache import CacheStats, SiteCache
    from repro.data.spec import DataCacheSpec

__all__ = ["Replica", "DataManager"]


@dataclass(frozen=True)
class Replica:
    """One copy of a dataset at a site."""

    dataset: str
    site: str
    size: float


class DataManager:
    """Replica catalogue + data movement over the platform network.

    Parameters
    ----------
    env:
        Discrete-event environment.
    platform:
        Platform whose network and storages transfers run over.
    replication_policy:
        ``"closest"`` (default) stages from the replica with the
        lowest-latency route to the destination; ``"first"`` uses catalogue
        order (deterministic, useful in tests).
    keep_new_replicas:
        When true, a stage-in registers the transferred dataset as a new
        replica at the destination (cache-like behaviour).  Ignored when a
        ``cache`` spec is attached: the site caches then govern which
        transferred datasets stay resident.
    cache:
        Optional :class:`~repro.data.DataCacheSpec`; when given, one
        :class:`~repro.data.SiteCache` per platform zone is built from it
        and every transfer routes through the destination's cache.
    """

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        replication_policy: str = "closest",
        keep_new_replicas: bool = True,
        cache: Optional["DataCacheSpec"] = None,
    ) -> None:
        if replication_policy not in ("closest", "first"):
            raise SchedulingError(f"unknown replication policy {replication_policy!r}")
        self.env = env
        self.platform = platform
        self.replication_policy = replication_policy
        self.keep_new_replicas = keep_new_replicas
        self.cache_spec = cache
        self._replicas: Dict[str, Dict[str, Replica]] = {}
        #: The catalogue by site, kept in step with ``_replicas`` by
        #: ``_add_replica``/``_drop_replica``, and each site's frozen copy of it,
        #: dropped whenever that site's set changes.
        self._resident: Dict[str, Set[str]] = {}
        self._resident_frozen: Dict[str, frozenset] = {}
        #: Transfer log: (dataset, source, destination, size, start, end).
        self.transfer_log: List[dict] = []
        #: Per-site caches (empty mapping when no cache spec is attached).
        self.caches: Dict[str, "SiteCache"] = {}
        #: In-flight fetches keyed by (dataset, destination): cache-mode
        #: misses for a dataset already on its way piggy-back on the running
        #: transfer instead of starting a duplicate WAN flow.
        self._inflight: Dict[Tuple[str, str], Event] = {}
        if cache is not None:
            from repro.data.cache import SiteCache

            for site in platform.zone_names:
                self.caches[site] = SiteCache(
                    site,
                    capacity=cache.effective_capacity(),
                    policy=cache.build_policy(),
                    on_evict=self._make_eviction_handler(site),
                )

    def _make_eviction_handler(self, site: str):
        """Callback deregistering an evicted dataset's replica at ``site``."""

        def handle(dataset: str, size: float) -> None:
            self._drop_replica(dataset, site)
            storages = self.platform.storages_in_zone(site)
            if storages:
                storages[0].evict(dataset)

        return handle

    # -- catalogue ------------------------------------------------------------
    def _add_replica(self, replica: Replica) -> None:
        """Enter ``replica`` into the catalogue and its site's resident set."""
        self._replicas.setdefault(replica.dataset, {})[replica.site] = replica
        self._resident.setdefault(replica.site, set()).add(replica.dataset)
        self._resident_frozen.pop(replica.site, None)

    def _drop_replica(self, dataset: str, site: str) -> None:
        """Forget ``site``'s replica of ``dataset`` (no-op when it has none)."""
        if self._replicas.get(dataset, {}).pop(site, None) is not None:
            self._resident[site].discard(dataset)
            self._resident_frozen.pop(site, None)

    def register_replica(
        self, dataset: str, site: str, size: float, pinned: bool = True, cached: bool = True
    ) -> Replica:
        """Declare that ``site`` holds a copy of ``dataset`` of ``size`` bytes.

        With site caches attached the dataset is also inserted into the
        site's cache -- ``pinned`` (the default) marks it a replica of
        record the eviction policy may never drop.  A pinned insert that
        does not fit is counted as a rejection; the catalogue still lists
        the replica (the origin store holds it outside the cache).
        ``cached=False`` skips the cache entirely: the replica lives on the
        site's origin storage without occupying cache capacity (used for
        per-job synthetic inputs that are never re-read).
        """
        if size < 0:
            raise SchedulingError("replica size must be >= 0")
        self.platform.zone(site)  # validates the site exists
        replica = Replica(dataset=dataset, site=site, size=float(size))
        self._add_replica(replica)
        storages = self.platform.storages_in_zone(site)
        if storages:
            storages[0].register(dataset, size)
        if cached and site in self.caches:
            self.caches[site].insert(dataset, size, pinned=pinned)
        return replica

    def replicas_of(self, dataset: str) -> List[Replica]:
        """All known replicas of ``dataset`` (empty list if unknown)."""
        return list(self._replicas.get(dataset, {}).values())

    def sites_holding(self, dataset: str) -> Set[str]:
        """Names of the sites holding a replica of ``dataset``."""
        return set(self._replicas.get(dataset, {}))

    def datasets_at(self, site: str) -> Set[str]:
        """Datasets with a replica at ``site``."""
        return set(self._resident.get(site, ()))

    def resident_data(self, site: str) -> frozenset:
        """:meth:`datasets_at` as a frozenset shared until ``site``'s catalogue changes."""
        frozen = self._resident_frozen.get(site)
        if frozen is None:
            frozen = self._resident_frozen[site] = frozenset(self._resident.get(site, ()))
        return frozen

    # -- cache bookkeeping -----------------------------------------------------
    def cache_stats(self) -> Dict[str, "CacheStats"]:
        """Per-site cache counter snapshots (empty without caches)."""
        return {site: cache.stats for site, cache in self.caches.items()}

    def cache_summary(self) -> Dict[str, float]:
        """Aggregate cache counters across all sites (flat, JSON-friendly).

        Returns an empty mapping when no caches are attached, so callers can
        merge the summary into metrics unconditionally.  ``wan_bytes`` is
        derived from the transfer log (inter-site transfers only).
        """
        if not self.caches:
            return {}
        hits = sum(c.stats.hits for c in self.caches.values())
        misses = sum(c.stats.misses for c in self.caches.values())
        lookups = hits + misses
        wan_bytes = sum(
            t["size"] for t in self.transfer_log if t["source"] != t["destination"]
        )
        return {
            "cache_hits": float(hits),
            "cache_misses": float(misses),
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "cache_evictions": float(sum(c.stats.evictions for c in self.caches.values())),
            "cache_insertions": float(sum(c.stats.insertions for c in self.caches.values())),
            "cache_rejections": float(sum(c.stats.rejections for c in self.caches.values())),
            "cache_coalesced": float(sum(c.stats.coalesced for c in self.caches.values())),
            "bytes_from_cache": float(sum(c.stats.bytes_from_cache for c in self.caches.values())),
            "bytes_evicted": float(sum(c.stats.bytes_evicted for c in self.caches.values())),
            "bytes_wan": float(wan_bytes),
        }

    def _register_cached_copy(self, dataset: str, site: str, size: float) -> None:
        """Catalogue + storage bookkeeping for a dataset the cache accepted.

        The cache copy is authoritative: if the site storage is full the
        storage registration is skipped but the replica stays (the cache
        holds the bytes), unlike the legacy ``keep_new_replicas`` path which
        rolls the replica back.
        """
        self._add_replica(Replica(dataset=dataset, site=site, size=size))
        storages = self.platform.storages_in_zone(site)
        if storages and not storages[0].holds(dataset):
            try:
                storages[0].register(dataset, size)
            except Exception:  # storage full: cache copy stays, storage does not
                pass

    def prewarm(self, assignments: Iterable[Tuple[str, str]]) -> int:
        """Pre-populate site caches with ``(dataset, site)`` pairs.

        Each known dataset is inserted (unpinned) into the named site's
        cache and registered as a catalogue replica there, so the run starts
        warm: the first stage-in at that site is a hit instead of a WAN
        transfer.  Pairs naming unknown datasets or siteless caches are
        skipped; returns the number of caches actually warmed.
        """
        warmed = 0
        for dataset, site in assignments:
            cache = self.caches.get(site)
            replicas = self._replicas.get(dataset)
            if cache is None or not replicas or site in replicas:
                continue
            size = next(iter(replicas.values())).size
            if cache.insert(dataset, size, pinned=False):
                self._register_cached_copy(dataset, site, size)
                warmed += 1
        return warmed

    # -- checkpoint support ----------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the data subsystem's checkpointable state.

        Part of the :class:`repro.state.Snapshottable` protocol: the replica
        catalogue (dataset -> holding sites), the transfer-log length, the
        number of in-flight fetches and every site cache's snapshot.  All of
        it is replay-derived, so this is the verification record the data
        layer of a restored run is compared against.  The per-site resident
        sets the resource view reads are audited against a scan of the
        catalogue on the way (:class:`CheckpointError` naming the site).
        """
        scan: Dict[str, Set[str]] = {}
        for dataset, by_site in self._replicas.items():
            for site in by_site:
                scan.setdefault(site, set()).add(dataset)
        for site in sorted(scan.keys() | self._resident.keys()):
            datasets, frozen = scan.get(site, set()), self._resident_frozen.get(site)
            stale = frozen is not None and frozen != datasets
            if stale or self._resident.get(site, set()) != datasets:
                raise CheckpointError(
                    f"data manager: resident set of site {site!r} disagrees with the catalogue"
                )
        return {
            "replicas": {
                dataset: sorted(by_site) for dataset, by_site in self._replicas.items()
            },
            "transfers": len(self.transfer_log),
            "inflight": sorted(
                f"{dataset}->{destination}" for dataset, destination in self._inflight
            ),
            "caches": {site: cache.snapshot() for site, cache in sorted(self.caches.items())},
        }

    def restore(self, state: dict) -> None:
        """Verify the replayed data subsystem matches a snapshot.

        Catalogue content, transfer counts, in-flight bookkeeping and cache
        state are rebuilt by replaying the event stream; divergence raises
        :class:`~repro.utils.errors.CheckpointError` with the offending
        paths rather than silently resuming a different data layout.
        """
        from repro.state.protocol import diff_states

        diffs = diff_states(state, self.snapshot())
        if diffs:
            raise CheckpointError(
                "data manager diverged during replay: " + "; ".join(diffs)
            )

    # -- data movement ---------------------------------------------------------
    def _route_cost(self, source: str, destination: str) -> Tuple[float, float]:
        """Cost of staging from ``source``: (route latency, -bottleneck bandwidth)."""
        route = self.platform.route(source, destination)
        return (route.latency, -route.bottleneck_bandwidth)

    def _pick_source(self, dataset: str, destination: str) -> Optional[Replica]:
        """The replica to stage from, deterministically.

        A replica already at the destination always wins.  Otherwise the
        candidates are ordered by ``(cost, site_name)`` -- where cost is the
        catalogue index for ``"first"`` and the route cost for
        ``"closest"`` -- so ties never depend on dict/set iteration order or
        hash randomization.
        """
        by_site = self._replicas.get(dataset)
        if not by_site:
            return None
        if destination in by_site:
            return by_site[destination]
        replicas = list(by_site.values())
        if self.replication_policy == "first":
            return min(replicas, key=lambda r: r.site)
        return min(replicas, key=lambda r: (self._route_cost(r.site, destination), r.site))

    def transfer(self, dataset: str, destination: str, size: Optional[float] = None) -> Event:
        """Move ``dataset`` to ``destination``; event succeeds when it is resident.

        If the dataset is unknown it is treated as originating at the
        destination (zero-cost), so synthetic jobs without a catalogue entry
        still work.  With caches attached the destination cache is consulted
        first; the event's value is the number of bytes moved over the
        network (0.0 for cache/local hits).
        """
        done = Event(self.env)
        self.env.hop(_Transfer(self, dataset, destination, size, done).begin, urgent=True)
        return done

    # -- job-facing helpers -------------------------------------------------------
    def stage_in(self, job: Job, site: str) -> Event:
        """Bring the job's input data to ``site``.

        The dataset name is ``job.attributes["dataset"]`` when present,
        otherwise a per-job pseudo-dataset; unknown datasets transfer from
        the job's target (production) site when that differs, so replaying a
        trace still produces realistic WAN traffic.
        """
        dataset = str(job.attributes.get("dataset", f"job{job.job_id}.input"))
        if dataset not in self._replicas and job.target_site and job.target_site != site:
            try:
                # One-shot synthetic inputs stay out of the cache: pinning a
                # never-re-read file per job would permanently poison finite
                # caches at the production sites.
                self.register_replica(
                    dataset, job.target_site, job.input_size, cached=False
                )
            except SchedulingError:
                pass
        return self.transfer(dataset, site, size=job.input_size)

    def stage_out(self, job: Job, site: str) -> Event:
        """Register and store the job's outputs at ``site``: a write to the
        site's storage when it has one, else one calendar hop."""
        dataset = str(job.attributes.get("output_dataset", f"job{job.job_id}.output"))
        size = job.output_size
        done = Event(self.env)

        def stored(event: Event) -> None:
            if not event._ok:
                return  # the failed write surfaces from env.run, undefused
            self._add_replica(Replica(dataset, site, size))
            cache = self.caches.get(site)
            if cache is not None:
                cache.insert(dataset, size, pinned=False)
            done.succeed(size)

        def begin(_event: Event) -> None:
            storages = self.platform.storages_in_zone(site)
            if storages and size > 0:
                storages[0].write(dataset, size).callbacks.append(stored)
            else:
                self.env.hop(stored)

        self.env.hop(begin, urgent=True)
        return done

    def __repr__(self) -> str:
        return f"<DataManager datasets={len(self._replicas)} transfers={len(self.transfer_log)}>"


class _Transfer:
    """One :meth:`DataManager.transfer` as a chain of callbacks: the urgent
    start, then a cache hit's or a local replica's hop, a coalesced fetch's
    arrival, or the network flow (the events and their order are rule 4 of
    "What one job costs the calendar" in ``docs/architecture.md``)."""

    __slots__ = ("manager", "dataset", "destination", "size", "done", "start", "cache",
                 "source", "moved", "arrival")

    def __init__(self, manager: DataManager, dataset: str, destination: str,
                 size: Optional[float], done: Event) -> None:
        self.manager, self.dataset, self.destination = manager, dataset, destination
        self.size, self.done = size, done

    def begin(self, _event: Event) -> None:
        manager, dataset = self.manager, self.dataset
        self.start = manager.env.now
        cache = self.cache = manager.caches.get(self.destination)
        if cache is not None and dataset in manager._replicas:
            if cache.lookup(dataset):
                # Cache hit: the dataset is resident at the destination.
                manager.env.hop(self._nothing_moved)
                return
            inflight = manager._inflight.get((dataset, self.destination))
            if inflight is not None:
                # The same dataset is already on its way here: piggy-back on
                # the running transfer (Rucio-style request coalescing).
                inflight.callbacks.append(self._landed)
                return
        self._fetch()

    def _landed(self, _arrival: Event) -> None:
        cache, dataset = self.cache, self.dataset
        if dataset in cache:
            cache.touch(dataset)  # the waiter consumed the entry
            cache.stats.coalesced += 1
            self.done.succeed(0.0)
            return
        # The fetch landed but the cache refused the insert; stage independently.
        self._fetch()

    def _fetch(self) -> None:
        manager, dataset, destination = self.manager, self.dataset, self.destination
        source = self.source = manager._pick_source(dataset, destination)
        if source is None or source.site == destination:
            # Unknown dataset, or a local (origin/storage) replica outside
            # the cache: either way nothing crosses the network.
            manager.env.hop(self._nothing_moved)
            return
        moved = self.moved = float(self.size if self.size is not None else source.size)
        route = manager.platform.route(source.site, destination)
        flow = manager.platform.network.transfer(route, moved, metadata={"dataset": dataset})
        if self.cache is not None:
            self.arrival = manager._inflight[(dataset, destination)] = Event(manager.env)
        flow.callbacks.append(self._arrived)

    def _nothing_moved(self, _hop: Event) -> None:
        self.done.succeed(0.0)

    def _arrived(self, _flow: Event) -> None:
        manager, dataset, destination, cache = (
            self.manager, self.dataset, self.destination, self.cache
        )
        source, moved = self.source, self.moved
        if cache is not None:
            try:
                # The cache governs residency: an accepted insert becomes a
                # new catalogue replica (evictions deregister theirs via the
                # callback).  The entry's footprint is the dataset's
                # catalogue size, not the per-job transfer size -- a dataset
                # must occupy the same capacity however it entered the cache.
                if cache.insert(dataset, source.size, pinned=False):
                    manager._register_cached_copy(dataset, destination, source.size)
            finally:
                manager._inflight.pop((dataset, destination), None)
                self.arrival.succeed()
        elif manager.keep_new_replicas:
            manager._add_replica(Replica(dataset=dataset, site=destination, size=moved))
            storages = manager.platform.storages_in_zone(destination)
            if storages and not storages[0].holds(dataset):
                try:
                    storages[0].register(dataset, moved)
                except Exception:  # storage full: keep going, replica stays remote
                    manager._drop_replica(dataset, destination)
        manager.transfer_log.append(
            {
                "dataset": dataset,
                "source": source.site,
                "destination": destination,
                "size": moved,
                "start": self.start,
                "end": manager.env.now,
            }
        )
        self.done.succeed(moved)

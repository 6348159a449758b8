"""Tests for the cache-aware data subsystem (repro.data + DataManager wiring).

Covers the satellite checklist of the cache PR: hit/miss/eviction
accounting, the capacity invariant under random workloads (property-style),
prewarm correctness, deterministic source selection under hash
randomization, and pack-vs-programmatic parity for the ``cache-ablation``
scenario.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.data_manager import DataManager
from repro.data import (
    DataCacheSpec,
    LFUEviction,
    LRUEviction,
    PinnedEviction,
    SiteCache,
    SizeWeightedEviction,
)
from repro.platform.builder import build_platform
from repro.utils.errors import SchedulingError
from repro.utils.rng import RandomSource

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_manager(env, cache: DataCacheSpec = None, sites=("A", "B", "C")):
    infrastructure = InfrastructureConfig(
        sites=[SiteConfig(name=name, cores=4, core_speed=1e9) for name in sites]
    )
    platform = build_platform(env, infrastructure)
    return DataManager(env, platform, cache=cache), platform


class TestSiteCacheAccounting:
    def test_hit_miss_and_byte_counters(self):
        cache = SiteCache("S", capacity=100.0, policy=LRUEviction())
        assert not cache.lookup("d0")  # miss on empty
        assert cache.insert("d0", 40.0)
        assert cache.lookup("d0")
        assert cache.lookup("d0")
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.insertions) == (2, 1, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.bytes_from_cache == pytest.approx(80.0)
        assert stats.bytes_inserted == pytest.approx(40.0)

    def test_lru_evicts_least_recently_used(self):
        cache = SiteCache("S", capacity=30.0, policy=LRUEviction())
        for name in ("a", "b", "c"):
            assert cache.insert(name, 10.0)
        cache.lookup("a")  # refresh a; b is now the coldest
        assert cache.insert("d", 10.0)
        assert "b" not in cache and "a" in cache and "d" in cache
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_evicted == pytest.approx(10.0)

    def test_lfu_evicts_least_frequently_used(self):
        cache = SiteCache("S", capacity=30.0, policy=LFUEviction())
        for name in ("a", "b", "c"):
            assert cache.insert(name, 10.0)
        cache.lookup("a")
        cache.lookup("a")
        cache.lookup("c")  # b has the lowest access count (insert only)
        assert cache.insert("d", 10.0)
        assert "b" not in cache

    def test_size_weighted_evicts_largest_first(self):
        cache = SiteCache("S", capacity=60.0, policy=SizeWeightedEviction())
        assert cache.insert("small", 10.0)
        assert cache.insert("large", 40.0)
        assert cache.insert("mid", 20.0)  # evicts 'large' (40 > 10)
        assert "large" not in cache and "small" in cache and "mid" in cache

    def test_pinned_policy_rejects_instead_of_evicting(self):
        cache = SiteCache("S", capacity=20.0, policy=PinnedEviction())
        assert cache.insert("a", 10.0) and cache.insert("b", 10.0)
        assert not cache.insert("c", 10.0)
        assert cache.stats.rejections == 1 and cache.stats.evictions == 0
        assert "a" in cache and "b" in cache

    def test_pinned_entries_are_never_victims(self):
        cache = SiteCache("S", capacity=20.0, policy=LRUEviction())
        assert cache.insert("origin", 10.0, pinned=True)
        assert cache.insert("copy", 10.0)
        assert cache.insert("fresh", 10.0)  # must evict 'copy', not 'origin'
        assert "origin" in cache and "copy" not in cache
        # Only unpinned entries left -> a too-large insert is rejected.
        assert not cache.insert("huge", 15.0)
        assert "origin" in cache

    def test_oversized_insert_is_rejected(self):
        cache = SiteCache("S", capacity=10.0, policy=LRUEviction())
        assert not cache.insert("big", 11.0)
        assert cache.stats.rejections == 1 and len(cache) == 0

    def test_reinsert_refreshes_without_double_counting(self):
        cache = SiteCache("S", capacity=30.0, policy=LRUEviction())
        assert cache.insert("a", 10.0) and cache.insert("b", 10.0)
        assert cache.insert("a", 10.0)  # refresh, not a second copy
        assert cache.used == pytest.approx(20.0)
        assert cache.stats.insertions == 2
        assert cache.insert("c", 10.0) and cache.insert("d", 10.0)
        assert "b" not in cache and "a" in cache  # refresh made 'a' recent

    def test_invalid_capacity_raises(self):
        with pytest.raises(SchedulingError):
            SiteCache("S", capacity=0.0)

    def test_buggy_policy_returning_stale_victim_rejects_instead_of_hanging(self):
        from repro.data import EvictionPolicy

        class StaleVictim(EvictionPolicy):
            def victim(self, cache):
                return "never_resident"

        cache = SiteCache("S", capacity=10.0, policy=StaleVictim())
        assert cache.insert("a", 10.0)
        assert not cache.insert("b", 10.0)  # must reject, not loop forever
        assert cache.stats.rejections == 1 and "a" in cache

    def test_buggy_policy_naming_a_pinned_victim_cannot_evict_it(self):
        from repro.data import EvictionPolicy

        class PinnedVictim(EvictionPolicy):
            def victim(self, cache):
                return "origin"

        cache = SiteCache("S", capacity=10.0, policy=PinnedVictim())
        assert cache.insert("origin", 10.0, pinned=True)
        assert not cache.insert("b", 10.0)
        assert "origin" in cache and cache.stats.evictions == 0

    def test_touch_bumps_recency_without_hit_accounting(self):
        cache = SiteCache("S", capacity=30.0, policy=LRUEviction())
        for name in ("a", "b", "c"):
            assert cache.insert(name, 10.0)
        cache.touch("a")  # coalesced consumer: recency bump, no hit
        assert cache.stats.hits == 0
        assert cache.insert("d", 10.0)
        assert "b" not in cache and "a" in cache

    def test_eviction_callback_fires(self):
        evicted = []
        cache = SiteCache(
            "S", capacity=10.0, policy=LRUEviction(),
            on_evict=lambda name, size: evicted.append((name, size)),
        )
        cache.insert("a", 10.0)
        cache.insert("b", 10.0)
        assert evicted == [("a", 10.0)]


class TestCapacityInvariant:
    """Property-style: no operation sequence may ever exceed capacity."""

    POLICIES = [LRUEviction, LFUEviction, SizeWeightedEviction, PinnedEviction]

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_capacity_never_exceeded_under_random_workloads(self, policy_cls, seed):
        generator = RandomSource(seed).generator(f"cache-fuzz-{policy_cls.__name__}")
        capacity = 100.0
        cache = SiteCache("S", capacity=capacity, policy=policy_cls())
        names = [f"d{i}" for i in range(30)]
        for _ in range(400):
            op = generator.integers(0, 3)
            name = names[int(generator.integers(0, len(names)))]
            if op == 0:
                cache.lookup(name)
            elif op == 1:
                size = float(generator.uniform(1.0, 60.0))
                pinned = bool(generator.integers(0, 10) == 0)
                cache.insert(name, size, pinned=pinned)
            else:
                cache.remove(name)
            assert cache.used <= capacity + 1e-9
            assert cache.used == pytest.approx(
                sum(cache.entry(n).size for n in cache.datasets())
            )
        stats = cache.stats
        assert stats.hits + stats.misses > 0
        assert stats.insertions >= stats.evictions


class TestDataManagerCacheRouting:
    def test_second_transfer_is_a_cache_hit(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 1e9)
        env.run(until=dm.transfer("d0", "B"))
        assert len(dm.transfer_log) == 1
        env.run(until=dm.transfer("d0", "B"))
        assert len(dm.transfer_log) == 1  # no second WAN flow
        assert dm.caches["B"].stats.hits == 1
        assert dm.caches["B"].stats.misses == 1

    def test_eviction_deregisters_the_replica(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=1.5e9))
        dm.register_replica("d0", "A", 1e9)
        dm.register_replica("d1", "A", 1e9)
        env.run(until=dm.transfer("d0", "B"))
        assert "B" in dm.sites_holding("d0")
        env.run(until=dm.transfer("d1", "B"))  # evicts d0 from B's cache
        assert "B" not in dm.sites_holding("d0")
        assert "B" in dm.sites_holding("d1")
        assert dm.caches["B"].stats.evictions == 1

    def test_pinned_origin_replicas_survive_churn(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=2.5e9))
        dm.register_replica("origin", "B", 1e9)  # pinned replica of record
        dm.register_replica("d1", "A", 1e9)
        dm.register_replica("d2", "A", 1e9)
        env.run(until=dm.transfer("d1", "B"))
        env.run(until=dm.transfer("d2", "B"))  # can only evict d1
        assert "B" in dm.sites_holding("origin")
        assert "origin" in dm.caches["B"]

    def test_concurrent_misses_coalesce_into_one_wan_flow(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 1e9)
        first = dm.transfer("d0", "B")
        second = dm.transfer("d0", "B")
        env.run(until=env.all_of([first, second]))
        assert len(dm.transfer_log) == 1
        assert dm.caches["B"].stats.coalesced == 1

    def test_cache_summary_aggregates_sites(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 1e9)
        env.run(until=dm.transfer("d0", "B"))
        env.run(until=dm.transfer("d0", "B"))
        env.run(until=dm.transfer("d0", "C"))
        summary = dm.cache_summary()
        assert summary["cache_hits"] == 1.0
        assert summary["cache_misses"] == 2.0
        assert summary["cache_hit_rate"] == pytest.approx(1 / 3)
        assert summary["bytes_wan"] == pytest.approx(2e9)

    def test_without_cache_summary_is_empty(self, env):
        dm, _ = build_manager(env, cache=None)
        assert dm.cache_summary() == {}
        assert dm.cache_stats() == {}

    def test_fetched_copies_occupy_the_catalogue_size(self, env):
        """A partial-read transfer must not under-account the cached dataset."""
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 4e9)
        env.run(until=dm.transfer("d0", "B", size=1e9))  # job reads 1 GB of it
        assert dm.caches["B"].entry("d0").size == pytest.approx(4e9)

    def test_synthetic_per_job_inputs_stay_out_of_the_cache(self, env):
        """stage_in's implicit origin registration must not poison caches."""
        from repro.workload.job import Job

        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        job = Job(work=1e9, input_size=1e9, target_site="A")
        env.run(until=dm.stage_in(job, "B"))
        dataset = f"job{job.job_id}.input"
        assert "A" in dm.sites_holding(dataset)  # catalogued at the origin...
        assert dataset not in dm.caches["A"]  # ...but not pinned into its cache


class TestResidentSetsFollowTheCatalogue:
    """The per-site resident sets the resource view reads vs a catalogue scan."""

    @staticmethod
    def check(simulator):
        dm = simulator.data_manager
        catalogue = dm.snapshot()["replicas"]  # dataset -> holding sites
        view = simulator.server.resource_view()
        for site in simulator.sites:
            scan = {dataset for dataset, holders in catalogue.items() if site in holders}
            assert dm.datasets_at(site) == scan
            assert view.site(site).resident_data == frozenset(scan)
            assert view.site(site).resident_data is dm.resident_data(site)
            assert dm.resident_data(site) is dm.resident_data(site)  # shared until a change

    def test_data_cache_shaped_run_with_evictions(self):
        from repro import ExecutionConfig, Simulator
        from repro.atlas import PandaWorkloadModel, wlcg_grid
        from repro.config.execution import MonitoringConfig
        from repro.workload.generator import WorkloadSpec

        infrastructure, topology = wlcg_grid(site_count=4)
        jobs = PandaWorkloadModel(
            infrastructure, spec=WorkloadSpec(arrival_rate=0.02), seed=17
        ).generate_trace(80)
        names = [f"dataset_{i:03d}" for i in range(12)]
        draws = RandomSource(17).generator("dataset-assignment").integers(0, 12, size=len(jobs))
        for job, draw in zip(jobs, draws):
            job.attributes["dataset"] = names[int(draw)]
        simulator = Simulator(
            infrastructure,
            topology,
            ExecutionConfig(plugin="data_aware", monitoring=MonitoringConfig(snapshot_interval=0.0)),
            enable_data_transfers=True,
            data_cache=DataCacheSpec(capacity=30e9, policy="lru"),
        )

        def place(sim):
            for index, name in enumerate(names):
                site = infrastructure.site_names[index % 4]
                sim.data_manager.register_replica(name, site, 10e9, pinned=False)

        simulator.on_build(place)
        session = simulator.session(jobs)
        self.check(simulator)
        while not session.progress().done:
            session.advance_for(600.0)
            self.check(simulator)
        assert simulator.data_manager.cache_summary()["cache_evictions"] > 0
        session.finalize()

    def test_snapshot_names_the_site_whose_resident_set_drifted(self, env):
        from repro.utils.errors import CheckpointError

        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 1e9)
        dm.snapshot()
        dm._resident["B"] = {"ghost"}
        with pytest.raises(CheckpointError, match="site 'B'"):
            dm.snapshot()


class TestPrewarm:
    def test_prewarm_turns_first_reads_into_hits(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9, prewarm=True))
        dm.register_replica("d0", "A", 1e9)
        warmed = dm.prewarm([("d0", "B")])
        assert warmed == 1
        assert "d0" in dm.caches["B"]
        assert "B" in dm.sites_holding("d0")
        env.run(until=dm.transfer("d0", "B"))
        assert len(dm.transfer_log) == 0  # served warm, no WAN flow
        assert dm.caches["B"].stats.hits == 1

    def test_prewarm_skips_unknown_datasets_and_existing_replicas(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=10e9))
        dm.register_replica("d0", "A", 1e9)
        assert dm.prewarm([("nope", "B"), ("d0", "A"), ("d0", "B")]) == 1

    def test_prewarmed_entries_are_evictable(self, env):
        dm, _ = build_manager(env, DataCacheSpec(capacity=1.5e9))
        dm.register_replica("d0", "A", 1e9)
        dm.register_replica("d1", "A", 1e9)
        dm.prewarm([("d0", "B")])
        env.run(until=dm.transfer("d1", "B"))  # needs room: d0 is fair game
        assert "d0" not in dm.caches["B"]
        assert "B" not in dm.sites_holding("d0")


class TestPickSourceDeterminism:
    """Satellite: (cost, site_name) ordering, stable under hash randomization."""

    SCRIPT = """
import json
from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.data_manager import DataManager
from repro.des import Environment
from repro.platform.builder import build_platform

env = Environment()
sites = [SiteConfig(name=f"S{i}", cores=2, core_speed=1e9) for i in range(8)]
platform = build_platform(env, InfrastructureConfig(sites=sites))
dm = DataManager(env, platform)
# Every site holds a replica; the star topology gives identical route costs,
# so the pick must fall back to the site-name tie-break.
for i in range(8):
    dm.register_replica("shared", f"S{i}", 1e9)
picks = [dm._pick_source("shared", f"S{i}").site for i in range(8)]
order = [r.site for r in dm.replicas_of("shared")]
print(json.dumps({"picks": picks, "order": order}))
"""

    def _run(self, hash_seed: str) -> dict:
        environment = dict(os.environ)
        environment["PYTHONHASHSEED"] = hash_seed
        environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, env=environment, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_identical_picks_across_hash_seeds(self):
        first = self._run("0")
        second = self._run("12345")
        assert first == second

    def test_local_replica_always_wins(self, env):
        dm, _ = build_manager(env)
        dm.register_replica("d", "A", 1.0)
        dm.register_replica("d", "B", 1.0)
        assert dm._pick_source("d", "B").site == "B"

    def test_first_policy_orders_by_site_name(self, env):
        infrastructure = InfrastructureConfig(
            sites=[SiteConfig(name=n, cores=2, core_speed=1e9) for n in ("C", "A", "B")]
        )
        platform = build_platform(env, infrastructure)
        dm = DataManager(env, platform, replication_policy="first")
        dm.register_replica("d", "C", 1.0)
        dm.register_replica("d", "A", 1.0)
        assert dm._pick_source("d", "B").site == "A"

"""Tests for the allocation-policy plugin system (repro.plugins)."""

import pytest

from repro.plugins import (
    AllocationPolicy,
    BackfillPolicy,
    DataAwarePolicy,
    LeastLoadedPolicy,
    PandaDispatcherPolicy,
    RandomPolicy,
    ResourceView,
    RoundRobinPolicy,
    SiteStatus,
    WeightedCapacityPolicy,
    available_policies,
    create_policy,
    load_policy_class,
    register_policy,
)
from repro.plugins.bundled import FollowTracePolicy
from repro.utils.errors import SchedulingError
from repro.workload.job import Job


def make_view(sites=None, time=0.0) -> ResourceView:
    """Build a ResourceView from compact per-site specs."""
    sites = sites or {
        "A": dict(total=100, free=50, speed=1e10),
        "B": dict(total=200, free=200, speed=2e10),
        "C": dict(total=50, free=0, speed=5e9),
    }
    statuses = {}
    for name, spec in sites.items():
        statuses[name] = SiteStatus(
            name=name,
            total_cores=spec["total"],
            available_cores=spec["free"],
            core_speed=spec["speed"],
            pending_jobs=spec.get("pending", 0),
            running_jobs=spec.get("running", spec["total"] - spec["free"]),
            assigned_jobs=spec.get("assigned", spec["total"] - spec["free"]),
            finished_jobs=spec.get("finished", 0),
            resident_data=frozenset(spec.get("data", ())),
        )
    return ResourceView(statuses, time=time)


class TestSiteStatusAndResourceView:
    def test_load_fraction_and_backlog(self):
        status = SiteStatus(
            name="X", total_cores=100, available_cores=25, core_speed=1e9,
            pending_jobs=5, running_jobs=75, assigned_jobs=80, finished_jobs=10,
        )
        assert status.load_fraction == pytest.approx(0.75)
        assert status.backlog == 5 + 80 + 75

    def test_zero_core_site_load_fraction(self):
        status = SiteStatus(
            name="X", total_cores=0, available_cores=0, core_speed=1e9,
            pending_jobs=0, running_jobs=0, assigned_jobs=0, finished_jobs=0,
        )
        assert status.load_fraction == 0.0

    def test_what_fits_is_decided_by_the_widest_host(self):
        fields = dict(available_cores=16, core_speed=1e9, pending_jobs=0, running_jobs=0,
                      assigned_jobs=0, finished_jobs=0)
        one_host = SiteStatus(name="ONE", total_cores=16, **fields)  # hand-built: one host
        four_hosts = SiteStatus(name="FOUR", total_cores=16, max_host_cores=4, **fields)
        assert (one_host.max_host_cores, four_hosts.max_host_cores) == (16, 4)
        view = ResourceView({"FOUR": four_hosts, "ONE": one_host})
        assert [s.name for s in view.sites_that_fit(4)] == ["FOUR", "ONE"]
        assert [s.name for s in view.sites_that_fit(8)] == ["ONE"]
        assert view.least_loaded(4).name == "FOUR" and view.least_loaded(8).name == "ONE"
        job = Job(work=1e9, cores=8, target_site="FOUR")
        assert FollowTracePolicy().assign_job(job, view) == "ONE"
        assert PandaDispatcherPolicy(respect_target=True).assign_job(job, view) == "ONE"

    def test_view_queries(self):
        view = make_view()
        assert set(view.site_names) == {"A", "B", "C"}
        assert len(view) == 3
        assert "A" in view and "Z" not in view
        assert view.site("B").total_cores == 200
        with pytest.raises(SchedulingError):
            view.site("Z")
        assert {s.name for s in view.sites_with_capacity(100)} == {"B"}
        assert {s.name for s in view.sites_that_fit(150)} == {"B"}
        assert view.total_available_cores() == 250

    def test_least_loaded_selection(self):
        view = make_view()
        assert view.least_loaded(1).name == "B"
        assert view.least_loaded(1000) is None


class TestRegistry:
    def test_bundled_policies_registered(self):
        names = available_policies()
        for expected in (
            "round_robin",
            "random",
            "least_loaded",
            "weighted_capacity",
            "data_aware",
            "panda_dispatcher",
            "backfill",
            "follow_trace",
        ):
            assert expected in names

    def test_create_policy_by_name(self):
        policy = create_policy("least_loaded")
        assert isinstance(policy, LeastLoadedPolicy)

    def test_create_policy_with_options(self):
        policy = create_policy("random", seed=9)
        assert policy.options["seed"] == 9

    def test_unknown_policy_raises(self):
        with pytest.raises(SchedulingError):
            create_policy("does_not_exist")

    def test_dynamic_module_loading(self):
        cls = load_policy_class("repro.plugins.bundled:RoundRobinPolicy")
        assert cls is RoundRobinPolicy

    def test_dynamic_loading_bad_module(self):
        with pytest.raises(SchedulingError):
            load_policy_class("no.such.module:Policy")

    def test_dynamic_loading_bad_class(self):
        with pytest.raises(SchedulingError):
            load_policy_class("repro.plugins.bundled:NotAClass")

    def test_dynamic_loading_wrong_type(self):
        with pytest.raises(SchedulingError):
            load_policy_class("repro.workload.job:Job")

    def test_register_custom_policy(self):
        @register_policy("test_only_policy")
        class TestOnlyPolicy(AllocationPolicy):
            def assign_job(self, job, resources):
                return resources.site_names[0]

        assert "test_only_policy" in available_policies()
        assert isinstance(create_policy("test_only_policy"), TestOnlyPolicy)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchedulingError):

            @register_policy("round_robin")
            class Clash(AllocationPolicy):
                def assign_job(self, job, resources):
                    return None


class TestBundledPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        view = make_view()
        picks = [policy.assign_job(Job(work=1), view) for _ in range(6)]
        assert picks == ["A", "B", "C", "A", "B", "C"]

    def test_round_robin_skips_too_small_sites(self):
        policy = RoundRobinPolicy()
        view = make_view()
        picks = {policy.assign_job(Job(work=1, cores=150), view) for _ in range(4)}
        assert picks == {"B"}

    def test_round_robin_returns_none_when_nothing_fits(self):
        policy = RoundRobinPolicy()
        view = make_view()
        assert policy.assign_job(Job(work=1, cores=10_000), view) is None

    def test_random_policy_is_seeded(self):
        view = make_view()
        a = [RandomPolicy(seed=3).assign_job(Job(work=1, job_id=i), view) for i in range(10)]
        b = [RandomPolicy(seed=3).assign_job(Job(work=1, job_id=i), view) for i in range(10)]
        assert a == b
        assert set(a) <= {"A", "B", "C"}

    def test_least_loaded_prefers_empty_site(self):
        policy = LeastLoadedPolicy()
        assert policy.assign_job(Job(work=1), make_view()) == "B"

    def test_least_loaded_none_when_no_fit(self):
        policy = LeastLoadedPolicy()
        assert policy.assign_job(Job(work=1, cores=500), make_view()) is None

    def test_weighted_capacity_prefers_bigger_sites(self):
        policy = WeightedCapacityPolicy(seed=1)
        view = make_view()
        picks = [policy.assign_job(Job(work=1, job_id=i), view) for i in range(300)]
        counts = {name: picks.count(name) for name in "ABC"}
        assert counts["B"] > counts["A"] > 0

    def test_weighted_capacity_with_speed(self):
        policy = WeightedCapacityPolicy(seed=1, use_speed=True)
        assert policy.assign_job(Job(work=1), make_view()) in {"A", "B", "C"}

    def test_data_aware_prefers_replica_holder(self):
        view = make_view(
            sites={
                "A": dict(total=100, free=10, speed=1e10, data=("dataset1",)),
                "B": dict(total=200, free=200, speed=1e10),
            }
        )
        policy = DataAwarePolicy()
        job = Job(work=1, attributes={"dataset": "dataset1"})
        assert policy.assign_job(job, view) == "A"

    def test_data_aware_falls_back_to_least_loaded(self):
        view = make_view(
            sites={
                "A": dict(total=100, free=10, speed=1e10),
                "B": dict(total=200, free=200, speed=1e10),
            }
        )
        policy = DataAwarePolicy()
        assert policy.assign_job(Job(work=1), view) == "B"
        job = Job(work=1, attributes={"dataset": "nowhere"})
        assert policy.assign_job(job, view) == "B"

    def test_panda_dispatcher_prefers_short_expected_wait(self):
        view = make_view(
            sites={
                "BUSY": dict(total=100, free=0, speed=1e10, assigned=300, running=100),
                "IDLE": dict(total=100, free=100, speed=1e10, assigned=0, running=0),
            }
        )
        policy = PandaDispatcherPolicy()
        assert policy.assign_job(Job(work=1), view) == "IDLE"

    def test_panda_dispatcher_respects_target_when_asked(self):
        view = make_view()
        policy = PandaDispatcherPolicy(respect_target=True)
        job = Job(work=1, target_site="C")
        assert policy.assign_job(job, view) == "C"

    def test_panda_dispatcher_initialize_uses_platform_description(self):
        policy = PandaDispatcherPolicy()
        policy.initialize({"zones": {"A": {"mean_core_speed": 1e10}}})
        assert policy._mean_speed == pytest.approx(1e10)

    def test_backfill_single_core_goes_to_site_with_free_cores(self):
        view = make_view(
            sites={
                "FULL": dict(total=100, free=0, speed=1e10, assigned=10),
                "BUSYBUTFREE": dict(total=100, free=5, speed=1e10, assigned=50),
            }
        )
        policy = BackfillPolicy()
        assert policy.assign_job(Job(work=1, cores=1), view) == "BUSYBUTFREE"

    def test_backfill_multicore_uses_least_loaded(self):
        policy = BackfillPolicy()
        assert policy.assign_job(Job(work=1, cores=8), make_view()) == "B"

    def test_follow_trace_uses_target_site(self):
        policy = FollowTracePolicy()
        assert policy.assign_job(Job(work=1, target_site="C"), make_view()) == "C"

    def test_follow_trace_falls_back_for_unknown_target(self):
        policy = FollowTracePolicy()
        assert policy.assign_job(Job(work=1, target_site="ZZ"), make_view()) == "B"

    def test_abstract_base_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            AllocationPolicy()


class TestPluginFamilies:
    """The family registry loads the data-layer families lazily but reliably."""

    def test_plugin_families_lists_all_three_in_a_fresh_process(self):
        """Regression: listing families must not depend on repro.data having
        been imported already (the `repro policies --family all` path)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.plugins.registry import plugin_families, available_plugins\n"
             "print(plugin_families())\n"
             "print(sorted(available_plugins('eviction')))"],
            capture_output=True, text=True, env=environment, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "['allocation', 'eviction', 'replication']" in result.stdout
        assert "lru" in result.stdout

    def test_cli_policies_family_all_covers_every_family(self, capsys):
        from repro.cli import main

        assert main(["policies", "--family", "all"]) == 0
        out = capsys.readouterr().out
        for line in ("allocation:round_robin", "eviction:lru", "replication:static_n"):
            assert line in out, f"missing {line!r}"

    def test_dynamic_spec_checked_against_family_base(self):
        from repro.plugins.registry import load_plugin_class
        from repro.utils.errors import SchedulingError

        with pytest.raises(SchedulingError, match="not a"):
            load_plugin_class("eviction", "repro.plugins.bundled:RoundRobinPolicy")

"""Property-based tests of the fault models and the plugin resource view.

Invariants checked over randomized inputs:

* the job failure model is deterministic, honours its configured probability
  in aggregate, and never returns a fraction outside (0, 1);
* outage schedules stay within their horizon, never overlap per site, and
  their realised availability approaches MTBF / (MTBF + MTTR);
* the resource view's helper queries (`sites_that_fit`, `sites_with_capacity`,
  `least_loaded`) agree with their definitions for arbitrary site states, and
  every bundled policy returns either ``None`` or an eligible site;
* the live statuses the main server hands out equal, at every step of a
  random run, plain records built from the same reads, and every bundled
  policy picks the same site from either -- the one the tuple-key ``min``
  its single-pass selection replaced would pick.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config.infrastructure import SiteConfig
from repro.core.data_manager import DataManager
from repro.core.server import MainServer
from repro.core.site import SiteRuntime
from repro.data import DataCacheSpec
from repro.des import Environment, Store
from repro.faults import JobFailureModel, SiteOutageModel
from repro.platform.platform import Platform
from repro.plugins.base import ResourceView, SiteStatus
from repro.plugins.registry import create_policy
from repro.workload.job import Job, JobState

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestFailureModelProperties:
    @given(rates, seeds, st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_fractions_are_valid_and_deterministic(self, rate, seed, job_count):
        """Every decision is reproducible and every fraction lies in (0, 1)."""
        model = JobFailureModel(default_rate=rate, seed=seed)
        twin = JobFailureModel(default_rate=rate, seed=seed)
        jobs = [Job(work=1.0, job_id=10_000 + i) for i in range(job_count)]
        decisions = [model.failure_fraction(job, "SITE") for job in jobs]
        assert decisions == [twin.failure_fraction(job, "SITE") for job in jobs]
        for fraction in decisions:
            assert fraction is None or 0.0 < fraction < 1.0

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_observed_rate_tracks_the_configured_probability(self, seed):
        """Over many jobs the failure frequency approaches the configured rate."""
        rate = 0.3
        model = JobFailureModel(default_rate=rate, seed=seed)
        jobs = [Job(work=1.0, job_id=50_000 + i) for i in range(400)]
        failures = sum(model.failure_fraction(job, "X") is not None for job in jobs)
        assert abs(failures / len(jobs) - rate) < 0.1

    @given(rates, rates, seeds)
    @settings(max_examples=40, deadline=None)
    def test_site_specific_rate_only_affects_that_site(self, default_rate, site_rate, seed):
        """The per-site override changes decisions at that site only."""
        overridden = JobFailureModel(
            default_rate=default_rate, site_rates={"SPECIAL": site_rate}, seed=seed
        )
        plain = JobFailureModel(default_rate=default_rate, seed=seed)
        jobs = [Job(work=1.0, job_id=90_000 + i) for i in range(50)]
        assert [overridden.failure_fraction(j, "OTHER") for j in jobs] == [
            plain.failure_fraction(j, "OTHER") for j in jobs
        ]
        assert overridden.rate_for("SPECIAL") == site_rate


class TestOutageModelProperties:
    @given(
        st.floats(min_value=600.0, max_value=86_400.0, allow_nan=False),
        st.floats(min_value=60.0, max_value=7_200.0, allow_nan=False),
        seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_windows_stay_in_horizon_and_never_overlap_per_site(self, mtbf, mttr, seed):
        model = SiteOutageModel(mtbf, mttr, seed=seed)
        horizon = 7 * 86_400.0
        windows = model.schedule(["A", "B"], horizon)
        per_site = {"A": [], "B": []}
        for window in windows:
            assert 0.0 <= window.start < window.end <= horizon
            per_site[window.site].append(window)
        for site_windows in per_site.values():
            ordered = sorted(site_windows, key=lambda w: w.start)
            for earlier, later in zip(ordered, ordered[1:]):
                assert earlier.end <= later.start

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_realised_availability_matches_expectation(self, seed):
        """Downtime fraction over a long horizon approaches MTTR / (MTBF + MTTR)."""
        mtbf, mttr = 36_000.0, 4_000.0
        model = SiteOutageModel(mtbf, mttr, seed=seed)
        horizon = 400 * (mtbf + mttr)
        windows = model.schedule(["X"], horizon)
        downtime = sum(w.duration for w in windows)
        expected_downtime_fraction = 1.0 - model.expected_availability()
        assert abs(downtime / horizon - expected_downtime_fraction) < 0.05


def _site_status(name: str, total: int, available: int, running: int, assigned: int) -> SiteStatus:
    return SiteStatus(
        name=name,
        total_cores=total,
        available_cores=available,
        core_speed=1e10,
        pending_jobs=0,
        running_jobs=running,
        assigned_jobs=assigned,
        finished_jobs=0,
    )


site_states = st.builds(
    lambda name, total, used, running, assigned: _site_status(
        name, total, max(0, total - used), running, assigned
    ),
    name=st.text(alphabet="ABCDEFGH", min_size=1, max_size=4),
    total=st.integers(min_value=1, max_value=4096),
    used=st.integers(min_value=0, max_value=4096),
    running=st.integers(min_value=0, max_value=200),
    assigned=st.integers(min_value=0, max_value=200),
)


class TestResourceViewProperties:
    @given(st.dictionaries(st.text(alphabet="ABCDEFGHIJ", min_size=1, max_size=3),
                           site_states, min_size=1, max_size=8),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_queries_match_their_definitions(self, sites, cores):
        # Re-key the statuses so names are consistent with the mapping keys.
        statuses = {name: _site_status(name, s.total_cores, s.available_cores,
                                       s.running_jobs, s.assigned_jobs)
                    for name, s in sites.items()}
        view = ResourceView(statuses)
        fitting = view.sites_that_fit(cores)
        with_capacity = view.sites_with_capacity(cores)
        assert all(s.total_cores >= cores for s in fitting)
        assert all(s.available_cores >= cores for s in with_capacity)
        # Anything with enough free cores certainly fits in total capacity.
        assert {s.name for s in with_capacity} <= {s.name for s in fitting}
        assert view.total_available_cores() == sum(s.available_cores for s in statuses.values())

        best = view.least_loaded(cores)
        if fitting:
            assert best is not None and best.name in {s.name for s in fitting}
            # No eligible site has strictly less outstanding work per core.
            assert all(
                (best.normalized_backlog, best.load_fraction)
                <= (s.normalized_backlog + 1e-12, s.load_fraction + 1e-12)
                or best.normalized_backlog <= s.normalized_backlog + 1e-12
                for s in fitting
            )
        else:
            assert best is None

    @given(st.dictionaries(st.text(alphabet="ABCDEFGHIJ", min_size=1, max_size=3),
                           site_states, min_size=1, max_size=8),
           st.sampled_from(["round_robin", "random", "least_loaded",
                            "weighted_capacity", "panda_dispatcher", "backfill"]),
           st.integers(min_value=1, max_value=16),
           seeds)
    @settings(max_examples=60, deadline=None)
    def test_bundled_policies_return_none_or_an_eligible_site(self, sites, policy_name,
                                                              cores, seed):
        statuses = {name: _site_status(name, s.total_cores, s.available_cores,
                                       s.running_jobs, s.assigned_jobs)
                    for name, s in sites.items()}
        view = ResourceView(statuses)
        policy = create_policy(policy_name, seed=seed) if policy_name in (
            "random", "weighted_capacity") else create_policy(policy_name)
        policy.initialize({"zones": {}})
        job = Job(work=1e12, cores=cores)
        choice = policy.assign_job(job, view)
        eligible = {s.name for s in view.sites_that_fit(cores)}
        if choice is None:
            assert not eligible
        else:
            assert choice in eligible


# -- live statuses vs plain records --------------------------------------------------

SITE_NAMES = ["S0", "S1", "S2", "S3"]
DATASETS = ["d0", "d1", "d2"]
SEEDED = {"random", "weighted_capacity"}
POLICIES = ["round_robin", "random", "least_loaded", "weighted_capacity", "data_aware",
            "panda_dispatcher", "backfill", "follow_trace"]

#: One site: the cores of each of its hosts (none: a zero-core site) and its core
#: speed.  Few distinct sizes, so that sites tie on the first key of a selection.
site_specs = st.tuples(
    st.lists(st.sampled_from([2, 4]), max_size=2), st.sampled_from([1e9, 2e9])
)
#: One step of a run: a job handed to a site (wider than its widest host: it
#: fails there), kernel events (grants, finishes, injected failures), or a
#: replica entering a site's two-dataset cache (evicting the oldest).
run_ops = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 3), st.sampled_from([1, 1, 2, 3, 5]),
              st.integers(1, 2)),
    st.tuples(st.just("events"), st.integers(1, 6)),
    st.tuples(st.just("replica"), st.integers(0, 3), st.sampled_from(DATASETS)),
)
#: The job every policy is asked to place after each step.
offers = st.tuples(st.integers(1, 5), st.sampled_from(DATASETS + [None]), st.integers(0, 3))


def plain_record(name, site, data) -> SiteStatus:
    """The record ``MainServer._site_status`` built per dispatch until PR 19."""
    return SiteStatus(
        name=name,
        total_cores=site.total_cores,
        available_cores=site.available_cores,
        core_speed=site.config.core_speed,
        pending_jobs=site.queued_jobs,
        running_jobs=site.running_jobs,
        assigned_jobs=site.backlog,
        finished_jobs=site.finished_jobs,
        failed_jobs=site.failed_jobs,
        resident_data=data.resident_data(name),
        properties=site.config.properties,
        max_host_cores=site.max_host_cores(),
    )


def tuple_key_least_loaded(view, cores):
    """``ResourceView.least_loaded`` as it was at the parent: ``min`` over a tuple key."""
    fit = [s for s in view.sites if s.max_host_cores >= cores]
    if not fit:
        return None
    return min(fit, key=lambda s: (s.normalized_backlog, s.load_fraction, s.name)).name


def tuple_key_choice(policy, job, view):
    """What the four rewritten selections chose at the parent: ``min`` over tuple keys."""
    fit = [s for s in view.sites if s.max_host_cores >= job.cores]
    if policy.name == "data_aware":
        holders = [s for s in fit if job.attributes.get("dataset") in s.resident_data]
        if holders:
            return min(holders, key=lambda s: (s.load_fraction, s.backlog, s.name)).name
    if policy.name == "backfill" and job.cores == 1:
        free = [s for s in view.sites if s.available_cores >= 1]
        if free:
            return min(free, key=lambda s: (s.backlog, -s.available_cores, s.name)).name
    if policy.name == "panda_dispatcher":
        reference_speed = policy._mean_speed or 1.0

        def expected_wait(site):
            backlog_cores = site.backlog * max(1, job.cores)
            relative_speed = site.core_speed / reference_speed if reference_speed else 1.0
            capacity = max(site.total_cores, 1) * max(relative_speed, 1e-9)
            return backlog_cores / capacity

        return min(fit, key=lambda s: (expected_wait(s), s.name)).name if fit else None
    return tuple_key_least_loaded(view, job.cores)


class TestLiveStatusesEqualPlainRecords:
    @given(st.lists(site_specs, min_size=2, max_size=4),
           st.lists(st.tuples(run_ops, offers), min_size=1, max_size=25),
           seeds)
    # Both sites run one job (equal backlog per core), S1's is the narrower: load fraction decides.
    @example(specs=[([4], 1e9), ([4], 1e9)], seed=0,
             steps=[(("submit", 0, 2, 2), (1, None, 0)), (("submit", 1, 1, 2), (1, None, 0)),
                    (("events", 6), (1, None, 0))])
    # Both hold d0 and are idle (equal load fraction), S0 has a job queued: backlog decides.
    @example(specs=[([4], 1e9), ([4], 1e9)], seed=0,
             steps=[(("replica", 0, "d0"), (1, "d0", 0)), (("replica", 1, "d0"), (1, "d0", 0)),
                    (("submit", 0, 1, 1), (1, "d0", 0))])
    @settings(max_examples=150, deadline=None)
    def test_at_every_step_of_a_random_run(self, specs, steps, seed):
        env = Environment()
        platform = Platform(env)
        failures = JobFailureModel(default_rate=0.3, seed=seed)
        sites = {}
        for name, (host_cores, speed) in zip(SITE_NAMES, specs):
            platform.add_zone(name)
            for index, cores in enumerate(host_cores):
                platform.add_host(name, f"{name}_wn{index}", speed=speed, cores=cores)
            config = SiteConfig(name=name, cores=max(1, sum(host_cores)), core_speed=speed,
                                properties={"tier": str(len(host_cores))})
            sites[name] = SiteRuntime(env, platform, config, failure_model=failures)
        data = DataManager(env, platform, cache=DataCacheSpec(capacity=2.0))
        description = platform.describe()
        server = MainServer(env, sites, create_policy("round_robin"), inbox=Store(env),
                            total_jobs=0, data_manager=data, platform_description=description)
        live = server.resource_view()
        policies = {}
        for name in POLICIES:
            options = {"seed": seed} if name in SEEDED else {}
            policies[name] = pair = (create_policy(name, **options), create_policy(name, **options))
            for policy in pair:
                policy.initialize(description)
        names = list(sites)

        for op, (cores, dataset, target) in steps:
            if op[0] == "submit":
                site = sites[names[op[1] % len(names)]]
                job = Job(work=op[3] * 1e9, cores=op[2])
                job.advance(JobState.ASSIGNED, env.now, site=site.name)
                site.submit(job)
            elif op[0] == "events":
                for _ in range(op[1]):
                    if env.peek() == float("inf"):
                        break
                    env.step()
            else:
                data.register_replica(op[2], names[op[1] % len(names)], 1.0, pinned=False)

            plain = {name: plain_record(name, site, data) for name, site in sites.items()}
            assert server.resource_view().sites == live.sites  # the same objects every time
            for status in live.sites:
                record = plain[status.name]
                for field in ("name", "total_cores", "available_cores", "core_speed",
                              "pending_jobs", "running_jobs", "assigned_jobs", "finished_jobs",
                              "failed_jobs", "properties", "max_host_cores", "backlog",
                              "load_fraction", "normalized_backlog"):
                    assert getattr(status, field) == getattr(record, field), (status.name, field)
                assert status.resident_data is record.resident_data
            records = ResourceView(plain, time=env.now)
            # Width 0 makes zero-core sites eligible: their backlog per core is 0 or inf.
            expected = tuple_key_least_loaded(records, 0)
            assert live.least_loaded(0).name == records.least_loaded(0).name == expected
            offer = Job(work=1e9, cores=cores, target_site=names[target % len(names)],
                        attributes={} if dataset is None else {"dataset": dataset})
            for name, (on_live, on_records) in policies.items():
                choice = on_live.assign_job(offer, live)
                assert choice == on_records.assign_job(offer, records), name
                if name in ("least_loaded", "data_aware", "panda_dispatcher", "backfill"):
                    assert choice == tuple_key_choice(on_live, offer, records), name

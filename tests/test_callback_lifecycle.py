"""The job path as callbacks, against the generator processes it replaced.

Every job used to cross three long-lived generator processes -- the job
manager's feeder, the main server's sender and each site's receiver -- and
every data movement started a process of its own: a transfer, a stage-out, a
storage write or read, a network start and each network wake-up.  They are
callback chains now, each hop filed where the process put its event.  This
module keeps the deleted generators as the reference (as
``tests/test_core_components.py`` keeps the deleted sweeper) and runs drawn
packs on both: the fingerprint, the event and snapshot rows and the transfer
log must be equal.

Below the differential sit the count guard -- no process is started per job,
and a job costs at most one ``Process._resume`` -- and the unit tests of the
pieces the chains are made of.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.job_manager as job_manager_module
import repro.core.site as site_module
from repro.config import ExecutionConfig
from repro.config.execution import MonitoringConfig
from repro.config.generators import generate_grid, generate_star_topology
from repro.core.data_manager import DataManager, Replica
from repro.core.server import MainServer
from repro.core.simulator import Simulator
from repro.core.site import SiteRuntime
from repro.data import DataCacheSpec
from repro.des import Environment, Event, Process, Store
from repro.faults import JobFailureModel, OutageWindow
from repro.platform.builder import build_platform
from repro.platform.network import Flow, NetworkModel
from repro.platform.routing import Route
from repro.plugins.bundled import LeastLoadedPolicy
from repro.platform.storage import Storage
from repro.state import fingerprint_result
from repro.utils.errors import PlatformError
from repro.workload.job import Job, reset_job_id_counter

# -- the deleted generators -----------------------------------------------------------


def _drive(generator, start: Event) -> None:
    """Run ``generator`` as a :class:`Process` whose ``Initialize`` is ``start``.

    The callback code files an urgent start hop where a process filed its
    ``Initialize``; resuming the generator from that hop puts the reference
    process's first step at the very same place in the calendar.
    """
    process = Process.__new__(Process)
    Event.__init__(process, start.env)
    process._generator = generator
    process._target = None
    process._send = generator.send
    process._throw = generator.throw
    process._resume_cb = process._resume
    process._resume(start)


def _feeder(manager, batch):
    """``JobManager._feeder``: release each job of one batch at its submission time."""
    for job in batch:
        delay = job.submission_time - manager.env.now
        if delay > 0:
            yield manager.env.timeout(delay)
        yield manager.inbox.put(job)
        manager._released += 1


def _sender(server):
    """``MainServer._sender``: take jobs from the inbox store and place them."""
    while True:
        job = yield server.inbox.get()
        if server.scheduling_overhead > 0:
            yield server.env.timeout(server.scheduling_overhead)
        server._dispatch(job)


def _site_submit(site, job):
    site.assigned_jobs += 1
    if site._idle is None:
        site.queue.append(job)
    else:
        waiting, site._idle = site._idle, None
        waiting.succeed(job)
    if site.backlog_changed is not None:
        site.backlog_changed()


def _next_job(site):
    event = site.env.event()
    if site.queue:
        event.succeed(site.queue.popleft())
        if site.backlog_changed is not None:
            site.backlog_changed()
    else:
        site._idle = event
    return event


def _receiver(site):
    """``SiteRuntime._receiver``: admit jobs FIFO, start each as an ``_Execution``."""
    next_job = _next_job(site)
    while True:
        job = yield next_job
        while not site.online:
            yield site._online_event
        if job.cores > site.max_host_cores():
            site._fail(job, f"no host at {site.name} has {job.cores} cores")
            next_job = _next_job(site)
            continue
        host = site.zone.best_fit(job.cores)
        while host is None:
            site._capacity_event = site.env.event()
            yield site._capacity_event
            host = site.zone.best_fit(job.cores)
        request = host.core_pool.request(amount=job.cores)
        site.zone.refile(host)
        yield request
        next_job = _next_job(site)
        site_module._Execution(site, job, host, request).advance()


def _start_receiver(site, start):
    site._idle = site._capacity_event = None
    _drive(_receiver(site), start)


def _signal_capacity(site):
    event, site._capacity_event = site._capacity_event, None
    if event is not None:
        event.succeed()


def _transfer(self, dataset, destination, size=None):
    done = Event(self.env)
    self.env.process(_transfer_proc(self, dataset, destination, size, done))
    return done


def _transfer_proc(self, dataset, destination, size, done):
    """``DataManager._transfer_proc``: cache hit, inflight coalescing, fetch."""
    start = self.env.now
    cache = self.caches.get(destination)
    if cache is not None and dataset in self._replicas:
        if cache.lookup(dataset):
            yield self.env.timeout(0.0)
            done.succeed(0.0)
            return
        inflight = self._inflight.get((dataset, destination))
        if inflight is not None:
            yield inflight
            if dataset in cache:
                cache.touch(dataset)
                cache.stats.coalesced += 1
                done.succeed(0.0)
                return
    source = self._pick_source(dataset, destination)
    if source is None or source.site == destination:
        yield self.env.timeout(0.0)
        done.succeed(0.0)
        return
    transfer_size = float(size if size is not None else source.size)
    route = self.platform.route(source.site, destination)
    if cache is not None:
        arrival = Event(self.env)
        self._inflight[(dataset, destination)] = arrival
        try:
            yield self.platform.network.transfer(
                route, transfer_size, metadata={"dataset": dataset}
            )
            if cache.insert(dataset, source.size, pinned=False):
                self._register_cached_copy(dataset, destination, source.size)
        finally:
            self._inflight.pop((dataset, destination), None)
            arrival.succeed()
    else:
        yield self.platform.network.transfer(
            route, transfer_size, metadata={"dataset": dataset}
        )
    if cache is None and self.keep_new_replicas:
        self._add_replica(Replica(dataset=dataset, site=destination, size=transfer_size))
        storages = self.platform.storages_in_zone(destination)
        if storages and not storages[0].holds(dataset):
            try:
                storages[0].register(dataset, transfer_size)
            except Exception:
                self._drop_replica(dataset, destination)
    self.transfer_log.append(
        {
            "dataset": dataset,
            "source": source.site,
            "destination": destination,
            "size": transfer_size,
            "start": start,
            "end": self.env.now,
        }
    )
    done.succeed(transfer_size)


def _stage_out(self, job, site):
    dataset = str(job.attributes.get("output_dataset", f"job{job.job_id}.output"))
    done = Event(self.env)
    self.env.process(_stage_out_proc(self, dataset, site, job.output_size, done))
    return done


def _stage_out_proc(self, dataset, site, size, done):
    storages = self.platform.storages_in_zone(site)
    if storages and size > 0:
        yield storages[0].write(dataset, size)
    else:
        yield self.env.timeout(0.0)
    self._add_replica(Replica(dataset, site, size))
    cache = self.caches.get(site)
    if cache is not None:
        cache.insert(dataset, size, pinned=False)
    done.succeed(size)


def _write(self, filename, size):
    if size < 0:
        raise PlatformError("file size must be >= 0")
    done = Event(self.env)
    self.env.process(_write_proc(self, filename, size, done))
    return done


def _write_proc(self, filename, size, done):
    if self._used + size > self.capacity + 1e-9:
        done.fail(PlatformError(f"storage {self.name!r} full writing {filename!r}"))
        return
    with self._channel.request() as slot:
        yield slot
        yield self.env.timeout(size / self.write_bandwidth)
    self.register(filename, size)
    self.bytes_written += size
    done.succeed(filename)


def _read(self, filename):
    done = Event(self.env)
    self.env.process(_read_proc(self, filename, done))
    return done


def _read_proc(self, filename, done):
    if filename not in self._files:
        done.fail(PlatformError(f"storage {self.name!r} does not hold {filename!r}"))
        return
    size = self._files[filename]
    with self._channel.request() as slot:
        yield slot
        yield self.env.timeout(size / self.read_bandwidth)
    self.bytes_read += size
    done.succeed(size)


def _network_transfer(self, route, size, metadata=None):
    if size < 0:
        raise PlatformError(f"transfer size must be >= 0, got {size}")
    done = Event(self.env)
    if not route.links:
        self.env.process(_trivial_transfer(self, done, route, size, metadata))
        return done
    self.env.process(_delayed_start(self, route, size, done, metadata))
    return done


def _flow(self, route, size, remaining, done, metadata):
    return Flow(flow_id=next(self._ids), route=route, size=size, remaining=remaining,
                done_event=done, start_time=self.env.now, last_update=self.env.now,
                metadata=dict(metadata or {}))


def _trivial_transfer(self, done, route, size, metadata):
    yield self.env.timeout(0.0)
    flow = _flow(self, route, size, 0.0, done, metadata)
    self.completed.append(flow)
    done.succeed(flow)


def _delayed_start(self, route, size, done, metadata):
    if route.latency > 0:
        yield self.env.timeout(route.latency)
    flow = _flow(self, route, size, float(size), done, metadata)
    if size == 0:
        self.completed.append(flow)
        done.succeed(flow)
        return
    self._flows[flow.flow_id] = flow
    for link in flow.route.links:
        link.active_flows += 1
    _reschedule(self)


def _reschedule(self):
    import math

    self._settle()
    self._finish_completed()
    self._compute_rates()
    self._epoch += 1
    epoch = self._epoch
    next_completion = math.inf
    for flow in self._flows.values():
        if flow.rate > 0:
            next_completion = min(next_completion, flow.remaining / flow.rate)
    if math.isfinite(next_completion):
        minimum_advance = math.ulp(self.env.now) if self.env.now > 0 else 0.0
        self.env.process(_wakeup(self, max(minimum_advance, next_completion), epoch))


def _wakeup(self, delay, epoch):
    yield self.env.timeout(delay)
    if epoch != self._epoch:
        return
    _reschedule(self)


@contextlib.contextmanager
def generator_lifecycle():
    """Run the simulator on the generator processes inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(job_manager_module, "Inbox", Store)
        patch.setattr(job_manager_module.JobManager, "_release",
                      lambda self, batch: self.env.process(_feeder(self, batch)))
        patch.setattr(MainServer, "_take", lambda self, start: _drive(_sender(self), start))
        patch.setattr(SiteRuntime, "_take", _start_receiver)
        patch.setattr(SiteRuntime, "submit", _site_submit)
        patch.setattr(SiteRuntime, "_signal_capacity", _signal_capacity)
        patch.setattr(site_module, "_Join", lambda env, first, second: env.all_of([first, second]))
        patch.setattr(DataManager, "transfer", _transfer)
        patch.setattr(DataManager, "stage_out", _stage_out)
        patch.setattr(Storage, "write", _write)
        patch.setattr(Storage, "read", _read)
        patch.setattr(NetworkModel, "transfer", _network_transfer)
        patch.setattr(NetworkModel, "_reschedule", _reschedule)
        yield


# -- drawn packs ------------------------------------------------------------------------

#: One job: (submission second, work in seconds on a 1 GHz core, cores,
#: dataset index, input GB, output GB).  Whole seconds on whole-GHz cores make
#: submissions land on job ends; few distinct seconds make same-time bursts.
jobs = st.tuples(st.integers(0, 12), st.integers(1, 8), st.integers(1, 3),
                 st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))

cases = st.fixed_dictionaries({
    "sites": st.integers(1, 3),
    "hosts": st.integers(1, 2),
    "cores": st.integers(3, 6),
    "jobs": st.lists(jobs, min_size=1, max_size=30),
    # Pauses: (second, jobs submitted there -- a mid-run submit() batch -- or none).
    # Every component's snapshot at a pause must be equal too.
    "waves": st.lists(st.tuples(st.integers(0, 40), st.lists(jobs, max_size=8)), max_size=3),
    "policy": st.sampled_from(["least_loaded", "round_robin", "random", "data_aware"]),
    "overhead": st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    "failure_rate": st.sampled_from([0.0, 0.0, 0.3]),
    "retries": st.integers(0, 2),
    "outages": st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20), st.integers(1, 15)),
                        max_size=2),
    "data": st.booleans(),
    "cache": st.sampled_from([None, 15e9, 40e9]),
    "streaming": st.booleans(),
    # Whole-second latencies and 1 GB/s links put transfer ends on job ends too.
    "latency": st.sampled_from([0.0, 1.0, 0.02]),
    "snapshot": st.sampled_from([0.0, 7.0]),
    "seed": st.integers(0, 3),
})


def _jobs(drawn, first_id, sites):
    return [
        Job(work=work * 1e9 * cores, cores=cores, submission_time=float(second),
            job_id=first_id + index, target_site=sites[dataset % len(sites)],
            input_size=input_gb * 1e9, output_size=output_gb * 1e9,
            attributes={"dataset": f"ds{dataset}"})
        for index, (second, work, cores, dataset, input_gb, output_gb) in enumerate(drawn)
    ]


def run_case(case):
    """Run one drawn pack; returns what both lifecycles must agree on."""
    reset_job_id_counter(1)
    infrastructure, _ = generate_grid(case["sites"], seed=case["seed"])
    infrastructure.sites[:] = [
        replace(site, cores=case["cores"] * case["hosts"], hosts=case["hosts"],
                core_speed=1e9, walltime_overhead=0.0, local_latency=0.0)
        for site in infrastructure.sites
    ]
    topology = generate_star_topology(infrastructure, bandwidth=1e9, latency=case["latency"])
    names = [site.name for site in infrastructure.sites]
    execution = ExecutionConfig(
        plugin=case["policy"], seed=case["seed"], max_retries=case["retries"],
        scheduling_overhead=case["overhead"], pending_retry_interval=5.0,
        monitoring=MonitoringConfig(snapshot_interval=case["snapshot"]),
    )
    simulator = Simulator(
        infrastructure, topology, execution,
        enable_data_transfers=case["data"],
        data_cache=DataCacheSpec(capacity=case["cache"]) if case["data"] and case["cache"] else None,
        streaming_io=case["streaming"],
        failure_model=(JobFailureModel(default_rate=case["failure_rate"], seed=case["seed"])
                       if case["failure_rate"] else None),
        outages=[OutageWindow(names[index % len(names)], float(start), float(start + length))
                 for index, start, length in case["outages"]],
    )
    if case["data"]:
        @simulator.on_build
        def place(sim):
            for index in range(4):
                sim.data_manager.register_replica(f"ds{index}", names[index % len(names)], 10e9)

    session = simulator.session(_jobs(case["jobs"], 1, names))
    pauses = []
    next_id = 1000
    for pause, wave in sorted(case["waves"]):
        session.advance_until(max(float(pause), session.now))
        pauses.append(session.snapshot())
        if wave:
            session.submit(_jobs(wave, next_id, names))
            next_id += 100
    result = session.advance_to_completion().finalize()
    data = simulator.data_manager
    return (
        pauses,
        fingerprint_result(result),
        result.collector.events.rows(),
        result.collector.snapshot_rows(),
        list(data.transfer_log) if data is not None else None,
    )


class TestCallbacksMatchTheGenerators:
    @given(cases)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_drawn_pack_runs_identically(self, case):
        callbacks = run_case(case)
        with generator_lifecycle():
            generators = run_case(case)
        pauses, fingerprint, events, snapshots, transfers = callbacks
        assert pauses == generators[0]
        assert fingerprint == generators[1]
        assert events == generators[2]
        assert snapshots == generators[3]
        assert transfers == generators[4]

    @pytest.mark.parametrize("failure", ["dispatch", "stage_out"])
    def test_an_exception_where_a_process_ran_surfaces_alike(self, failure):
        """A policy raising in the dispatch the sender ran, or a stage-out writing
        to a full storage: ``env.run`` raises the same type and message on both."""

        class Raising(LeastLoadedPolicy):
            def assign_job(self, job, resources):
                if resources.time >= 3.0:
                    raise ValueError(f"no site for job {job.job_id} at t={resources.time}")
                return super().assign_job(job, resources)

        def run():
            reset_job_id_counter(1)
            infrastructure, topology = generate_grid(2, seed=1)
            infrastructure.sites[:] = [replace(site, cores=2, hosts=1, storage_capacity=3e9)
                                       for site in infrastructure.sites]
            simulator = Simulator(infrastructure, topology, ExecutionConfig(plugin="least_loaded"),
                                  policy=Raising() if failure == "dispatch" else None,
                                  enable_data_transfers=failure == "stage_out")
            session = simulator.session([
                Job(work=1e12, submission_time=float(second), output_size=2e9, job_id=second + 1)
                for second in range(6)
            ])
            with pytest.raises(Exception) as raised:
                session.advance_to_completion()
            return type(raised.value), str(raised.value)

        callbacks = run()
        with generator_lifecycle():
            assert run() == callbacks
        assert callbacks[0] is (ValueError if failure == "dispatch" else PlatformError)

    def test_the_reference_is_the_generator_lifecycle(self):
        """The patched run really starts processes (and the plain one none)."""
        case = {"sites": 2, "hosts": 1, "cores": 3, "jobs": [(0, 2, 1, 1, 1, 1)] * 4,
                "waves": [], "policy": "least_loaded", "overhead": 0.0, "failure_rate": 0.0,
                "retries": 0, "outages": [], "data": True, "cache": 15e9,
                "streaming": True, "latency": 1.0, "snapshot": 0.0, "seed": 0}
        starts = []
        original = Process.__init__

        def counted(self, env, generator):
            starts.append(generator.__name__)
            original(self, env, generator)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Process, "__init__", counted)
            run_case(case)
            assert starts == []
            with generator_lifecycle():
                run_case(case)
        assert {"_feeder", "_transfer_proc", "_stage_out_proc", "_write_proc",
                "_delayed_start", "_wakeup"} <= set(starts)


# -- hop for hop, one chain at a time ---------------------------------------------------------


def _probe(start, latency):
    """The order in which a probe chain's hops and the ``done`` events of
    ``start(platform, data, sites)`` run, on links of ``latency`` seconds.

    The probe is a chain of plain hops started next to the operations, each
    filing the next and timeouts whole seconds on, which file a hop of their
    own: an operation that files its start or a step at another place than
    its process did lands at another position among the probe's events.
    """
    reset_job_id_counter(1)
    env = Environment()
    infrastructure, _ = generate_grid(2, seed=1)
    infrastructure.sites[:] = [replace(site, cores=4, hosts=1, local_latency=0.0)
                               for site in infrastructure.sites]
    sites = infrastructure.site_names
    platform = build_platform(env, infrastructure, generate_star_topology(
        infrastructure, bandwidth=1e9, latency=latency))
    data = DataManager(env, platform, cache=DataCacheSpec(capacity=25e9))
    order = []

    def later(index):
        def timeout(_event):
            order.append(("later", index, env.now))
            env.hop(lambda _hop: order.append(("after", index, env.now)))
        return timeout

    def probe(index):
        def hop(_event):
            order.append(("probe", index, env.now))
            # Whole seconds on, among whatever the operations file for then.
            for delay in (1.0, 2.0, 3.0):
                env.timeout(delay).callbacks.append(later(index))
            if index < 8:
                env.hop(probe(index + 1))
        return hop

    for at in (0.0, 1.0, 2.0, 3.0):
        env.timeout(at).callbacks.append(probe(0))

    def record(name):
        def done(event):
            event.defused = True  # a failed read is an outcome here
            order.append((name, env.now, event.ok))
        return done

    for name, event in start(platform, data, sites):
        event.callbacks.append(record(name))
    env.run()
    return order


def _network(platform, data, sites):
    route = platform.route(sites[0], sites[1])
    return [("flow", platform.network.transfer(route, 1e9)),
            ("empty", platform.network.transfer(route, 0.0)),
            ("local", platform.network.transfer(Route(sites[0], sites[0]), 1e9)),
            ("second", platform.network.transfer(route, 2e9))]


def _storage(platform, data, sites):
    storage = platform.storages_in_zone(sites[0])[0]
    storage.register("in", 1e9)
    return [("write", storage.write("out", 1e9)), ("read", storage.read("in")),
            ("again", storage.write("more", 1e9)), ("missing", storage.read("nowhere"))]


def _data(platform, data, sites):
    data.register_replica("ds", sites[0], 10e9)
    job = Job(work=1.0, output_size=1e9, job_id=7)
    return [("fetch", data.transfer("ds", sites[1])), ("coalesced", data.transfer("ds", sites[1])),
            ("local", data.transfer("ds", sites[0])), ("unknown", data.transfer("nowhere", sites[1])),
            ("stage_out", data.stage_out(job, sites[1]))]


class TestHopForHop:
    """Each chain's hops land where its process put them, among same-time events."""

    @pytest.mark.parametrize("latency", [0.0, 1.0])
    @pytest.mark.parametrize("start", [_network, _storage, _data])
    def test_chain_interleaves_like_its_process(self, start, latency):
        callbacks = _probe(start, latency)
        with generator_lifecycle():
            generators = _probe(start, latency)
        assert callbacks == generators
        assert len([entry for entry in callbacks if entry[0] != "probe"]) >= 4


# -- the count guard ----------------------------------------------------------------------


def _stack_shape(name: str, jobs: int) -> dict:
    """The four in-process ``benchmarks/stack`` pack families, at ``jobs`` jobs."""
    panda = {"generator": "panda", "jobs": jobs, "seed": 3}
    monitored = {"enable_events": True, "snapshot_interval": 0.0}
    shapes = {
        "replay_batch": {
            "grid": {"kind": "synthetic", "sites": 8, "seed": 1},
            "workload": {"generator": "synthetic", "jobs": jobs, "seed": 3},
            "execution": {"plugin": "follow_trace", "seed": 5, "monitoring": {
                "enable_events": False, "snapshot_interval": 0.0}},
        },
        "policy_stream": {
            "grid": {"kind": "wlcg", "sites": 40},
            "workload": {**panda, "spec": {"arrival_rate": 0.02, "walltime_median": 900.0,
                                           "walltime_sigma": 0.3}},
            "execution": {"plugin": "panda_dispatcher", "seed": 5, "monitoring": {
                "enable_events": True, "snapshot_interval": 300.0}},
        },
        "data_cache": {
            "grid": {"kind": "wlcg", "sites": 10},
            "workload": panda,
            "execution": {"plugin": "data_aware", "seed": 5, "monitoring": monitored},
            "data": {"datasets": 20, "dataset_size": 10e9, "replication_factor": 1, "seed": 7,
                     "assignment": "zipf", "zipf_exponent": 1.2,
                     "cache": {"capacity": 30e9, "policy": "lru", "replication": "static_n"}},
        },
        "faults_resume": {
            "grid": {"kind": "wlcg", "sites": 10},
            "workload": panda,
            "execution": {"plugin": "least_loaded", "seed": 5, "max_retries": 3,
                          "monitoring": monitored},
            "faults": {"job_failures": {"default_rate": 0.15, "seed": 9}},
        },
    }
    return {"name": f"count-guard-{name}", **shapes[name]}


def _count_kernel_work(pack_dict: dict):
    """``(Process constructions, Process._resume calls, attempts)`` of one run."""
    from repro.scenarios.runner import _build_simulator
    from repro.scenarios.schema import ScenarioPack

    counts = {"processes": 0, "resumes": 0}
    construct, resume = Process.__init__, Process._resume

    def counted_construct(self, env, generator):
        counts["processes"] += 1
        construct(self, env, generator)

    def counted_resume(self, event):
        counts["resumes"] += 1
        resume(self, event)

    reset_job_id_counter(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", counted_construct)
        patch.setattr(Process, "_resume", counted_resume)
        simulator, jobs = _build_simulator(ScenarioPack.from_dict(pack_dict))
        result = simulator.session(jobs).advance_to_completion().finalize()
    return counts["processes"], counts["resumes"], len(result.jobs)


class TestNoProcessPerJob:
    """Exact, machine-independent counts in place of a timing gate: a job
    starts no process and costs at most one generator resume."""

    @pytest.mark.parametrize("shape", ["replay_batch", "policy_stream", "data_cache",
                                       "faults_resume"])
    def test_processes_do_not_grow_with_the_job_count(self, shape):
        small = _count_kernel_work(_stack_shape(shape, 30))
        large = _count_kernel_work(_stack_shape(shape, 90))
        assert small[0] == large[0], (small, large)
        for processes, resumes, attempts in (small, large):
            assert attempts >= 30
            assert resumes <= attempts, (shape, resumes, attempts)

    def test_the_counts_see_a_process(self):
        """The reference lifecycle starts processes per job, and the counts show it."""
        pack = _stack_shape("data_cache", 30)
        with generator_lifecycle():
            processes, resumes, attempts = _count_kernel_work(pack)
        assert processes > attempts and resumes > attempts

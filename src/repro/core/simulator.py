"""The :class:`Simulator` facade: one object, one simulated run.

This is the top-level entry point a user of the library interacts with: give
it the three configuration inputs (infrastructure, topology, execution
parameters) and a workload, then either

* call :meth:`Simulator.run` for the classic one-shot batch run, or
* open a :meth:`Simulator.session` for the stepped lifecycle
  (:class:`~repro.core.session.SimulationSession`): advance the clock in
  chunks, submit more jobs mid-run, watch live progress, stop early, and
  finalize when done.

``run()`` is a thin wrapper over a session -- build, advance to completion,
finalize -- so both paths execute the same kernel calls and produce
bit-identical results for closed workloads.  Either way the pieces are wired
together exactly as the paper's architecture figure describes: input layer
-> simulation core (+ plugin) -> output layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.spec import DataCacheSpec
    from repro.faults.models import JobFailureModel, OutageWindow

from repro.config.execution import ExecutionConfig
from repro.config.infrastructure import InfrastructureConfig
from repro.config.topology import TopologyConfig
from repro.core.data_manager import DataManager
from repro.core.job_manager import JobManager
from repro.core.metrics import SimulationMetrics
from repro.core.server import MainServer
from repro.core.session import SimulationSession
from repro.core.site import SiteRuntime
from repro.des import Environment, Event
from repro.monitoring.collector import MonitoringCollector
from repro.monitoring.csv_export import CSVSink
from repro.monitoring.sqlite_store import SQLiteStore
from repro.platform.builder import build_platform
from repro.platform.platform import Platform
from repro.plugins.base import AllocationPolicy
from repro.plugins.registry import create_policy
from repro.utils.logging import NullLogger, SimLogger
from repro.workload.job import Job, JobIdAllocator, JobState

__all__ = ["Simulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Everything a completed :meth:`Simulator.run` produces.

    Bundles the final job objects (including retry attempts), the computed
    :class:`~repro.core.metrics.SimulationMetrics`, the monitoring collector,
    the built platform, the final simulated clock and the wall-clock cost --
    so analyses can go from headline numbers (``result.metrics.makespan``)
    down to per-job state (``result.finished_jobs``) and raw monitoring rows
    (``result.collector.events``) without re-running anything.
    ``stopped_reason`` is non-``None`` when the run's session ended early
    (a stop condition, :meth:`~repro.core.session.SimulationSession.stop`,
    or a simulated-time budget).
    """

    jobs: List[Job]
    metrics: SimulationMetrics
    collector: MonitoringCollector
    platform: Platform
    simulated_time: float
    wallclock_seconds: float
    pending_jobs: int = 0
    assignments: Dict[int, str] = field(default_factory=dict)
    stopped_reason: Optional[str] = None

    @property
    def finished_jobs(self) -> List[Job]:
        """Jobs that completed successfully."""
        return [j for j in self.jobs if j.state is JobState.FINISHED]

    def __repr__(self) -> str:
        return (
            f"<SimulationResult jobs={len(self.jobs)} finished={self.metrics.finished_jobs} "
            f"simulated_time={self.simulated_time:.0f}s wallclock={self.wallclock_seconds:.2f}s>"
        )


class Simulator:
    """Configure and run one CGSim simulation.

    Parameters
    ----------
    infrastructure:
        Site descriptions (input file 1).
    topology:
        Inter-site network (input file 2); ``None`` uses the default star
        around the main server.
    execution:
        Run parameters (input file 3); ``None`` uses defaults.
    policy:
        Either an :class:`AllocationPolicy` instance or ``None`` to build the
        one named in the execution config.
    enable_data_transfers:
        Simulate input/output staging through the network and storage models
        (off by default: the paper's calibration experiments model compute
        walltime, with data movement available for data-aware studies).
    data_cache:
        Optional :class:`~repro.data.DataCacheSpec` giving every site a
        finite cache with the configured eviction policy; stage-ins then
        route through the cache (hit -> local, miss -> WAN + insert/evict)
        and the run metrics carry the per-site cache counters.  Implies
        nothing unless ``enable_data_transfers`` is on.
    streaming_io:
        With data transfers enabled, overlap input staging with computation
        (DCSim-style streaming jobs) instead of staging in before compute.
    parallel_efficiency:
        Efficiency of multi-core execution (1.0 = perfect scaling).
    failure_model:
        Optional :class:`~repro.faults.JobFailureModel` injecting mid-run job
        failures; combine with ``execution.max_retries`` to study PanDA-style
        automatic resubmission.
    outages:
        Optional iterable of :class:`~repro.faults.OutageWindow` applied by a
        :class:`~repro.faults.FaultInjector` (sites stop admitting jobs while
        a window is active).
    logger:
        Structured logger; silent when omitted.
    """

    def __init__(
        self,
        infrastructure: InfrastructureConfig,
        topology: Optional[TopologyConfig] = None,
        execution: Optional[ExecutionConfig] = None,
        policy: Optional[AllocationPolicy] = None,
        enable_data_transfers: bool = False,
        data_cache: Optional["DataCacheSpec"] = None,
        streaming_io: bool = False,
        parallel_efficiency: float = 1.0,
        failure_model: Optional["JobFailureModel"] = None,
        outages: Optional[Iterable["OutageWindow"]] = None,
        logger: Optional[SimLogger] = None,
    ) -> None:
        self.infrastructure = infrastructure
        self.topology = topology or TopologyConfig()
        self.execution = execution or ExecutionConfig()
        self.enable_data_transfers = enable_data_transfers
        self.data_cache = data_cache
        self.streaming_io = streaming_io
        self.parallel_efficiency = parallel_efficiency
        self.failure_model = failure_model
        self.outages = list(outages) if outages is not None else []
        self.logger = logger or NullLogger()
        #: Build-time lifecycle callbacks, invoked with the simulator after
        #: every subsystem is wired but before the first event runs.
        self._build_hooks: List[Callable[["Simulator"], None]] = []

        if policy is not None:
            self.policy = policy
            #: Non-None only when the policy came from the plugin registry;
            #: lets clone()/checkpoints rebuild a pristine equivalent by name.
            self._policy_spec: Optional[tuple] = None
        else:
            self.policy = create_policy(
                self.execution.plugin, **self.execution.plugin_options
            )
            self._policy_spec = (
                self.execution.plugin,
                dict(self.execution.plugin_options),
            )
        #: The policy's pristine state at construction, so clones and
        #: checkpoint-embedded simulators replay from the same origin even
        #: after this instance's policy has advanced its streams.
        self._policy_initial = self.policy.snapshot()

        # Built lazily by session()/run(); exposed for inspection afterwards.
        self.env: Optional[Environment] = None
        self.platform: Optional[Platform] = None
        self.sites: Dict[str, SiteRuntime] = {}
        self.server: Optional[MainServer] = None
        self.job_manager: Optional[JobManager] = None
        self.collector: Optional[MonitoringCollector] = None
        self.data_manager: Optional[DataManager] = None
        self.fault_injector = None
        self._live_sinks: List = []
        self._active_session: Optional[SimulationSession] = None
        #: Whether a snapshot-tick chain is on the calendar (or about to start).
        self._ticking = False
        #: Set by a checkpoint restore for the build it triggers: streamed
        #: outputs continue the files the original session wrote.
        self._continue_outputs = False
        #: Scoped id source for runtime-created jobs (retry attempts); built
        #: per run, seeded from the workload's own ids, so run outputs never
        #: depend on the process-global counter's history.
        self.job_ids: Optional[JobIdAllocator] = None

    # -- lifecycle callbacks ----------------------------------------------------
    def on_build(self, fn: Callable[["Simulator"], None]) -> Callable:
        """Register ``fn(simulator)`` to run after every build, before events.

        The seam for anything that needs the live run-time objects: placing
        dataset replicas (e.g. through :class:`repro.atlas.RucioCatalog`),
        attaching extra monitoring sinks, injecting faults.  Callbacks run in
        registration order each time a session (or ``run()``) builds the
        platform.  Returns ``fn`` so it can be used as a decorator.
        """
        self._build_hooks.append(fn)
        return fn

    # -- construction of one run -----------------------------------------------------
    def _build(self, jobs: List[Job]) -> None:
        self.env = Environment()
        self.logger.bind_clock(lambda: self.env.now if self.env else 0.0)
        # Retry-attempt ids start right above the workload's own ids: a
        # deterministic function of the run's inputs, so two identical runs
        # in one process hand out identical ids (and fingerprints) without
        # any global-counter bookkeeping.
        self.job_ids = JobIdAllocator(
            start=max((int(job.job_id) for job in jobs), default=0) + 1
        )
        self.platform = build_platform(self.env, self.infrastructure, self.topology)
        monitoring = self.execution.monitoring
        self.collector = MonitoringCollector(
            keep_in_memory=monitoring.keep_in_memory,
            batch_size=monitoring.batch_size,
            detail=monitoring.detail,
            sample_stride=monitoring.sample_stride,
        )
        self._live_sinks = []
        if not monitoring.keep_in_memory:
            # Without retention the post-run export below would have nothing
            # to read, so the configured outputs stream live instead.
            self._live_sinks = self._open_sinks(
                self.execution.output.sqlite_path, append=self._continue_outputs
            )
            for sink in self._live_sinks:
                self.collector.attach(sink)
        self.data_manager = (
            DataManager(self.env, self.platform, cache=self.data_cache)
            if self.enable_data_transfers
            else None
        )
        self.sites = {}
        for site_config in self.infrastructure.sites:
            self.sites[site_config.name] = SiteRuntime(
                self.env,
                self.platform,
                site_config,
                collector=self.collector if self.execution.monitoring.enable_events else None,
                data_manager=self.data_manager,
                parallel_efficiency=self.parallel_efficiency,
                failure_model=self.failure_model,
                streaming_io=self.streaming_io,
                logger=self.logger,
            )
        self.job_manager = JobManager(self.env, jobs)
        self.server = MainServer(
            self.env,
            self.sites,
            self.policy,
            inbox=self.job_manager.inbox,
            total_jobs=self.job_manager.total_jobs,
            collector=self.collector if self.execution.monitoring.enable_events else None,
            data_manager=self.data_manager,
            scheduling_overhead=self.execution.scheduling_overhead,
            pending_retry_interval=self.execution.pending_retry_interval,
            max_retries=self.execution.max_retries,
            platform_description=self.platform.describe(),
            id_allocator=self.job_ids.allocate,
            logger=self.logger,
        )
        if self.outages:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                self.env, self.sites, self.outages, logger=self.logger
            )
        self._ticking = False
        if monitoring.snapshot_interval > 0:
            self._start_ticks()
            self.server.rearm_listeners.append(self._restart_ticks)
        for hook in self._build_hooks:
            hook(self)
        self.collector.set_tick_sites(
            [(site.name, site.total_cores) for site in self.sites.values()]
        )

    # -- snapshot ticks -------------------------------------------------------------
    # A tick is a timeout callback that copies five counters per site into the
    # collector.  It is filed exactly where a generator loop's ``yield
    # env.timeout(interval)`` would be: the chain starts from an urgent event
    # (as a process start does), and a job transition at a tick's time is seen
    # by the tick only if its event sits ahead of the tick in that bucket.
    def _start_ticks(self) -> None:
        self._ticking = True
        self.env.hop(self._first_tick, urgent=True)

    def _restart_ticks(self) -> None:
        """``rearm_listeners`` entry: a wave submitted after completion gets
        ticks again, unless the last chain is still running."""
        if not self._ticking:
            self._start_ticks()

    def _first_tick(self, _event: Event) -> None:
        if self.server.all_done.triggered:
            self._ticking = False
        else:
            interval = self.execution.monitoring.snapshot_interval
            self.env.timeout(interval).callbacks.append(self._tick)

    def _tick(self, _event: Event) -> None:
        """Record one snapshot tick; the chain ends at the first tick after completion."""
        server = self.server
        self.collector.record_tick(
            self.env.now,
            len(server.pending),
            [
                (
                    site.zone.available_cores,
                    site.running_jobs,
                    len(site.queue),
                    site.finished_jobs,
                    site.failed_jobs,
                )
                for site in self.sites.values()
            ],
        )
        if server.all_done.triggered:
            self._ticking = False
        else:
            interval = self.execution.monitoring.snapshot_interval
            self.env.timeout(interval).callbacks.append(self._tick)

    # -- checkpoint support -----------------------------------------------------
    def clone(self) -> "Simulator":
        """A fresh, unbuilt Simulator sharing this one's configuration.

        Configuration objects (infrastructure, topology, execution) are
        shared -- they are treated as immutable by the run -- while mutable
        stochastic components are rebuilt pristine: the policy is recreated
        from its registry spec (or deep-copied and re-seated on its initial
        snapshot) and the failure model is copied with its injected-failure
        counters cleared, so a replay through the clone re-draws exactly the
        original decisions.  Build hooks are carried over.  This is what
        :meth:`SimulationSession.fork` builds each branch on.
        """
        import copy

        policy: Optional[AllocationPolicy] = None
        if self._policy_spec is None:
            policy = copy.deepcopy(self.policy)
        failure_model = copy.deepcopy(self.failure_model)
        if failure_model is not None:
            failure_model.injected = {}
        clone = Simulator(
            self.infrastructure,
            self.topology,
            self.execution,
            policy=policy,
            enable_data_transfers=self.enable_data_transfers,
            data_cache=self.data_cache,
            streaming_io=self.streaming_io,
            parallel_efficiency=self.parallel_efficiency,
            failure_model=failure_model,
            outages=list(self.outages),
            logger=self.logger,
        )
        clone._build_hooks = list(self._build_hooks)
        clone.policy.restore(copy.deepcopy(self._policy_initial))
        clone._policy_initial = copy.deepcopy(self._policy_initial)
        return clone

    def _config_payload(self) -> Optional[dict]:
        """Picklable constructor payload for checkpoint embedding, or ``None``.

        Everything :meth:`from_config_payload` needs to rebuild an
        equivalent pristine simulator.  Returns ``None`` when any part (a
        custom policy, an exotic config object) does not pickle -- the
        checkpoint then simply requires an explicit factory at restore time.
        """
        import pickle

        payload = {
            "infrastructure": self.infrastructure,
            "topology": self.topology,
            "execution": self.execution,
            "policy": None if self._policy_spec is not None else self.policy,
            "enable_data_transfers": self.enable_data_transfers,
            "data_cache": self.data_cache,
            "streaming_io": self.streaming_io,
            "parallel_efficiency": self.parallel_efficiency,
            "failure_model": self.failure_model,
            "outages": list(self.outages),
            "policy_initial": self._policy_initial,
        }
        try:
            pickle.dumps(payload, protocol=4)
        except Exception:
            return None
        return payload

    @classmethod
    def from_config_payload(cls, payload: dict) -> "Simulator":
        """Rebuild a pristine simulator from a :meth:`_config_payload` dict.

        The inverse of checkpoint embedding: constructs the simulator from
        the pickled configuration, clears the failure model's
        injected-failure counters (replay re-draws them) and re-seats the
        policy on its recorded initial snapshot so the rebuilt run replays
        the original's stochastic decisions exactly.
        """
        import copy

        payload = dict(payload)
        policy_initial = payload.pop("policy_initial", {})
        failure_model = payload.get("failure_model")
        if failure_model is not None:
            failure_model = copy.deepcopy(failure_model)
            failure_model.injected = {}
            payload["failure_model"] = failure_model
        simulator = cls(**payload)
        simulator.policy.restore(copy.deepcopy(policy_initial))
        simulator._policy_initial = copy.deepcopy(policy_initial)
        return simulator

    # -- running ------------------------------------------------------------------
    def session(self, jobs: Iterable[Job]) -> SimulationSession:
        """Build the run and return its stepped lifecycle handle.

        Constructs the platform, actors and monitoring for ``jobs`` (running
        every :meth:`on_build` callback) and hands back a
        :class:`~repro.core.session.SimulationSession` with the clock parked
        at 0 -- no event has run yet.  A simulator drives one session at a
        time: opening a new session (or calling :meth:`run`) rebuilds the
        run-time objects and detaches the previous session.
        """
        if self._active_session is not None:
            self._active_session._detach()
            self._active_session = None
        session = SimulationSession(self, jobs)
        self._active_session = session
        return session

    def run(self, jobs: Iterable[Job]) -> SimulationResult:
        """Execute the workload and return the collected results.

        The simulation ends when every job has reached a terminal state or,
        if configured, when ``execution.max_simulation_time`` is reached.
        This is a thin wrapper over the session lifecycle -- equivalent to
        ``simulator.session(jobs).advance_to_completion().finalize()`` --
        kept as the one-call front door for closed workloads.
        """
        session = self.session(jobs)
        try:
            session.advance_to_completion()
        except BaseException:
            # Persist what the streaming sinks already received (committing
            # the SQLite connection) instead of leaking open handles and
            # rolling the batches back.
            self._close_live_sinks()
            raise
        return session.finalize()

    def _close_live_sinks(self) -> None:
        """Flush pending monitoring batches and close the streaming sinks."""
        if not self._live_sinks:
            return
        if self.collector is not None:
            self.collector.flush()
        for sink in self._live_sinks:
            sink.close()
        self._live_sinks = []

    # -- output layer ---------------------------------------------------------------
    def _open_sinks(self, sqlite_path: Optional[str], append: bool = False) -> List:
        """The configured output sinks, the SQLite one writing ``sqlite_path``.

        ``append`` continues the CSV streams instead of replacing them (a
        database is always opened in place).
        """
        sinks: List = []
        if sqlite_path:
            sinks.append(SQLiteStore(sqlite_path))
        if self.execution.output.csv_directory:
            sinks.append(CSVSink(self.execution.output.csv_directory, append=append))
        return sinks

    def _write_outputs(self, result: SimulationResult) -> None:
        collector = result.collector
        collector.flush()
        sqlite_path = self.execution.output.sqlite_path
        loading = None
        if collector.keep_in_memory:
            # A retained run feeds the sinks a streamed run fed as it went,
            # one batch each.  The database is loaded beside its path and
            # renamed over it: a re-used path then holds this run's rows only
            # (as the truncated CSVs do), and a crash mid-export never leaves
            # a half-loaded database.
            if sqlite_path:
                loading = f"{sqlite_path}.tmp"
                Path(loading).unlink(missing_ok=True)
            self._live_sinks = self._open_sinks(loading)
            if self._live_sinks:
                events = collector.events.rows()
                snapshots = collector.snapshot_rows()
                for sink in self._live_sinks:
                    sink.write_batch(events)
                    sink.write_snapshots(snapshots)
        for sink in self._live_sinks:
            sink.write_jobs(result.jobs)
        self._close_live_sinks()
        if loading:
            os.replace(loading, sqlite_path)

    def __repr__(self) -> str:
        try:
            sites = len(self.infrastructure)
        except TypeError:
            # A custom infrastructure object without __len__ must not make
            # the repr itself raise (debuggers call it eagerly).
            sites = "?"
        return (
            f"<Simulator sites={sites} policy={self.policy.name!r} "
            f"data_transfers={self.enable_data_transfers}>"
        )

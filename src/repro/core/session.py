"""The stepped simulation lifecycle: :class:`SimulationSession`.

The paper's architecture is input layer -> simulation core -> output layer,
and for batch studies :meth:`repro.core.Simulator.run` is the right shape:
one opaque call that builds the grid, runs the clock to completion and
writes the outputs.  A *session* splits that call into an explicit
lifecycle, the way production DES frontends (SimGrid's stepped
``engine.run(until)`` loop, which CGSim itself builds on) expose the clock:

>>> from repro import Simulator, SyntheticWorkloadGenerator, generate_grid
>>> infrastructure, topology = generate_grid(2, seed=1)
>>> jobs = SyntheticWorkloadGenerator(infrastructure, seed=2).generate(20)
>>> session = Simulator(infrastructure, topology).session(jobs)
>>> session = session.advance_until(3600.0)     # run the first hour
>>> session.peek_metrics().finished_jobs >= 0   # live look, nothing finalised
True
>>> result = session.advance_to_completion().finalize()
>>> result.metrics.finished_jobs
20

Between advances the caller may :meth:`~SimulationSession.submit` more jobs
(open workloads: work arrives while the grid runs), inspect
:meth:`~SimulationSession.progress` and
:meth:`~SimulationSession.peek_metrics`, or
:meth:`~SimulationSession.stop` the run early;
:meth:`~SimulationSession.finalize` then flushes the monitoring sinks,
computes the metrics and writes the configured outputs exactly once -- also
after an abort, so a partial run is never lost.  Live observation hooks
(:meth:`~SimulationSession.on_progress`,
:meth:`~SimulationSession.on_job_state`) and declarative early-stop
conditions (:class:`repro.config.execution.StopConfig`, or programmatic
:meth:`~SimulationSession.add_stop_condition` predicates evaluated between
steps) make bounded-cost sweep trials and interactive inspection first-class.

``Simulator.run()`` is a thin wrapper over a session; when no live hooks are
registered a session advances through exactly the same kernel calls, so
batch results are bit-identical to the pre-session code path.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.des.events import Event
from repro.utils.errors import CheckpointError, SessionError, SimulationError
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import SimulationMetrics
    from repro.core.simulator import SimulationResult, Simulator

__all__ = ["SimulationSession", "SessionProgress"]

#: Session lifecycle states.
_ACTIVE = "active"
_STOPPED = "stopped"
_FINALIZED = "finalized"
_DETACHED = "detached"
#: A restore that raised partway leaves the session in this state: the
#: replayed objects exist but were never verified, so every lifecycle entry
#: point refuses with a clear :class:`SessionError` instead of an attribute
#: error deep inside a half-restored object graph.
_BROKEN = "broken"


@dataclass
class SessionProgress:
    """A cheap, live snapshot of where a session stands.

    Produced by :meth:`SimulationSession.progress` (and handed to
    :meth:`SimulationSession.on_progress` callbacks): counter-level facts
    only -- no metric computation, no flushing -- so it is safe to render at
    high frequency.  ``completed_jobs`` counts terminal jobs (finished plus
    failed attempts), ``pending_jobs`` the jobs parked on the main server's
    pending list, and ``stopped_reason`` is non-``None`` once the session
    stopped early.
    """

    time: float
    total_jobs: int
    released_jobs: int
    completed_jobs: int
    finished_jobs: int
    failed_jobs: int
    pending_jobs: int
    done: bool
    stopped_reason: Optional[str] = None

    @property
    def fraction_complete(self) -> float:
        """Terminal jobs over the expected total (0.0 for an empty workload)."""
        return self.completed_jobs / self.total_jobs if self.total_jobs else 0.0

    def describe(self) -> str:
        """One-line human-readable rendering (the CLI progress line)."""
        line = (
            f"t={self.time:.0f}s jobs {self.completed_jobs}/{self.total_jobs} done "
            f"({self.finished_jobs} finished, {self.failed_jobs} failed, "
            f"{self.pending_jobs} pending, {self.released_jobs} released)"
        )
        if self.stopped_reason is not None:
            line += f" [stopped: {self.stopped_reason}]"
        return line


class SimulationSession:
    """One simulation run under explicit, stepped clock control.

    Created by :meth:`repro.core.Simulator.session` (which builds the
    platform, actors and monitoring before returning); do not construct
    directly.  The lifecycle surface:

    * :meth:`step` -- process exactly one event;
    * :meth:`advance_until` / :meth:`advance_for` -- run the clock to an
      absolute time / by a delta, then pause;
    * :meth:`advance_to_completion` -- run until the workload completes (or
      a stop condition / simulated-time budget fires);
    * :meth:`submit` -- inject more jobs mid-run (open workloads);
    * :meth:`peek_metrics` / :meth:`progress` -- live inspection without
      finalising anything;
    * :meth:`stop` -- request early termination;
    * :meth:`finalize` -- compute metrics, flush and close sinks, write the
      configured outputs exactly once, and return the
      :class:`~repro.core.simulator.SimulationResult`.

    Observation hooks (:meth:`on_progress`, :meth:`on_job_state`) and
    early-stop predicates (:meth:`add_stop_condition`, or the declarative
    ``execution.stop`` section) may be registered at any point before the
    advance that should see them.  When none are registered, advancing runs
    the kernel's inlined event loop untouched -- the bit-identical fast
    path ``Simulator.run()`` uses.
    """

    def __init__(self, simulator: "Simulator", jobs: Iterable[Job]) -> None:
        started = _wallclock.perf_counter()
        self._simulator = simulator
        #: Jobs of this run in input order (grown by :meth:`submit`).
        self._jobs: List[Job] = [
            job if job.state is JobState.CREATED else job.copy_for_replay()
            for job in jobs
        ]
        self._state = _ACTIVE
        self._stopped_reason: Optional[str] = None
        self._result: Optional["SimulationResult"] = None
        #: (predicate, reason-label) pairs evaluated between steps on job completion.
        self._stop_conditions: List[Tuple[Callable[["SimulationSession"], bool], str]] = []
        self._progress_callbacks: List[Callable[[SessionProgress], None]] = []
        self._job_state_listeners: List[Callable] = []
        #: Sentinel event of the advance currently executing (None between).
        self._sentinel: Optional[Event] = None
        #: Simulated-time budget from ``execution.stop.max_simulated_time``.
        self._time_budget: Optional[float] = None
        self._finished_count = 0
        self._failed_count = 0
        self._completions_since_check = 0
        self._wallclock = 0.0
        #: Pristine copies of every submitted batch (wave 0 = construction);
        #: together with :attr:`_ops` these are the checkpoint's replay inputs.
        self._waves: List[List[Job]] = [[job.copy_for_replay() for job in self._jobs]]
        #: Lifecycle op log: ["until", t] / ["completion"] or ["completion",
        #: pause_at] / ["step", n] / ["submit", wave_index] / ["stop",
        #: reason], in execution order.
        self._ops: List[list] = []
        #: An advance aborted by an exception leaves mid-bucket state replay
        #: cannot reproduce; checkpointing is refused until then.
        self._dirty = False
        #: True while :meth:`restore` fast-forwards this session.
        self._restoring = False
        self._broken_reason: Optional[str] = None
        #: Fork-branch index (None for a root session).
        self._branch: Optional[int] = None

        simulator._build(self._jobs)
        assert simulator.env is not None and simulator.server is not None
        #: Where the run's scoped job-id allocator starts (retry attempts
        #: draw from it); recorded in checkpoints so a restore re-seats the
        #: rebuilt allocator before replaying.
        self._job_counter_base = simulator.job_ids.peek()
        simulator.server.completion_listeners.append(self._on_job_completed)
        stop = simulator.execution.stop
        if stop is not None and stop.enabled():
            self._install_stop_config(stop)
        self._wallclock += _wallclock.perf_counter() - started

    # -- plumbing shortcuts ----------------------------------------------------
    @property
    def simulator(self) -> "Simulator":
        """The owning :class:`~repro.core.Simulator` (live run-time objects)."""
        return self._simulator

    @property
    def env(self):
        """The discrete-event :class:`~repro.des.Environment` of this run."""
        return self._simulator.env

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._simulator.env.now

    @property
    def jobs(self) -> List[Job]:
        """The jobs of this run so far, in submission (input) order."""
        return list(self._jobs)

    @property
    def done(self) -> bool:
        """Whether the workload has completed (every expected job terminal)."""
        return self._simulator.server.all_done.triggered

    @property
    def stopped_reason(self) -> Optional[str]:
        """Why the session stopped early (``None`` while it has not)."""
        return self._stopped_reason

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has produced the result already."""
        return self._result is not None

    # -- lifecycle guards -------------------------------------------------------
    def _require_open(self) -> None:
        if self._state == _FINALIZED:
            raise SessionError("session already finalized; create a new session")
        if self._state == _DETACHED:
            raise SessionError(
                "session detached: its Simulator started another session/run"
            )
        if self._state == _BROKEN:
            raise SessionError(
                "session restore did not complete "
                f"({self._broken_reason}); restore again from the checkpoint blob"
            )

    def _detach(self) -> None:
        """Invalidate this session because its simulator was rebuilt."""
        if self._state != _FINALIZED:
            self._state = _DETACHED

    # -- observation hooks ------------------------------------------------------
    def on_progress(
        self,
        interval: float,
        fn: Callable[[SessionProgress], None],
    ) -> "SimulationSession":
        """Call ``fn(progress)`` every ``interval`` simulated seconds.

        The callback runs synchronously inside the event loop (a dedicated
        ticker process), so it sees a consistent mid-run state and may call
        :meth:`stop`.  Wall-clock throttling, if desired, belongs inside
        ``fn`` (see ``repro run --progress``).
        """
        self._require_open()
        interval = float(interval)
        if interval <= 0:
            raise SimulationError(f"on_progress interval must be positive, got {interval}")
        self._progress_callbacks.append(fn)
        self.env.process(self._progress_ticker(interval, fn))
        return self

    def _progress_ticker(self, interval: float, fn):
        while self._result is None:
            yield self.env.timeout(interval)
            if self._result is None:
                fn(self.progress())

    def on_job_state(self, fn: Callable) -> "SimulationSession":
        """Call ``fn(job, state, time, site)`` on every job state transition.

        Fires for *every* transition regardless of the monitoring detail
        level or sampling stride.  Requires event monitoring
        (``execution.monitoring.enable_events``) -- without it no component
        reports transitions and the callback would silently never fire, so
        registration raises instead.
        """
        self._require_open()
        if not self._simulator.execution.monitoring.enable_events:
            raise SimulationError(
                "on_job_state requires execution.monitoring.enable_events=True"
            )
        self._simulator.collector.add_transition_listener(fn)
        self._job_state_listeners.append(fn)
        return self

    def add_stop_condition(
        self,
        predicate: Callable[["SimulationSession"], bool],
        reason: Optional[str] = None,
    ) -> "SimulationSession":
        """Stop the run once ``predicate(session)`` returns true.

        Predicates are evaluated between steps, every time a job reaches a
        terminal state (the only moment the quantities they can observe
        change).  ``reason`` becomes the session's :attr:`stopped_reason`
        (defaults to the predicate's ``__name__``).
        """
        self._require_open()
        label = reason or getattr(predicate, "__name__", "stop_condition")
        self._stop_conditions.append((predicate, label))
        return self

    def _install_stop_config(self, stop) -> None:
        """Translate a declarative :class:`StopConfig` into live conditions."""
        if stop.max_simulated_time is not None:
            self._time_budget = float(stop.max_simulated_time)
        if stop.max_finished_jobs is not None:
            bound = int(stop.max_finished_jobs)
            self.add_stop_condition(
                lambda session: session._finished_count >= bound,
                reason=f"max_finished_jobs={bound}",
            )
        if stop.max_failed_jobs is not None:
            bound = int(stop.max_failed_jobs)
            self.add_stop_condition(
                lambda session: session._failed_count >= bound,
                reason=f"max_failed_jobs={bound}",
            )
        if stop.metric is not None:
            metric, op, value = stop.metric, stop.op, float(stop.value)
            every = int(stop.check_every)

            def metric_predicate(session: "SimulationSession") -> bool:
                if session._completions_since_check < every:
                    return False
                session._completions_since_check = 0
                observed = getattr(session.peek_metrics(), metric, None)
                if observed is None:
                    raise SimulationError(
                        f"stop condition references unknown metric {metric!r}"
                    )
                if op == ">":
                    return observed > value
                if op == ">=":
                    return observed >= value
                if op == "<":
                    return observed < value
                return observed <= value

            self.add_stop_condition(
                metric_predicate, reason=f"{metric} {op} {value}"
            )

    # -- completion bookkeeping --------------------------------------------------
    def _on_job_completed(self, job: Job) -> None:
        """Main-server completion listener: counters + stop-condition checks."""
        if job.state is JobState.FINISHED:
            self._finished_count += 1
        elif job.state is JobState.FAILED:
            self._failed_count += 1
        self._completions_since_check += 1
        if self._state != _ACTIVE or not self._stop_conditions:
            return
        for predicate, label in self._stop_conditions:
            if predicate(self):
                self._request_stop(label)
                return

    def _request_stop(self, reason: str) -> None:
        """Record the stop and wake the active advance (if one is running)."""
        if self._stopped_reason is None:
            self._stopped_reason = reason
        if self._state == _ACTIVE:
            self._state = _STOPPED
        self._wake_sentinel(reason)

    def _wake_sentinel(self, value) -> None:
        """Trigger the active advance's sentinel at ``until`` priority.

        Scheduling at priority -1 (the same slot the kernel gives a numeric
        ``run(until=...)`` deadline) makes the sentinel-driven pause land in
        the same simulation state as the hook-free fast path: *before* any
        normal-priority event still queued at the current time, not after.
        """
        sentinel = self._sentinel
        if sentinel is None or sentinel.triggered:
            return
        sentinel._ok = True
        sentinel._value = value
        self.env.schedule(sentinel, priority=-1)

    def stop(self, reason: str = "stop() requested") -> "SimulationSession":
        """Request early termination.

        Callable from outside (between advances) or from inside any
        registered callback: the current advance returns as soon as the
        in-flight event finishes, further advances become no-ops, and
        :meth:`finalize` records ``reason`` as the result's
        ``stopped_reason``.
        """
        self._require_open()
        # A stop issued between advances is part of the session's replayable
        # history; one issued from inside a callback mid-advance is already
        # implied by the surrounding advance op (and by the stop conditions
        # reinstalled on restore), so only the former is logged.
        outside_advance = self._sentinel is None
        self._request_stop(reason)
        if outside_advance:
            self._ops.append(["stop", reason])
        return self

    # -- stepping ----------------------------------------------------------------
    def step(self) -> bool:
        """Process exactly one event; ``False`` when the calendar is empty.

        The finest-grained control: debuggers and tests can single-step the
        whole grid.  Stop conditions and callbacks registered on the session
        fire exactly as they do under the coarser advances.
        """
        self._require_open()
        try:
            self.env.step()
        except IndexError:
            return False
        except BaseException:
            self._dirty = True
            self._pause_sinks()
            raise
        if self._ops and self._ops[-1][0] == "step":
            self._ops[-1][1] += 1
        else:
            self._ops.append(["step", 1])
        return True

    def advance_until(self, until: float) -> "SimulationSession":
        """Run the simulation until the clock reaches ``until``, then pause.

        Mirrors SimGrid's ``engine.run(until)``: the clock lands exactly on
        ``until`` (even if the calendar drains earlier), and the session can
        be advanced again afterwards.  A stop condition, :meth:`stop` call
        or the ``max_simulated_time`` budget can end the run earlier.  On a
        stopped session this is a no-op.
        """
        self._require_open()
        if self._state == _STOPPED:
            return self
        deadline = float(until)
        now = self.now
        if deadline < now:
            raise SimulationError(f"advance_until({deadline}) lies in the past (now={now})")
        if deadline == now:
            return self
        effective, budget_bound = deadline, False
        if self._time_budget is not None and self._time_budget < deadline:
            effective, budget_bound = self._time_budget, True
            if effective <= now:
                self._request_stop("max_simulated_time")
                self._ops.append(["until", deadline])
                return self
        self._advance(deadline=effective, budget_bound=budget_bound)
        self._ops.append(["until", deadline])
        return self

    def advance_for(self, delta: float) -> "SimulationSession":
        """Run the simulation for ``delta`` simulated seconds, then pause."""
        delta = float(delta)
        if delta < 0:
            raise SimulationError(f"advance_for delta must be >= 0, got {delta}")
        return self.advance_until(self.now + delta)

    def advance_to_completion(self, pause_at: Optional[float] = None) -> "SimulationSession":
        """Run until the workload completes (or a stop condition fires).

        With ``pause_at``, pause at that simulated time if it comes first;
        when completion comes first the clock stays on the last event,
        exactly where an unbounded call leaves it -- so a run driven in
        chunks (``advance_to_completion(pause_at=now + every)`` until
        :attr:`done`) ends in the state of one uninterrupted call, whatever
        the cadence.  A ``pause_at`` in the past raises and one equal to
        ``now`` is a no-op, as for :meth:`advance_until`.

        Honors the legacy ``execution.max_simulation_time`` contract exactly
        as :meth:`Simulator.run` always has: when set, the clock runs *to*
        that deadline (even past workload completion).  The session-native
        budget ``execution.stop.max_simulated_time`` instead stops at
        whichever comes first -- completion or the budget -- and records
        ``stopped_reason="max_simulated_time"``.
        """
        self._require_open()
        if self._state == _STOPPED:
            return self
        legacy_deadline = self._simulator.execution.max_simulation_time
        if legacy_deadline is not None:
            if pause_at is not None:
                legacy_deadline = min(float(pause_at), legacy_deadline)
            return self.advance_until(legacy_deadline)
        now = self.now
        deadline, budget_bound, op = self._time_budget, True, ["completion"]
        if pause_at is not None:
            pause_at = float(pause_at)
            if pause_at < now:
                raise SimulationError(
                    f"advance_to_completion(pause_at={pause_at}) lies in the past (now={now})"
                )
            if pause_at == now:
                return self
            op.append(pause_at)
            if deadline is None or pause_at < deadline:
                deadline, budget_bound = pause_at, False
        if deadline is not None and deadline <= now:  # a spent budget: a pause lies ahead
            self._request_stop("max_simulated_time")
        else:
            self._advance(deadline=deadline, budget_bound=budget_bound, to_completion=True)
        self._ops.append(op)
        return self

    # -- the advance engine -------------------------------------------------------
    def _live_hooks(self) -> bool:
        """Whether any registered callback forces the sentinel-driven path."""
        return bool(
            self._stop_conditions
            or self._progress_callbacks
            or self._job_state_listeners
        )

    def _advance(
        self,
        deadline: Optional[float],
        budget_bound: bool = False,
        to_completion: bool = False,
    ) -> None:
        """Run the kernel until ``deadline`` / completion / a stop request.

        Without live hooks this is a direct ``env.run(until=...)`` -- the
        kernel's inlined loop, bit-identical to the pre-session hot path.
        With hooks, a *sentinel* event ends the run instead: a deadline
        watcher triggers it at ``deadline``, workload completion triggers it
        when ``to_completion``, and :meth:`_request_stop` triggers it the
        moment a condition or callback asks -- whichever comes first.  Any
        exception escaping the loop flushes the live sinks (without closing
        them) so the run is resumable or finalizable afterwards.
        """
        env = self.env
        server = self._simulator.server
        started = _wallclock.perf_counter()
        # A completion-bounded-by-deadline advance needs the sentinel even
        # without hooks: the kernel's run() can wait on one of (event, time),
        # not on whichever of the two comes first.
        needs_sentinel = self._live_hooks() or (to_completion and deadline is not None)
        try:
            if not needs_sentinel:
                if to_completion:
                    if not server.all_done.processed:
                        env.run(until=server.all_done)
                else:
                    env.run(until=deadline)
                    if budget_bound:
                        self._request_stop("max_simulated_time")
                return
            if to_completion and server.all_done.processed:
                return
            sentinel = Event(env)
            self._sentinel = sentinel
            if deadline is not None:
                self._arm_deadline(deadline, sentinel, budget_bound)
            # A chunked drive re-enters here once per pause; one hook suffices.
            if to_completion and self._completion_hook not in server.all_done.callbacks:
                server.all_done.callbacks.append(self._completion_hook)
            env.run(until=sentinel)
        except BaseException:
            self._dirty = True
            self._pause_sinks()
            raise
        finally:
            self._sentinel = None
            self._wallclock += _wallclock.perf_counter() - started

    def _arm_deadline(self, deadline: float, sentinel: Event, budget_bound: bool) -> None:
        """Schedule a priority -1 alarm waking ``sentinel`` at ``deadline``.

        The alarm fires before any normal-priority event queued at the
        deadline (exactly like the kernel's own ``run(until=number)``
        sentinel), so the hook-driven path pauses in the same state as the
        hook-free one.  An alarm outliving its advance (the run stopped
        earlier) finds a different active sentinel and does nothing.
        """
        env = self.env
        alarm = Event(env)
        alarm._ok = True
        alarm._value = None

        def fire(_event: Event) -> None:
            if sentinel is not self._sentinel or sentinel.triggered:
                return
            if budget_bound:
                self._request_stop("max_simulated_time")
            else:
                self._wake_sentinel("deadline")

        alarm.callbacks.append(fire)
        env.schedule(alarm, priority=-1, delay=deadline - env.now)

    def _completion_hook(self, _event: Event) -> None:
        """``all_done`` callback: wake the active to-completion advance."""
        self._wake_sentinel("completed")

    def _pause_sinks(self) -> None:
        """Flush collector batches and live sinks without closing them.

        The abort-safety half of the lifecycle: a ``KeyboardInterrupt`` (or
        any exception) escaping an advance leaves everything the sinks
        already received durable on disk, while the open handles let the
        session resume -- or :meth:`finalize` -- afterwards.
        """
        simulator = self._simulator
        if simulator.collector is not None:
            simulator.collector.flush()
        for sink in simulator._live_sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    # -- open-workload injection ----------------------------------------------------
    def submit(self, jobs: Iterable[Job]) -> List[Job]:
        """Inject more jobs into the running workload (open-workload mode).

        Each job enters the main server's inbox at
        ``max(submission_time, now)``; already-terminal job objects are
        replayed as fresh copies, exactly as :meth:`Simulator.run` does for
        its input.  Submitting to a session whose workload had already
        completed re-arms the completion accounting, so a finished grid can
        keep serving new waves of work.  Returns the (copied) jobs actually
        entered, in input order.
        """
        self._require_open()
        if self._state == _STOPPED:
            raise SessionError(
                f"session stopped ({self._stopped_reason}); finalize it instead"
            )
        batch = [
            job if job.state is JobState.CREATED else job.copy_for_replay()
            for job in jobs
        ]
        if not batch:
            return batch
        now = self.now
        for job in batch:
            if job.submission_time < now:
                job.submission_time = now
        for job in batch:
            self._simulator.job_ids.ensure_above(int(job.job_id))
        self._simulator.job_manager.submit(batch)
        self._simulator.server.expect(len(batch))
        self._jobs.extend(batch)
        self._ops.append(["submit", len(self._waves)])
        self._waves.append([job.copy_for_replay() for job in batch])
        return batch

    # -- live inspection ---------------------------------------------------------
    def progress(self) -> SessionProgress:
        """Counter-level progress snapshot (cheap; safe at high frequency)."""
        server = self._simulator.server
        return SessionProgress(
            time=self.now,
            total_jobs=server.total_jobs,
            released_jobs=self._simulator.job_manager.released_jobs,
            completed_jobs=len(server.completed),
            finished_jobs=self._finished_count,
            failed_jobs=self._failed_count,
            pending_jobs=len(server.pending),
            done=server.all_done.triggered,
            stopped_reason=self._stopped_reason,
        )

    def peek_metrics(self) -> "SimulationMetrics":
        """Live :class:`~repro.core.metrics.SimulationMetrics` snapshot.

        Computed over the jobs seen so far (incomplete jobs count towards
        totals, not towards time statistics) without flushing sinks, writing
        outputs or ending the session -- the "look, don't touch" half of the
        output layer.  O(jobs); for counter-level data at high frequency use
        :meth:`progress` instead.
        """
        self._require_open()
        from repro.core.metrics import compute_metrics

        simulator = self._simulator
        collector = simulator.collector
        if collector is not None and not collector.keep_in_memory:
            collector = None  # streamed-away rows cannot be summarised mid-run
        return compute_metrics(
            list(self._jobs) + list(simulator.server.retry_jobs),
            collector=collector,
            data_manager=simulator.data_manager,
        )

    # -- checkpoint / restore / fork ------------------------------------------------
    @property
    def branch(self) -> Optional[int]:
        """Fork-branch index of this session (``None`` for a root session)."""
        return self._branch

    # cgsim: lint-ignore[snap-field-coverage] lifecycle handles (simulator, op log, locks) are rebuilt by replaying the op log, not serialised
    def snapshot(self) -> dict:
        """Canonical state map of every stateful component of this run.

        Part of the :class:`repro.state.Snapshottable` protocol.  The map
        aggregates the kernel clock, job manager, main server, per-site
        runtimes, allocation policy, monitoring counters, data subsystem and
        failure model -- plus the session's own counters -- in canonical
        (JSON-like, deterministically ordered) form.  A checkpoint stores
        this map and :meth:`restore` verifies its replay reproduces it
        bit-identically.
        """
        from repro.state.protocol import canonical_state

        sim = self._simulator
        components = {
            "session": {
                "state": self._state,
                "stopped_reason": self._stopped_reason,
                "finished": self._finished_count,
                "failed": self._failed_count,
                "completions_since_check": self._completions_since_check,
                "jobs": len(self._jobs),
            },
            "kernel": sim.env.snapshot(),
            "job_manager": sim.job_manager.snapshot(),
            "server": sim.server.snapshot(),
            "sites": {name: site.snapshot() for name, site in sorted(sim.sites.items())},
            "policy": sim.policy.snapshot(),
            "monitoring": sim.collector.snapshot() if sim.collector is not None else None,
            "data": sim.data_manager.snapshot() if sim.data_manager is not None else None,
            "faults": (
                sim.failure_model.snapshot() if sim.failure_model is not None else None
            ),
        }
        return canonical_state(components)

    def checkpoint(self, extra: Optional[dict] = None) -> bytes:
        """Freeze the session into a versioned, compressed, portable blob.

        The blob records the run's *inputs* (simulator configuration, every
        pristine job wave, the job-id counter base) plus the *op log* of
        lifecycle calls executed so far and a canonical snapshot of every
        component's state.  :meth:`restore` rebuilds a fresh simulator,
        replays the op log deterministically and verifies the component
        snapshots match bit-for-bit -- so a blob is self-validating.

        Only callable at a replayable boundary: between advances (never from
        inside a callback) and never after an advance was aborted by an
        exception.  ``extra`` is an optional picklable dict stored verbatim
        in the blob (e.g. scenario-pack provenance); read it back with
        :func:`repro.state.decode_checkpoint`.

        Raises
        ------
        SessionError
            If the session is finalized, detached or broken.
        CheckpointError
            If called mid-advance, after an aborted advance, on a fork
            branch, or when the payload cannot be pickled.
        """
        from repro.state.checkpoint import encode_checkpoint

        return encode_checkpoint(self._checkpoint_payload(extra))

    def _checkpoint_payload(self, extra: Optional[dict]) -> dict:
        """The payload :meth:`checkpoint` encodes (its guards included)."""
        self._require_open()
        if self._sentinel is not None:
            raise CheckpointError(
                "cannot checkpoint from inside a running advance (a progress or "
                "job-state callback); checkpoint between advances instead"
            )
        if self._dirty:
            raise CheckpointError(
                "session is not at a replayable boundary: an advance was aborted "
                "by an exception mid-event; restore from an earlier blob instead"
            )
        if self._branch is not None:
            raise CheckpointError(
                "fork branches cannot be re-checkpointed: their reseeded RNG "
                "streams apply from the fork point, which a from-scratch replay "
                "cannot reproduce; checkpoint the root session instead"
            )
        from repro.state.checkpoint import CHECKPOINT_VERSION

        sim = self._simulator
        collector = sim.collector
        return {
            "format": CHECKPOINT_VERSION,
            "time": self.now,
            "job_counter": self._job_counter_base,
            "waves": self._waves,
            "ops": [list(op) for op in self._ops],
            "components": self.snapshot(),
            "site_names": sorted(sim.sites),
            "simulator": sim._config_payload(),
            "has_build_hooks": bool(sim._build_hooks),
            "keep_in_memory": bool(collector.keep_in_memory) if collector is not None else True,
            "extra": dict(extra) if extra else {},
        }

    @classmethod
    def restore(
        cls,
        simulator_factory,
        blob: bytes,
        *,
        monitoring: str = "replay",
        branch: Optional[int] = None,
    ) -> "SimulationSession":
        """Rebuild a session from a :meth:`checkpoint` blob, ready to advance.

        ``simulator_factory`` may be ``None`` (rebuild from the configuration
        embedded in the blob), a fresh unbuilt
        :class:`~repro.core.Simulator`, or a zero-argument callable returning
        one.  The restored session fast-forwards by deterministically
        replaying the blob's op log against the rebuilt simulator, then
        verifies every component's state matches the checkpoint snapshot
        bit-for-bit; any divergence raises
        :class:`~repro.utils.errors.CheckpointError` and marks the session
        broken.

        ``monitoring="replay"`` (default) keeps the collector recording
        during the fast-forward -- retained rows and counters come out
        identical to the original run -- but detaches sinks so existing
        output files are not double-written; ``monitoring="muted"`` skips
        all recording for speed and re-seats the counters from the blob
        afterwards.

        ``branch=i`` restores branch ``i`` of :meth:`fork` -- RNG streams
        derived from the blob's fingerprint and ``i``; leave it ``None`` to
        resume the original timeline.
        """
        from repro.state.checkpoint import decode_checkpoint, payload_fingerprint

        payload = decode_checkpoint(blob)
        return cls._restore_payload(
            simulator_factory,
            payload,
            monitoring=monitoring,
            branch=branch,
            fingerprint=None if branch is None else payload_fingerprint(payload),
        )

    @classmethod
    def _restore_payload(
        cls,
        simulator_factory,
        payload: dict,
        *,
        monitoring: str = "replay",
        branch: Optional[int] = None,
        fingerprint: Optional[str] = None,
    ) -> "SimulationSession":
        """:meth:`restore` from a decoded payload, which this call consumes.

        The payload's wave 0 becomes the session's live jobs (the session
        keeps its one pristine copy), so one decoded payload backs exactly
        one session: decode the blob again for another.  ``fingerprint`` is
        the blob's :func:`~repro.state.checkpoint.payload_fingerprint`, which
        a ``branch`` restore seeds its streams from.
        """
        if monitoring not in ("replay", "muted"):
            raise CheckpointError(
                f"unknown monitoring mode {monitoring!r} (use 'replay' or 'muted')"
            )
        simulator = cls._resolve_simulator(simulator_factory, payload)
        expected_sites = sorted(payload.get("site_names", []))
        actual_sites = sorted(site.name for site in simulator.infrastructure.sites)
        if actual_sites != expected_sites:
            raise CheckpointError(
                f"simulator sites {actual_sites} do not match the checkpoint's "
                f"sites {expected_sites}"
            )
        waves = payload["waves"]
        # Resuming the original timeline continues its streamed output files.
        simulator._continue_outputs = branch is None
        try:
            session = simulator.session(waves[0])
        finally:
            simulator._continue_outputs = False
        # Re-seat the run-scoped allocator so replayed retries mint the same
        # ids the original run did (older blobs may predate the workload-
        # seeded base the rebuilt simulator derived on its own).
        simulator.job_ids.reset(int(payload["job_counter"]))
        session._job_counter_base = int(payload["job_counter"])
        session._restoring = True
        collector = simulator.collector
        saved_sinks = None
        try:
            if collector is not None:
                if monitoring == "muted":
                    collector.muted = True
                saved_sinks = collector._sinks
                collector._sinks = []
            try:
                session._replay_ops(payload["ops"], waves)
            finally:
                if collector is not None:
                    collector.muted = False
                    collector._sinks = saved_sinks
            session._verify_replay(payload, monitoring)
            components = payload["components"]
            if collector is not None and components.get("monitoring") is not None:
                collector.restore(components["monitoring"])
            simulator.policy.restore(components.get("policy") or {})
            session._state = components["session"]["state"]
            session._stopped_reason = components["session"]["stopped_reason"]
        except BaseException as exc:
            session._restoring = False
            session._state = _BROKEN
            session._broken_reason = f"{type(exc).__name__}: {exc}"
            raise
        session._restoring = False
        if branch is not None:
            session._apply_branch(int(branch), fingerprint)
        return session

    @staticmethod
    def _resolve_simulator(simulator_factory, payload: dict) -> "Simulator":
        """Turn restore()'s factory argument into a fresh, unbuilt Simulator."""
        from repro.core.simulator import Simulator

        if simulator_factory is None:
            spec = payload.get("simulator")
            if payload.get("has_build_hooks"):
                raise CheckpointError(
                    "the checkpointed simulator used on_build hooks, which cannot "
                    "be embedded in the blob; pass restore() a factory that "
                    "re-registers them (e.g. rebuild the simulator from its "
                    "scenario pack)"
                )
            if spec is None:
                raise CheckpointError(
                    "checkpoint has no embedded simulator configuration (it was "
                    "not picklable); pass restore() a Simulator or a factory"
                )
            return Simulator.from_config_payload(spec)
        if isinstance(simulator_factory, Simulator):
            return simulator_factory
        if callable(simulator_factory):
            simulator = simulator_factory()
            if not isinstance(simulator, Simulator):
                raise CheckpointError(
                    "simulator factory must return a repro.core.Simulator, got "
                    f"{type(simulator).__name__}"
                )
            return simulator
        raise CheckpointError(
            "restore() needs None (embedded config), a Simulator, or a "
            "zero-argument factory returning one"
        )

    def _replay_ops(self, ops: List[list], waves: List[List[Job]]) -> None:
        """Re-execute a checkpoint's op log against this fresh session."""
        from repro.utils.errors import CGSimError

        try:
            for op in ops:
                kind = op[0]
                if kind == "until":
                    self.advance_until(op[1])
                elif kind == "completion":
                    self.advance_to_completion(*op[1:])
                elif kind == "step":
                    for _ in range(int(op[1])):
                        if not self.step():
                            break
                elif kind == "submit":
                    self.submit(job.copy_for_replay() for job in waves[int(op[1])])
                elif kind == "stop":
                    self.stop(str(op[1]))
                else:
                    raise CheckpointError(f"unknown checkpoint op {kind!r}")
        except CheckpointError:
            raise
        except CGSimError as exc:
            raise CheckpointError(
                f"replay failed while re-executing the session's op log: {exc}"
            ) from exc

    def _verify_replay(self, payload: dict, monitoring_mode: str) -> None:
        """Assert the replayed state matches the checkpoint bit-for-bit."""
        from repro.state.protocol import diff_states

        ignore: List[str] = []
        if monitoring_mode == "muted":
            # Nothing was recorded during the fast-forward; the counters are
            # re-seated from the blob afterwards instead of compared.
            ignore.append("monitoring")
        elif not payload.get("keep_in_memory", True):
            # Rows were streamed to (now detached) sinks in the original run
            # but dropped unbuffered during replay, so only the exact
            # transition/finished/failed counters are comparable.
            ignore.extend(
                ["monitoring.rows", "monitoring.flushed", "monitoring.next_event_id"]
            )
        diffs = diff_states(payload["components"], self.snapshot(), ignore=ignore)
        if diffs:
            raise CheckpointError(
                "restored session failed bit-identity verification against the "
                "checkpoint (the replay diverged); first differences: "
                + "; ".join(diffs[:8])
                + ". Note: programmatic add_stop_condition() predicates and "
                "callbacks are not recorded in checkpoints -- re-register them "
                "via a simulator factory, or checkpoint runs driven only by "
                "declarative stop conditions."
            )

    def _apply_branch(self, branch: int, fingerprint_hex: str) -> None:
        """Reseed this session's stochastic streams for fork branch ``branch``."""
        from repro.utils.rng import derive_seed

        root = int(fingerprint_hex[:16], 16)
        branch_seed = derive_seed(root, "fork", branch)
        self._simulator.policy.reseed(derive_seed(branch_seed, "policy"))
        failure_model = self._simulator.failure_model
        if failure_model is not None and hasattr(failure_model, "reseed"):
            failure_model.reseed(derive_seed(branch_seed, "faults"))
        self._branch = branch

    def fork(
        self,
        n: int,
        simulator_factory=None,
        monitoring: str = "replay",
    ) -> List["SimulationSession"]:
        """Branch this session into ``n`` independent what-if futures.

        Takes one checkpoint of the current state and restores it ``n``
        times, giving each branch RNG streams deterministically derived from
        the blob's fingerprint and the branch index: branch ``i`` of the same
        blob always explores the same future, and different branches diverge
        from each other the moment a stochastic decision (random/weighted
        policies, injected failures) is drawn.  The parent session is left
        untouched and remains usable.  ``simulator_factory``/``monitoring``
        are forwarded to :meth:`restore` (by default each branch clones this
        session's simulator configuration).
        """
        from repro.state.checkpoint import (
            decode_checkpoint,
            encode_checkpoint,
            payload_fingerprint,
        )

        n = int(n)
        if n < 1:
            raise SessionError(f"fork(n) needs n >= 1, got {n}")
        payload = self._checkpoint_payload(None)
        blob = encode_checkpoint(payload)
        fingerprint = payload_fingerprint(payload)
        branches: List["SimulationSession"] = []
        for index in range(n):
            if simulator_factory is None:
                simulator = self._simulator.clone()
            else:
                simulator = simulator_factory()
            # Every branch decodes its own payload: its wave 0 becomes the
            # branch's live jobs.
            branches.append(
                SimulationSession._restore_payload(
                    simulator,
                    decode_checkpoint(blob),
                    monitoring=monitoring,
                    branch=index,
                    fingerprint=fingerprint,
                )
            )
        return branches

    # -- output layer ------------------------------------------------------------
    def finalize(self) -> "SimulationResult":
        """Close the session: metrics, sinks, outputs -- exactly once.

        Safe in every lifecycle state short of detachment: after completion,
        after an early stop, and after an aborted advance (the
        interrupted-run contract).  Subsequent calls return the same
        :class:`~repro.core.simulator.SimulationResult` without re-writing
        any output.
        """
        if self._result is not None:
            return self._result
        if self._state == _DETACHED:
            raise SessionError(
                "session detached: its Simulator started another session/run"
            )
        if self._state == _BROKEN:
            raise SessionError(
                "session restore did not complete "
                f"({self._broken_reason}); restore again from the checkpoint blob"
            )
        from repro.core.metrics import compute_metrics
        from repro.core.simulator import SimulationResult

        started = _wallclock.perf_counter()
        simulator = self._simulator
        server = simulator.server
        jobs = list(self._jobs) + list(server.retry_jobs)
        metrics = compute_metrics(
            jobs, collector=simulator.collector, data_manager=simulator.data_manager
        )
        self._wallclock += _wallclock.perf_counter() - started
        result = SimulationResult(
            jobs=jobs,
            metrics=metrics,
            collector=simulator.collector,
            platform=simulator.platform,
            simulated_time=self.env.now,
            wallclock_seconds=self._wallclock,
            pending_jobs=len(server.pending),
            assignments=dict(server.assignments),
            stopped_reason=self._stopped_reason,
        )
        simulator._write_outputs(result)
        self._result = result
        self._state = _FINALIZED
        return result

    def __repr__(self) -> str:
        return (
            f"<SimulationSession state={self._state} t={self.now:.0f}s "
            f"jobs={len(self._jobs)} completed={len(self._simulator.server.completed)}>"
        )

"""The discrete-event environment: clock, event calendar and run loop.

The :class:`Environment` owns a *bucketed* event calendar:

* ``_ready`` -- the FIFO of events due at the **current** clock time.
  Zero-delay scheduling (every ``succeed()`` of a request, store get/put,
  condition, ...) appends here in O(1) with no heap traffic at all.
* ``_buckets`` -- a dict mapping each distinct **future** time to the FIFO
  bucket of normal-priority events scheduled at it; ``_times`` is a binary
  min-heap holding each distinct time once.  When the clock advances, the
  next time's whole bucket is adopted as the new ready list in O(1).
* ``_pri_buckets`` -- a rare-path dict of ``(priority, seq, event)`` lists
  for below-normal priorities (process initialisation, urgent hops,
  interrupts, ``until`` sentinels); drained, lowest ``(priority, seq)``
  first, before same-time normal events.

``run()`` drains the ready list, advances the clock and executes event
callbacks, which run the next step of a callback chain (see :meth:`hop`)
or resume the generator process waiting on the event.
The public surface (``timeout`` / ``process`` / ``schedule`` / ``step`` /
``run``) follows the conventional process-based DES structure so that the
simulation core reads like ordinary SimPy/SimGrid-style actor code.
``schedule(event, at=t)`` files an event under an absolute time (a float a
caller summed itself, bit for bit) and ``unschedule`` takes one back; a time
left without events is skipped, so the clock never stops where nothing happens.

Hot-path notes
--------------
A classic heap keyed by ``(time, priority, seq)`` pays 10+ tuple
comparisons per operation at realistic calendar sizes, which bounds the
whole kernel.  The bucketed calendar does cheap float comparisons on
distinct times only, and none at all for same-time events -- and DES
workloads are full of identical timestamps (fixed polling intervals,
synchronized job steps, zero-delay wakeup chains).  Within a bucket FIFO
order *is* insertion order, so no sequence counter is needed on the normal
path.  Two further fast paths matter:

* **Timeout pooling.**  :meth:`Environment.timeout` recycles processed
  :class:`Timeout` objects from a per-environment free list and inserts the
  calendar entry inline, skipping both the object allocation and the
  generic :meth:`schedule` indirection.  An object is only recycled when
  ``sys.getrefcount`` proves the kernel held the last reference (nobody
  outside can observe the reuse); on interpreters without refcounts the
  pool simply stays empty.
* **Inlined run loop.**  :meth:`Environment.run` inlines the per-event body
  of :meth:`step` with the calendar bound to locals; the no-failure common
  case executes without any try/except or attribute churn, and the
  failure / clock-guard / urgent-priority branches live in rarely taken
  out-of-line paths.

The clock-corruption guard uses a *relative* tolerance
(``1e-12 * max(1, |now|)``): with an absolute epsilon a week-long simulated
horizon (``now ~ 6e5``) would either false-positive on benign float noise
or mask real corruption, depending on the epsilon chosen.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.des.events import AllOf, AnyOf, Event, Process, Timeout
from repro.utils.errors import SimulationError

__all__ = ["Environment", "StopSimulation"]

_INF = float("inf")

#: Default scheduling priority; "urgent" events (process initialisation,
#: interrupts) use priority 0 so they run before same-time normal events.
NORMAL_PRIORITY = 1
URGENT_PRIORITY = 0

#: Upper bound on the per-environment Timeout free list.
_POOL_MAX = 1024

#: ``sys.getrefcount`` is a CPython detail; without it pooling is disabled.
_getrefcount = getattr(sys, "getrefcount", None)


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at the ``until`` event."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Simulation clock value at start (seconds).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5.0
    """

    __slots__ = (
        "_now",
        "_ready",
        "_times",
        "_buckets",
        "_pri_buckets",
        "_eid",
        "_active_process",
        "_timeout_pool",
        "_until",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Events due at the current clock time: [next_index, event, ...].
        #: Slot 0 is the index of the next event to dispatch; consumed slots
        #: are cleared so the kernel can recycle the objects they held.
        self._ready: list = [1]
        #: Min-heap of the distinct future times present in either bucket dict.
        self._times: List[float] = []
        #: future time -> [next_index, event, event, ...] (normal priority).
        self._buckets: Dict[float, list] = {}
        #: time -> [(priority, seq, event), ...] for below-normal priorities.
        self._pri_buckets: Dict[float, list] = {}
        #: Sequence counter ordering same-time, same-priority urgent events.
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Free list of processed Timeout objects awaiting reuse.
        self._timeout_pool: List[Timeout] = []
        #: The sentinel of the *currently executing* ``run(until=...)`` call.
        #: A sentinel left on the calendar by an earlier run (aborted by an
        #: exception, or simply a deadline beyond where that run stopped) no
        #: longer matches and is ignored when it is eventually processed --
        #: this is what makes stop/resume across repeated ``run`` calls safe.
        self._until: Optional[Event] = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, *, _push=heappush, _new=Timeout.__new__) -> Timeout:
        """Create a :class:`Timeout` that triggers ``delay`` seconds from now.

        This is the kernel's dominant allocation; the fast path reuses a
        pooled, already-processed ``Timeout`` (pool entries are known to be
        ``_ok`` and not defused, so only ``delay`` and ``_value`` need
        resetting) and inserts the calendar entry inline instead of going
        through :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
        else:
            timeout = _new(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout.delay = delay
            timeout._ok = True
            timeout._value = value
            timeout.defused = False
        now = self._now
        when = now + delay
        if when > now:
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is not None:
                bucket.append(timeout)
            else:
                buckets[when] = [1, timeout]
                if when not in self._pri_buckets:
                    _push(self._times, when)
        else:
            self._ready.append(timeout)
        return timeout

    def hop(self, callback: Callable[[Event], None], value: Any = None, urgent: bool = False,
            *, _push=heappush, _new=Timeout.__new__) -> Event:
        """Call ``callback(event)`` one calendar hop from now, ``event.value`` being ``value``.

        A normal hop is filed behind the events already due now, where
        ``event.succeed(value)`` files an event; an ``urgent`` one ahead of
        them, where a :class:`Process` files its start.  A chain of hops is a
        process without the generator: each ``yield`` it would make is one
        hop.  The event is a pooled zero-delay :class:`Timeout`, filed inline.
        """
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
        else:
            event = _new(Timeout)
            event.env = self
            event.callbacks = []
            event._ok = True
            event.defused = False
        event.delay = 0.0
        event._value = value
        event.callbacks.append(callback)
        if urgent:
            eid = self._eid
            self._eid = eid + 1
            bucket = self._pri_buckets.get(self._now)
            if bucket is not None:
                _push(bucket, (URGENT_PRIORITY, eid, event))
            else:
                self._pri_buckets[self._now] = [(URGENT_PRIORITY, eid, event)]
        else:
            self._ready.append(event)
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` executing ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Create a condition that waits for all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Create a condition that waits for any of ``events``."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL_PRIORITY, delay: float = 0.0,
                 at: Optional[float] = None) -> None:
        """Place a triggered event on the calendar ``delay`` seconds from now.

        ``at`` names the absolute time instead: the event is filed under that
        very float, where ``delay=at - now`` files it under ``now + (at - now)``
        -- often a neighbouring float, hence another bucket.  A periodic grid
        kept as ``tick += period`` needs the former.
        """
        now = self._now
        if at is None:
            if delay < 0:
                raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
            when = now + delay
        elif at < now:
            raise SimulationError(f"cannot schedule an event in the past (at={at}, now={now})")
        else:
            when = float(at)
        if priority == NORMAL_PRIORITY:
            if when > now:
                buckets = self._buckets
                bucket = buckets.get(when)
                if bucket is not None:
                    bucket.append(event)
                else:
                    buckets[when] = [1, event]
                    if when not in self._pri_buckets:
                        heappush(self._times, when)
            else:
                self._ready.append(event)
        else:
            eid = self._eid
            self._eid = eid + 1
            pri_buckets = self._pri_buckets
            bucket = pri_buckets.get(when)
            if bucket is not None:
                heappush(bucket, (priority, eid, event))
            else:
                pri_buckets[when] = [(priority, eid, event)]
                # The drain loop inspects the urgent bucket of the *current*
                # time on every iteration; only future times need a heap entry.
                if when > now and when not in self._buckets:
                    heappush(self._times, when)

    def unschedule(self, event: Event, at: float) -> None:
        """Take a normal-priority event filed under time ``at`` back off the calendar.

        A time left without events is no longer a stop of the clock: its heap
        entry is dropped lazily by :meth:`_advance` / :meth:`peek`, so a drain
        never moves ``now`` to a moment at which nothing happens.
        """
        bucket = self._ready if at == self._now else self._buckets.get(at, ())
        if event not in bucket:
            raise SimulationError(f"{event!r} is not scheduled at t={at}")
        bucket.remove(event)
        if len(bucket) == 1 and bucket is not self._ready:
            del self._buckets[at]

    def peek(self) -> float:
        """Return the time of the next scheduled event (``inf`` if none)."""
        ready = self._ready
        if ready[0] < len(ready) or self._now in self._pri_buckets:
            return self._now
        times = self._times
        while times and times[0] not in self._buckets and times[0] not in self._pri_buckets:
            heappop(times)  # everything filed under it was unscheduled
        return times[0] if times else _INF

    @property
    def queue_length(self) -> int:
        """Number of events currently on the calendar (diagnostics)."""
        ready = self._ready
        count = len(ready) - ready[0]
        count += sum(len(bucket) - bucket[0] for bucket in self._buckets.values())
        count += sum(len(bucket) for bucket in self._pri_buckets.values())
        return count

    # -- checkpoint support ----------------------------------------------------
    # cgsim: lint-ignore[snap-field-coverage] the calendar, timeout pool and generator frames cannot be pickled; replay rebuilds them (see docstring)
    def snapshot(self) -> dict:
        """Capture the kernel's checkpointable state: the clock.

        Part of the :class:`repro.state.Snapshottable` protocol.  The
        calendar (bucketed FIFO queues), the pooled timeouts and the live
        generator frames are deliberately *not* serialised: they cannot be
        pickled meaningfully, so checkpoints use deterministic replay -- the
        session re-executes its recorded inputs to rebuild them -- and the
        clock is the kernel-level invariant replay is verified against.
        """
        return {"now": self._now}

    def restore(self, state: dict) -> None:
        """Verify the environment was replayed to the snapshotted clock.

        The kernel's ``restore`` is a verification, not a mutation (see
        :meth:`snapshot`): after the owning session fast-forwards by
        replaying its op log, the clock must land exactly -- bit-identical
        float -- on the recorded time, or the replay diverged and a
        :class:`~repro.utils.errors.CheckpointError` is raised.
        """
        from repro.utils.errors import CheckpointError

        expected = state.get("now")
        if expected != self._now:
            raise CheckpointError(
                f"kernel clock diverged during replay: checkpoint recorded "
                f"t={expected!r}, replay reached t={self._now!r}"
            )

    def _pop_next(self) -> Optional[Event]:
        """Remove and return the next event in ``(time, priority, seq)`` order.

        Advances the clock as needed; returns ``None`` when no events remain.
        """
        while True:
            if self._pri_buckets:
                bucket = self._pri_buckets.get(self._now)
                if bucket is not None:
                    return self._pop_pri(bucket)
            ready = self._ready
            index = ready[0]
            if index < len(ready):
                event = ready[index]
                ready[index] = None  # release the slot so the object can be pooled
                ready[0] = index + 1
                return event
            if not self._advance():
                return None

    def _pop_pri(self, bucket: list) -> Event:
        """Pop the lowest ``(priority, seq)`` entry of an urgent bucket (a heap)."""
        event = heappop(bucket)[2]
        if not bucket:
            del self._pri_buckets[self._now]
        return event

    def _advance(self) -> bool:
        """Move the clock to the next calendar time; False when none remains.

        Adopts the next time's whole bucket as the new ready list.
        """
        times = self._times
        while times:
            when = heappop(times)
            bucket = self._buckets.pop(when, None)
            if bucket is None and when not in self._pri_buckets:
                continue  # everything filed under it was unscheduled
            if when < self._now:
                self._check_clock(when)
            else:
                self._now = when
            self._ready = bucket or [1]
            return True
        return False

    def step(self) -> None:
        """Process exactly one event; raise :class:`IndexError` if none remain."""
        event = self._pop_next()
        if event is None:
            raise IndexError("no more events scheduled")

        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if event._ok:
            # Common case: recycle the Timeout when the kernel held the last
            # reference (step's local + getrefcount's argument = 2).
            if (
                type(event) is Timeout
                and not event.defused
                and _getrefcount is not None
                and _getrefcount(event) == 2
                and len(self._timeout_pool) < _POOL_MAX
            ):
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None  # don't pin the payload while pooled
                self._timeout_pool.append(event)
        elif not event.defused:
            # An un-handled failure: surface it instead of losing it.
            exc = event.value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def _check_clock(self, when: float) -> None:
        """Scale-aware guard against a corrupted calendar (clock going backwards)."""
        now = self._now
        if when < now - 1e-12 * (abs(now) if abs(now) > 1.0 else 1.0):
            raise SimulationError(
                f"event calendar corrupted: next event at {when} but clock already at {now}"
            )

    # -- run loop ---------------------------------------------------------------
    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until no events remain.
            * a number -- run until the clock reaches that time.
            * an :class:`Event` -- run until that event is processed and
              return its value (re-raising its exception if it failed).

        ``run`` is re-entrant: a stopped (or aborted) run can be resumed by
        calling ``run`` again with a later deadline or another event.  Only
        the sentinel belonging to the *current* call stops the loop; stale
        sentinels left behind by earlier calls are processed as ordinary
        no-op events (see :class:`repro.core.session.SimulationSession`,
        which leans on exactly this to pause and resume a simulation).
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
                if until_event.processed:
                    return until_event.value
                until_event.callbacks.append(_stop_callback)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise SimulationError(
                        f"until={deadline} lies in the past (now={self._now})"
                    )
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                # Highest priority so the clock stops exactly at the deadline
                # before any same-time activity runs.
                self.schedule(until_event, priority=-1, delay=deadline - self._now)
                until_event.callbacks.append(_stop_callback)

        # The loop body is step() with the calendar bound to locals and the
        # failure/guard/urgent branches pushed out of line.
        self._until = until_event
        pri_buckets = self._pri_buckets
        pool = self._timeout_pool
        refcount = _getrefcount
        try:
            while True:
                event = None
                if pri_buckets:
                    bucket = pri_buckets.get(self._now)
                    if bucket is not None:
                        event = self._pop_pri(bucket)
                if event is None:
                    ready = self._ready
                    index = ready[0]
                    if index < len(ready):
                        event = ready[index]
                        ready[index] = None
                        ready[0] = index + 1
                    else:
                        if not self._advance():
                            break
                        continue

                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)

                if event._ok:
                    # References here: loop local + cleared calendar slot +
                    # getrefcount argument -> 2 means nobody else holds it.
                    if (
                        type(event) is Timeout
                        and not event.defused
                        and refcount is not None
                        and refcount(event) == 2
                        and len(pool) < _POOL_MAX
                    ):
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = None  # don't pin the payload while pooled
                        pool.append(event)
                elif not event.defused:
                    exc = event.value
                    raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))
        except StopSimulation as stop:
            return stop.value
        finally:
            self._until = None

        if until_event is not None and not until_event.processed:
            raise SimulationError("simulation ran out of events before reaching 'until'")
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self.queue_length}>"


def _stop_callback(event: Event) -> None:
    """Callback attached to ``until`` events: stops the run loop.

    Only the sentinel of the run call currently executing may stop the loop;
    a sentinel left behind by an earlier (stopped or aborted) run is ignored,
    so resuming past an old deadline does not halt prematurely.
    """
    if event.env._until is not event:
        return
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value

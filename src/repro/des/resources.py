"""Counted resources for the discrete-event kernel.

:class:`Resource` models a pool of identical capacity units (e.g. CPU cores,
batch slots) with FIFO queueing; :class:`PriorityResource` orders waiters by a
priority value; :class:`Container` models a divisible quantity (e.g. bytes of
storage) with ``put``/``get`` of arbitrary amounts.

Requests are events.  ``with resource.request() as req: yield req`` acquires a
unit and releases it automatically on exit; explicit ``release()`` is also
supported for long-lived holds spanning several process steps.

Hot-path notes
--------------
Waiter queues are deques (:class:`Resource`) or heaps
(:class:`PriorityResource`) with O(1)/O(log n) head operations, and
cancellation is *lazy*: a withdrawn request is only flagged and skipped when
it reaches the head, so ``cancel()`` never scans the queue.  All event
subclasses declare ``__slots__`` (see :mod:`repro.des.events`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.des.events import Event
from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

__all__ = ["Request", "Release", "Resource", "PriorityResource", "Container", "Tally"]


class Request(Event):
    """A pending acquisition of one unit (or ``amount`` units) of a resource."""

    __slots__ = ("resource", "amount", "priority", "time", "_cancelled")

    def __init__(self, resource: "Resource", amount: int = 1, priority: float = 0.0) -> None:
        super().__init__(resource.env)
        if amount < 1:
            raise SimulationError(f"request amount must be >= 1, got {amount}")
        if amount > resource.capacity:
            raise SimulationError(
                f"request for {amount} units exceeds resource capacity {resource.capacity}"
            )
        self.resource = resource
        self.amount = int(amount)
        self.priority = priority
        self.time = resource.env.now
        self._cancelled = False
        resource._add_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the units if granted, or withdraw the request if still queued."""
        self.resource._cancel(self)


class Release(Event):
    """An (immediately successful) release of a previously granted request."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._do_release(request)
        self.succeed()


class Tally:
    """Units in use, summed over every pool told to :meth:`Resource.report_to` it.

    Each pool adds to ``in_use`` where it grants units and subtracts where it
    takes them back, so the total over a group of pools (the hosts of a site,
    say) is one attribute read instead of a sum over its members.
    """

    __slots__ = ("in_use",)

    def __init__(self) -> None:
        self.in_use = 0


class Resource:
    """A pool of ``capacity`` identical units with FIFO waiting.

    Parameters
    ----------
    env:
        The owning environment.
    capacity:
        Number of units in the pool (>= 1).
    """

    __slots__ = (
        "env", "capacity", "_in_use", "_waiting", "_queued", "_granted", "_seq", "_tally",
    )

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._in_use = 0
        #: Waiters in grant order; cancelled entries are skipped lazily.
        self._waiting = deque()
        #: Live (non-cancelled, ungranted) waiter count.
        self._queued = 0
        self._granted: set = set()
        #: Tie-break counter for PriorityResource heap entries.
        self._seq = 0
        #: Shared usage counter kept in step with ``_in_use`` (see report_to).
        self._tally = None

    # -- public API ---------------------------------------------------------
    @property
    def count(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return self._queued

    def request(self, amount: int = 1, priority: float = 0.0) -> Request:
        """Ask for ``amount`` units; returns an event that triggers when granted."""
        return Request(self, amount=amount, priority=priority)

    def release(self, request: Request) -> Release:
        """Return the units held by ``request`` to the pool."""
        return Release(self, request)

    def report_to(self, tally: Tally) -> None:
        """Count this pool's granted units in ``tally`` from now on."""
        self._tally = tally
        tally.in_use += self._in_use

    # -- waiter queue (overridden by PriorityResource) -------------------------
    def _push_waiter(self, request: Request) -> None:
        self._waiting.append(request)

    def _head_waiter(self):
        """The next request in grant order, dropping cancelled entries (None if empty)."""
        waiting = self._waiting
        while waiting:
            head = waiting[0]
            if head._cancelled:
                waiting.popleft()
            else:
                return head
        return None

    def _pop_waiter(self) -> None:
        self._waiting.popleft()

    # -- internal machinery ---------------------------------------------------
    def _add_request(self, request: Request) -> None:
        self._push_waiter(request)
        self._queued += 1
        self._trigger_waiters()

    def _do_release(self, request: Request) -> None:
        if request in self._granted:
            self._granted.discard(request)
            self._in_use -= request.amount
            if self._tally is not None:
                self._tally.in_use -= request.amount
        self._trigger_waiters()

    def _cancel(self, request: Request) -> None:
        if request in self._granted:
            self._do_release(request)
        elif not request.triggered and not request._cancelled:
            # Lazy cancellation: flag the entry; the queue drops it when it
            # surfaces at the head.
            request._cancelled = True
            self._queued -= 1

    def _trigger_waiters(self) -> None:
        # Grant strictly in queue order; a large request at the head blocks
        # smaller ones behind it (no starvation of wide requests).
        while True:
            head = self._head_waiter()
            if head is None:
                return
            if head.amount > self.capacity - self._in_use:
                return
            self._pop_waiter()
            self._queued -= 1
            self._in_use += head.amount
            if self._tally is not None:
                self._tally.in_use += head.amount
            self._granted.add(head)
            head.succeed()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} capacity={self.capacity} in_use={self._in_use} "
            f"queued={self._queued}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose waiting queue is ordered by ``priority``.

    Lower priority values are served first; ties are broken by request time
    and then insertion order, so behaviour is deterministic.  The queue is a
    heap, so adding a waiter costs O(log n) instead of the O(n log n)
    re-sort a sorted list would need.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._waiting: list = []

    def _push_waiter(self, request: Request) -> None:
        seq = self._seq
        self._seq = seq + 1
        heappush(self._waiting, (request.priority, request.time, seq, request))

    def _head_waiter(self):
        waiting = self._waiting
        while waiting:
            head = waiting[0][3]
            if head._cancelled:
                heappop(waiting)
            else:
                return head
        return None

    def _pop_waiter(self) -> None:
        heappop(self._waiting)


class ContainerPut(Event):
    """Pending deposit of ``amount`` into a container."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.env)
        if amount <= 0:
            raise SimulationError(f"put amount must be > 0, got {amount}")
        self.amount = float(amount)
        container._put_waiters.append(self)
        container._update()


class ContainerGet(Event):
    """Pending withdrawal of ``amount`` from a container."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        super().__init__(container.env)
        if amount <= 0:
            raise SimulationError(f"get amount must be > 0, got {amount}")
        self.amount = float(amount)
        container._get_waiters.append(self)
        container._update()


class Container:
    """A divisible quantity with bounded capacity (e.g. storage bytes).

    ``put(amount)`` blocks while the container would overflow; ``get(amount)``
    blocks while it holds less than ``amount``.
    """

    __slots__ = ("env", "capacity", "_level", "_put_waiters", "_get_waiters")

    def __init__(self, env: "Environment", capacity: float = float("inf"), init: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if init < 0 or init > capacity:
            raise SimulationError("initial level must lie within [0, capacity]")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._put_waiters: list = []
        self._get_waiters: list = []

    @property
    def level(self) -> float:
        """Current content of the container."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; the returned event triggers once it fits."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; the returned event triggers once available."""
        return ContainerGet(self, amount)

    def _update(self) -> None:
        # Any waiter that fits is served (not just the head): a small put can
        # slip past a blocked large one, which is the historical semantics.
        progressed = True
        while progressed:
            progressed = False
            for put in list(self._put_waiters):
                if self._level + put.amount <= self.capacity + 1e-12:
                    self._level += put.amount
                    self._put_waiters.remove(put)
                    put.succeed()
                    progressed = True
            for get in list(self._get_waiters):
                if self._level >= get.amount - 1e-12:
                    self._level -= get.amount
                    self._get_waiters.remove(get)
                    get.succeed()
                    progressed = True

    def __repr__(self) -> str:
        return f"<Container level={self._level}/{self.capacity}>"

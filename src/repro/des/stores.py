"""Object stores (mailboxes / queues) for the discrete-event kernel.

Stores are the communication primitive the CGSim core uses between the job
manager's feeder and the main server's *sender* actor: the feeder ``put``s
job descriptors into the server's inbox, the sender ``get``s them one
dispatch at a time.

* :class:`Store` -- unbounded-or-bounded FIFO of arbitrary Python objects.
* :class:`FilterStore` -- ``get(filter=...)`` retrieves the first item
  matching a predicate (used by data-aware policies pulling specific jobs).
* :class:`PriorityStore` -- items are :class:`PriorityItem` wrappers retrieved
  lowest-priority-value first (used for priority job queues).

Hot-path notes
--------------
:class:`Store` keeps items and waiters in deques: ``get`` pops the head in
O(1) where a list would memmove the whole backlog, which matters for an
inbox that accumulates thousands of jobs.  :class:`FilterStore`
(arbitrary removal) and :class:`PriorityStore` (heap-ordered items) override
the container choices they need.  All store events declare ``__slots__``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.des.events import Event
from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

__all__ = ["Store", "FilterStore", "PriorityStore", "PriorityItem", "StorePut", "StoreGet"]


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._update()


class StoreGet(Event):
    """Pending retrieval of one item from a store."""

    __slots__ = ("filter_fn",)

    def __init__(self, store: "Store", filter_fn: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.filter_fn = filter_fn
        store._get_waiters.append(self)
        store._update()


class Store:
    """FIFO store of Python objects with optional bounded capacity."""

    __slots__ = ("env", "capacity", "items", "_put_waiters", "_get_waiters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._put_waiters: deque = deque()
        self._get_waiters: deque = deque()

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event triggers once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the returned event triggers once one exists."""
        return StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)

    # -- internal ----------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _update(self) -> None:
        # Puts only unblock when gets drain items and vice versa, so loop
        # until neither side progresses.  Both queues drain strictly from
        # the head: the base store's put/get only ever block on fullness /
        # emptiness, which affects every waiter equally.
        puts = self._put_waiters
        gets = self._get_waiters
        while True:
            progressed = False
            while puts and self._do_put(puts[0]):
                puts.popleft()
                progressed = True
            while gets and self._do_get(gets[0]):
                gets.popleft()
                progressed = True
            if not progressed:
                return

    def __repr__(self) -> str:
        return f"<{type(self).__name__} items={len(self.items)} capacity={self.capacity}>"


class FilterStore(Store):
    """A store whose ``get`` may specify a predicate on the item to retrieve."""

    __slots__ = ()

    def get(self, filter_fn: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        """Retrieve the first item for which ``filter_fn(item)`` is true."""
        return StoreGet(self, filter_fn)

    def _do_get(self, event: StoreGet) -> bool:
        predicate = event.filter_fn
        items = self.items
        for index, item in enumerate(items):
            if predicate is None or predicate(item):
                del items[index]
                event.succeed(item)
                return True
        return False

    def _update(self) -> None:
        # Unlike the base store, an unmatched get must NOT block the gets
        # queued behind it: every waiter is offered the current items.
        puts = self._put_waiters
        while True:
            progressed = False
            while puts and self._do_put(puts[0]):
                puts.popleft()
                progressed = True
            remaining: deque = deque()
            for get in self._get_waiters:
                if self._do_get(get):
                    progressed = True
                else:
                    remaining.append(get)
            self._get_waiters = remaining
            if not progressed:
                return


@dataclass(order=True)
class PriorityItem:
    """Wrapper pairing a priority with an arbitrary (non-compared) payload."""

    priority: float
    item: Any = field(compare=False)


class PriorityStore(Store):
    """A store that always returns the lowest-priority-value item first."""

    __slots__ = ()

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        #: Heap of :class:`PriorityItem` (heapq needs a plain list).
        self.items: List[PriorityItem] = []

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            item = event.item
            if not isinstance(item, PriorityItem):
                raise SimulationError("PriorityStore items must be PriorityItem instances")
            heappush(self.items, item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(heappop(self.items))
            return True
        return False

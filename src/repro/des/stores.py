"""Object stores (mailboxes / queues) for the discrete-event kernel.

Stores are the communication primitive between processes: a producer
``put``s items, a consumer ``get``s them one at a time, each side resuming
one calendar hop after its request is served.  (The simulation core's inbox
is no store: it is :class:`repro.core.job_manager.Inbox`, a deque whose one
reader is a callback.)

* :class:`Store` -- unbounded-or-bounded FIFO of arbitrary Python objects.

Hot-path notes
--------------
:class:`Store` keeps items and waiters in deques: ``get`` pops the head in
O(1) where a list would memmove the whole backlog, which matters for a
store that accumulates thousands of items.  Both store events declare
``__slots__``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.des.events import Event
from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

__all__ = ["Store", "StorePut", "StoreGet"]


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

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
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
        # the head: put/get only ever block on fullness / emptiness, which
        # affects every waiter equally.
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


"""Discrete-event simulation kernel.

This package is the reproduction's substitute for the SimGrid engine that the
original CGSim builds upon.  It provides a compact but complete
process-oriented discrete-event core:

* :class:`~repro.des.core.Environment` -- the event loop: a heap-ordered
  calendar of pending events, a simulation clock, and ``run()`` /
  ``run(until=...)`` drivers.
* :class:`~repro.des.events.Event`, :class:`~repro.des.events.Timeout`,
  :class:`~repro.des.events.Process` -- the event types.  Processes are plain
  Python generator functions that ``yield`` events to wait on, exactly like
  SimGrid actors block on activities.  The simulation core runs no process
  on a job's path: its steps are callbacks on the events, chained with
  :meth:`~repro.des.core.Environment.hop` where a process would have waited.
* :class:`~repro.des.events.AllOf` / :class:`~repro.des.events.AnyOf` --
  condition events for waiting on several activities at once.
* :class:`~repro.des.resources.Resource`,
  :class:`~repro.des.resources.PriorityResource`,
  :class:`~repro.des.resources.Container` -- counted resources with FIFO or
  priority queueing, used for CPU cores and storage space.
* :class:`~repro.des.stores.Store` -- a FIFO mailbox between processes
  (the kernel benchmarks' producer/consumer pair).

The public API intentionally mirrors the well-known SimPy interface so that
anyone familiar with process-based DES can read the simulation core directly;
the implementation is entirely self-contained.
"""

from repro.des.core import Environment, StopSimulation
from repro.des.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.des.resources import Container, PriorityResource, Resource
from repro.des.stores import Store

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
]

"""Flow-level network model with max-min fair bandwidth sharing.

Transfers are modelled as *flows*: a number of bytes moving along a route (a
sequence of links).  At any instant, every link's capacity is divided among
the flows traversing it by **progressive filling** (max-min fairness): the
allocation repeatedly gives every unfrozen flow an equal share of the most
constrained link, freezes the flows crossing that link, and continues until
every flow is bounded by some bottleneck.  This is the classic fluid model
SimGrid's validated network models are built around, and it is what gives
contention-dependent transfer times.

Whenever a flow starts or finishes the allocation is re-solved and the
projected completion time of every active flow is updated.  The model is
driven by a single wake-up event per change (epoch-guarded), so the number of
simulation events is proportional to the number of flow arrivals/departures
rather than to the number of rate changes squared.  Starts and wake-ups are
callback chains, each begun by an urgent hop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.des import Environment, Event
from repro.platform.link import Link
from repro.platform.routing import Route
from repro.utils.errors import PlatformError

__all__ = ["Flow", "NetworkModel"]


@dataclass
class Flow:
    """One active data transfer over a route."""

    flow_id: int
    route: Route
    size: float
    remaining: float
    done_event: Event
    start_time: float
    #: Current allocated rate (bytes/second); updated on every re-share.
    rate: float = 0.0
    #: Simulation time of the last remaining-bytes settlement.
    last_update: float = 0.0
    #: Extra metadata (job id, file name, ...) carried for monitoring.
    metadata: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True once all bytes have been delivered.

        The threshold is relative to the transfer size: the fluid model
        settles remaining bytes from floating-point time differences, so a
        large transfer can legitimately be left with a sub-byte residue that
        must count as delivered (otherwise the completion wake-up can fall
        below the clock's resolution and never drain it).
        """
        return self.remaining <= max(1e-9, 1e-12 * self.size)


class NetworkModel:
    """Shared-bandwidth network simulation over a set of links.

    Parameters
    ----------
    env:
        Discrete-event environment.

    Notes
    -----
    * Latency is applied once per transfer, up-front, as an additional delay
      before the flow starts consuming bandwidth (the standard fluid-model
      approximation).
    * Links with ``sharing="fatpipe"`` never constrain flows below their
      nominal bandwidth no matter how many flows cross them.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._flows: Dict[int, Flow] = {}
        self._ids = itertools.count(1)
        self._epoch = 0
        #: Completed-transfer log: (flow, completion_time) tuples.
        self.completed: List[Flow] = []

    # -- public API --------------------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        """Number of flows currently transferring."""
        return len(self._flows)

    def transfer(self, route: Route, size: float, metadata: Optional[dict] = None) -> Event:
        """Start a transfer of ``size`` bytes along ``route``.

        Returns an event that succeeds (with the flow object as value) when
        the last byte arrives.  Zero-byte transfers complete after the route
        latency alone.
        """
        if size < 0:
            raise PlatformError(f"transfer size must be >= 0, got {size}")
        done = Event(self.env)
        self.env.hop(partial(self._begin, route, size, done, metadata), urgent=True)
        return done

    def _begin(self, route: Route, size: float, done: Event, metadata, _event: Event) -> None:
        if not route.links:
            # No links on the route: the transfer is instantaneous, one hop on.
            self.env.hop(partial(self._trivial_transfer, route, size, done, metadata))
        elif route.latency > 0:
            # Latency is paid once, before bandwidth consumption begins.
            self.env.timeout(route.latency).callbacks.append(
                partial(self._start_flow, route, size, done, metadata)
            )
        else:
            self._start_flow(route, size, done, metadata, _event)

    def _trivial_transfer(self, route: Route, size: float, done: Event, metadata,
                          _hop: Event) -> None:
        flow = Flow(
            flow_id=next(self._ids),
            route=route,
            size=size,
            remaining=0.0,
            done_event=done,
            start_time=self.env.now,
            last_update=self.env.now,
            metadata=dict(metadata or {}),
        )
        self.completed.append(flow)
        done.succeed(flow)

    def _start_flow(self, route: Route, size: float, done: Event, metadata,
                    _event: Event) -> None:
        flow = Flow(
            flow_id=next(self._ids),
            route=route,
            size=size,
            remaining=float(size),
            done_event=done,
            start_time=self.env.now,
            last_update=self.env.now,
            metadata=dict(metadata or {}),
        )
        if size == 0:
            self.completed.append(flow)
            done.succeed(flow)
            return
        self._flows[flow.flow_id] = flow
        for link in flow.route.links:
            link.active_flows += 1
        self._reschedule()

    # -- fair sharing -----------------------------------------------------------
    def _settle(self) -> None:
        """Advance every active flow's remaining bytes to the current time."""
        now = self.env.now
        for flow in self._flows.values():
            elapsed = now - flow.last_update
            if elapsed > 0 and flow.rate > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
                # Snap floating-point residues (relative to the transfer size)
                # to zero so the flow is recognised as finished.
                if flow.remaining <= max(1e-9, 1e-12 * flow.size):
                    flow.remaining = 0.0
            flow.last_update = now

    def _compute_rates(self) -> None:
        """Max-min fair allocation by progressive filling."""
        flows = list(self._flows.values())
        if not flows:
            return
        # Capacity per shared link; fatpipe links never constrain.
        link_capacity: Dict[Link, float] = {}
        link_flows: Dict[Link, List[Flow]] = {}
        for flow in flows:
            for link in flow.route.links:
                if link.is_fatpipe:
                    continue
                link_capacity.setdefault(link, link.bandwidth)
                link_flows.setdefault(link, []).append(flow)

        unfrozen = set(f.flow_id for f in flows)
        rates = {f.flow_id: 0.0 for f in flows}
        remaining_capacity = dict(link_capacity)
        active_on_link = {link: list(fl) for link, fl in link_flows.items()}

        while unfrozen:
            # Find the most constrained link: smallest fair share among links
            # that still carry unfrozen flows.
            best_share = math.inf
            best_link: Optional[Link] = None
            for link, flows_on_link in active_on_link.items():
                current = [f for f in flows_on_link if f.flow_id in unfrozen]
                if not current:
                    continue
                share = remaining_capacity[link] / len(current)
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                # Every remaining flow only crosses fatpipe links: each gets
                # its bottleneck nominal bandwidth.
                for flow in flows:
                    if flow.flow_id in unfrozen:
                        rates[flow.flow_id] = flow.route.bottleneck_bandwidth
                break
            # Freeze every unfrozen flow crossing the bottleneck at the share.
            frozen_now = [
                f for f in active_on_link[best_link] if f.flow_id in unfrozen
            ]
            for flow in frozen_now:
                rates[flow.flow_id] = best_share
                unfrozen.discard(flow.flow_id)
                # Subtract its consumption from every other link it crosses.
                for link in flow.route.links:
                    if link.is_fatpipe or link is best_link:
                        continue
                    if link in remaining_capacity:
                        remaining_capacity[link] = max(
                            0.0, remaining_capacity[link] - best_share
                        )
            remaining_capacity[best_link] = 0.0

        for flow in flows:
            flow.rate = rates[flow.flow_id]

    def _reschedule(self) -> None:
        """Settle, re-share, and schedule the next completion wake-up."""
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
            # The wake-up must advance the clock by at least one representable
            # step; otherwise a wake-up/settle cycle at the same timestamp
            # would never reduce the remaining bytes (elapsed == 0) and the
            # simulation would spin forever on zero-delay events.
            minimum_advance = math.ulp(self.env.now) if self.env.now > 0 else 0.0
            delay = max(minimum_advance, next_completion)
            # The wake-up's timeout is filed at an urgent hop, ahead of the
            # events already due now: where it sits in its bucket decides the
            # order of same-time completions.
            self.env.hop(
                lambda _hop: self.env.timeout(delay).callbacks.append(partial(self._wakeup, epoch)),
                urgent=True,
            )

    def _wakeup(self, epoch: int, _timeout: Event) -> None:
        if epoch != self._epoch:
            return  # A newer reschedule superseded this wake-up.
        self._reschedule()

    def _finish_completed(self) -> None:
        finished = [f for f in self._flows.values() if f.finished]
        for flow in finished:
            del self._flows[flow.flow_id]
            for link in flow.route.links:
                link.active_flows = max(0, link.active_flows - 1)
                link.account(flow.size)
            self.completed.append(flow)
            flow.done_event.succeed(flow)

    # -- introspection -----------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """Return a monitoring-friendly view of active flows."""
        self._settle()
        return [
            {
                "flow_id": flow.flow_id,
                "source": flow.route.source,
                "destination": flow.route.destination,
                "size": flow.size,
                "remaining": flow.remaining,
                "rate": flow.rate,
                "metadata": dict(flow.metadata),
            }
            for flow in self._flows.values()
        ]

    def __repr__(self) -> str:
        return f"<NetworkModel active_flows={len(self._flows)} completed={len(self.completed)}>"

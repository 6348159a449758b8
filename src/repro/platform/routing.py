"""Routing between network zones.

The platform topology is a graph whose nodes are zones and whose edges carry
:class:`~repro.platform.link.Link` objects.  Routes between zones are computed
as shortest paths (weighted by link latency by default) and cached.  A
:class:`Route` is the ordered list of links a flow traverses, including the
endpoint zones' local links, plus the total route latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from repro.platform.link import Link
from repro.utils.errors import PlatformError

__all__ = ["Route", "RoutingTable"]

#: Routing weight name -> cost of crossing one link.
_WEIGHTS: Dict[str, Callable[[Link], float]] = {
    "latency": lambda link: link.latency,
    "hops": lambda link: 1.0,
    "inverse_bandwidth": lambda link: 1.0 / link.bandwidth,
}


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between two zones."""

    source: str
    destination: str
    links: Tuple[Link, ...] = field(default_factory=tuple)

    @property
    def latency(self) -> float:
        """Total one-way latency along the route (seconds)."""
        return sum(link.latency for link in self.links)

    @property
    def bottleneck_bandwidth(self) -> float:
        """Minimum nominal bandwidth along the route (bytes/second)."""
        if not self.links:
            return float("inf")
        return min(link.bandwidth for link in self.links)

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return len(self.links)

    def __iter__(self):
        return iter(self.links)


class RoutingTable:
    """Shortest-path routing over the zone graph, with route caching.

    Parameters
    ----------
    weight:
        Edge attribute used as the shortest-path weight: ``"latency"``
        (default), ``"hops"`` (unweighted) or ``"inverse_bandwidth"``.
    """

    def __init__(self, weight: str = "latency") -> None:
        if weight not in _WEIGHTS:
            raise PlatformError(f"unknown routing weight {weight!r}")
        self.weight = weight
        #: zone -> {neighbour zone -> link}, both in insertion order.
        self._adjacency: Dict[str, Dict[str, Link]] = {}
        self._local_links: Dict[str, Optional[Link]] = {}
        self._cache: Dict[Tuple[str, str], Route] = {}

    # -- construction ----------------------------------------------------------
    def add_zone(self, zone_name: str, local_link: Optional[Link] = None) -> None:
        """Register a zone node (optionally with its intra-zone link)."""
        if zone_name in self._local_links:
            raise PlatformError(f"zone {zone_name!r} already registered in routing table")
        self._adjacency[zone_name] = {}
        self._local_links[zone_name] = local_link

    def connect(self, zone_a: str, zone_b: str, link: Link) -> None:
        """Add a bidirectional inter-zone link between ``zone_a`` and ``zone_b``."""
        for zone in (zone_a, zone_b):
            if zone not in self._local_links:
                raise PlatformError(f"cannot connect unknown zone {zone!r}")
        if zone_a == zone_b:
            raise PlatformError(f"cannot connect zone {zone_a!r} to itself")
        # Re-connecting a pair replaces its link in place: the neighbour keeps
        # its position, and with it the tie-breaking order of routes.
        self._adjacency[zone_a][zone_b] = link
        self._adjacency[zone_b][zone_a] = link
        self._cache.clear()

    @property
    def zones(self) -> List[str]:
        """Registered zone names."""
        return list(self._local_links)

    def neighbors(self, zone_name: str) -> List[str]:
        """Zones directly connected to ``zone_name``."""
        if zone_name not in self._local_links:
            raise PlatformError(f"unknown zone {zone_name!r}")
        return list(self._adjacency[zone_name])

    # -- lookup ---------------------------------------------------------------
    def route(self, source: str, destination: str) -> Route:
        """Return (computing and caching if necessary) the route between two zones.

        The route includes the source and destination zones' local links (when
        defined), so intra-zone transfers (``source == destination``) traverse
        the local link once.
        """
        key = (source, destination)
        if key in self._cache:
            return self._cache[key]
        for zone in key:
            if zone not in self._local_links:
                raise PlatformError(f"unknown zone {zone!r}")

        links: List[Link] = []
        if source == destination:
            local = self._local_links[source]
            if local is not None:
                links.append(local)
        else:
            path = self._shortest_path(source, destination)
            src_local = self._local_links[source]
            if src_local is not None:
                links.append(src_local)
            for hop_a, hop_b in zip(path[:-1], path[1:]):
                links.append(self._adjacency[hop_a][hop_b])
            dst_local = self._local_links[destination]
            if dst_local is not None:
                links.append(dst_local)

        route = Route(source=source, destination=destination, links=tuple(links))
        self._cache[key] = route
        return route

    def _shortest_path(self, source: str, target: str) -> List[str]:
        """Zones along a least-weight path from ``source`` to ``target``.

        Bidirectional Dijkstra: a search from each end, alternating one
        popped zone at a time and scanning neighbours in insertion order,
        until a zone is settled from both sides.  Among equal-cost paths
        that order picks the same one on every run, and
        ``tests/test_routing_reference.py`` pins which one.
        """
        cost = _WEIGHTS[self.weight]
        adjacency = self._adjacency
        # Index 0 is the search from ``source``, index 1 the one from ``target``.
        settled: Tuple[Dict[str, float], ...] = ({}, {})
        seen: Tuple[Dict[str, float], ...] = ({source: 0}, {target: 0})
        preds: Tuple[Dict[str, Optional[str]], ...] = ({source: None}, {target: None})
        tiebreak = count()
        fringe = ([(0, next(tiebreak), source)], [(0, next(tiebreak), target)])
        best: Optional[float] = None
        meet = source
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, zone = heappop(fringe[direction])
            done = settled[direction]
            if zone in done:
                continue
            done[zone] = dist
            if zone in settled[1 - direction]:
                path: List[str] = []
                hop: Optional[str] = meet
                while hop is not None:
                    path.append(hop)
                    hop = preds[0][hop]
                path.reverse()
                hop = preds[1][meet]
                while hop is not None:
                    path.append(hop)
                    hop = preds[1][hop]
                return path
            reached, other_reached = seen[direction], seen[1 - direction]
            for neighbour, link in adjacency[zone].items():
                if neighbour in done:
                    continue
                length = dist + cost(link)
                if neighbour not in reached or length < reached[neighbour]:
                    reached[neighbour] = length
                    heappush(fringe[direction], (length, next(tiebreak), neighbour))
                    preds[direction][neighbour] = zone
                    if neighbour in other_reached:
                        total = length + other_reached[neighbour]
                        if best is None or best > total:
                            best, meet = total, neighbour
        raise PlatformError(f"no route between {source!r} and {target!r}")

    def has_route(self, source: str, destination: str) -> bool:
        """True when a path exists between the two zones."""
        try:
            self.route(source, destination)
            return True
        except PlatformError:
            return False

    def __repr__(self) -> str:
        return (
            f"<RoutingTable zones={len(self._adjacency)} "
            f"links={sum(map(len, self._adjacency.values())) // 2} weight={self.weight}>"
        )

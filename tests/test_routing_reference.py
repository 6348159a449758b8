"""The routing table picks the routes ``networkx.shortest_path`` picks.

:class:`~repro.platform.routing.RoutingTable` runs its own bidirectional
Dijkstra over an insertion-ordered adjacency.  On graphs with equal-cost
paths the route chosen depends on how the search breaks ties, so these
tests replay every ``add_zone``/``connect`` into a ``networkx.Graph`` and
require the very same links for every zone pair and every routing weight.
networkx is only a test reference: the module is skipped without it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

import pytest

nx = pytest.importorskip("networkx")

from repro.atlas import wlcg_grid  # noqa: E402
from repro.config.generators import generate_grid  # noqa: E402
from repro.des import Environment  # noqa: E402
from repro.platform import builder as platform_builder  # noqa: E402
from repro.platform import platform as platform_module  # noqa: E402
from repro.platform.link import Link  # noqa: E402
from repro.platform.routing import RoutingTable  # noqa: E402
from repro.utils.errors import PlatformError  # noqa: E402

WEIGHTS = ("latency", "hops", "inverse_bandwidth")


class ReferenceTable(RoutingTable):
    """A routing table that also builds the ``networkx.Graph`` it used to be."""

    def __init__(self, weight: str = "latency") -> None:
        super().__init__(weight)
        self.graph = nx.Graph()

    def add_zone(self, zone_name: str, local_link: Optional[Link] = None) -> None:
        super().add_zone(zone_name, local_link)
        self.graph.add_node(zone_name)

    def connect(self, zone_a: str, zone_b: str, link: Link) -> None:
        super().connect(zone_a, zone_b, link)
        self.graph.add_edge(
            zone_a,
            zone_b,
            link=link,
            latency=link.latency,
            hops=1.0,
            inverse_bandwidth=1.0 / link.bandwidth,
        )

    def reference_links(self, source: str, destination: str) -> Optional[Tuple[Link, ...]]:
        """The links networkx routes over, or ``None`` without a path."""
        try:
            path = nx.shortest_path(self.graph, source, destination, weight=self.weight)
        except nx.NetworkXNoPath:
            return None
        links: List[Link] = []
        if self._local_links[source] is not None:
            links.append(self._local_links[source])
        links.extend(self.graph.edges[a, b]["link"] for a, b in zip(path, path[1:]))
        if self._local_links[destination] is not None:
            links.append(self._local_links[destination])
        return tuple(links)


def assert_same_routes(table: ReferenceTable) -> int:
    """Every zone pair routes over the reference's links; returns pairs checked."""
    zones = table.zones
    for zone in zones:
        assert table.neighbors(zone) == list(table.graph.neighbors(zone))
    pairs = 0
    for source in zones:
        for destination in zones:
            if source == destination:
                continue
            expected = table.reference_links(source, destination)
            if expected is None:
                assert not table.has_route(source, destination)
                continue
            got = table.route(source, destination).links
            assert [link.name for link in got] == [link.name for link in expected], (
                f"{table.weight} route {source}->{destination}"
            )
            assert all(a is b for a, b in zip(got, expected))
            pairs += 1
    return pairs


def _bundled_table(monkeypatch, grid, weight: str) -> ReferenceTable:
    infrastructure, topology = grid
    topology = dataclasses.replace(topology, routing_weight=weight)
    monkeypatch.setattr(platform_module, "RoutingTable", ReferenceTable)
    platform = platform_builder.build_platform(Environment(), infrastructure, topology)
    assert isinstance(platform.routing, ReferenceTable)
    return platform.routing


BUNDLED_GRIDS = {
    **{
        f"{kind}-{sites}": (
            lambda kind=kind, sites=sites: generate_grid(sites, seed=sites, topology=kind)
        )
        for kind in ("star", "tiered")
        for sites in (2, 5, 12, 30)
    },
    "wlcg-10": lambda: wlcg_grid(10),
    "wlcg-all": lambda: wlcg_grid(),
}


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("grid", sorted(BUNDLED_GRIDS))
def test_bundled_grids_route_like_networkx(monkeypatch, grid, weight):
    table = _bundled_table(monkeypatch, BUNDLED_GRIDS[grid](), weight)
    assert assert_same_routes(table) > 0


def _random_graph(seed: int) -> Tuple[List[str], List[Tuple[str, str, Link]]]:
    """Zones and links of a small seeded mesh, ring or lattice with many ties.

    Latencies and bandwidths come from two-value sets, so equal-cost paths
    are the rule for every weight, ``hops`` most of all.
    """
    rng = random.Random(seed)
    kind = ("mesh", "ring", "lattice")[seed % 3]
    size = rng.randint(3, 11)
    zones = [f"z{index:02d}" for index in rng.sample(range(100), size)]
    pairs: List[Tuple[str, str]] = []
    if kind == "mesh":
        pairs = [tuple(rng.sample(zones, 2)) for _ in range(rng.randint(size - 1, 3 * size))]
    elif kind == "ring":
        pairs = [(zones[i], zones[(i + 1) % size]) for i in range(size)]
        pairs += [tuple(rng.sample(zones, 2)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pairs)
    else:
        width = max(2, int(size**0.5))
        pairs = [
            (zones[i], zones[j])
            for i in range(size)
            for j in (i + 1, i + width)
            if j < size and (j == i + width or j % width)
        ]
        rng.shuffle(pairs)
    links = [
        (
            a,
            b,
            Link(
                f"l{index}",
                bandwidth=rng.choice((1e9, 2e9)),
                latency=rng.choice((0.01, 0.02)),
            ),
        )
        for index, (a, b) in enumerate(pairs)
    ]
    return zones, links


@pytest.mark.parametrize("weight", WEIGHTS)
def test_seeded_tied_graphs_route_like_networkx(weight):
    pairs = 0
    for seed in range(240):
        zones, links = _random_graph(seed)
        table = ReferenceTable(weight)
        rng = random.Random(seed)
        for zone in zones:
            local = None
            if rng.random() < 0.5:
                local = Link(f"{zone}__local", bandwidth=10e9, latency=0.001)
            table.add_zone(zone, local_link=local)
        for a, b, link in links:
            table.connect(a, b, link)
        pairs += assert_same_routes(table)
    assert pairs > 5000


def test_reconnect_replaces_the_link_and_keeps_the_neighbour_position():
    table = ReferenceTable("latency")
    for zone in "ABCD":
        table.add_zone(zone)
    table.connect("A", "B", Link("ab", bandwidth=1e9, latency=0.01))
    table.connect("A", "C", Link("ac", bandwidth=1e9, latency=0.01))
    table.connect("B", "D", Link("bd", bandwidth=1e9, latency=0.01))
    table.connect("C", "D", Link("cd", bandwidth=1e9, latency=0.01))
    assert [link.name for link in table.route("A", "D").links] == ["ab", "bd"]
    slow = Link("ab-slow", bandwidth=1e9, latency=0.05)
    table.connect("B", "A", slow)
    assert table.neighbors("A") == ["B", "C"]
    assert table.neighbors("B") == ["A", "D"]
    assert [link.name for link in table.route("A", "D").links] == ["ac", "cd"]
    assert [link.name for link in table.route("A", "B").links] == ["ac", "cd", "bd"]
    assert_same_routes(table)


def test_no_route_and_unknown_zone_raise_platform_error():
    table = ReferenceTable("hops")
    for zone in "ABC":
        table.add_zone(zone)
    table.connect("A", "B", Link("ab", bandwidth=1e9))
    with pytest.raises(nx.NetworkXNoPath):
        nx.shortest_path(table.graph, "A", "C")
    with pytest.raises(PlatformError, match="no route between 'A' and 'C'"):
        table.route("A", "C")
    with pytest.raises(PlatformError, match="unknown zone 'Z'"):
        table.route("A", "Z")
    with pytest.raises(PlatformError, match="unknown zone 'Z'"):
        table.neighbors("Z")
    assert not table.has_route("C", "B")
    assert table.has_route("B", "A")

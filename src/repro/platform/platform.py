"""The :class:`Platform` facade: zones, routing and the network model.

A :class:`Platform` is the complete simulated hardware: every zone (site)
with its hosts and storage, the inter-zone topology, and the shared
flow-level network model.  It is what allocation
policy plugins see through ``get_resource_information`` and what the
simulation core executes jobs against.

Platforms can be built programmatically (as done in the unit tests) or from
the topology/infrastructure configuration files through
:mod:`repro.platform.builder`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.des import Environment
from repro.platform.host import Host
from repro.platform.link import Link
from repro.platform.network import NetworkModel
from repro.platform.routing import Route, RoutingTable
from repro.platform.storage import Storage
from repro.platform.zone import NetZone
from repro.utils.errors import PlatformError

__all__ = ["Platform"]


class Platform:
    """The complete simulated computing platform.

    Parameters
    ----------
    env:
        Discrete-event environment shared by every model on the platform.
    routing_weight:
        Shortest-path weight used for inter-zone routing (see
        :class:`~repro.platform.routing.RoutingTable`).
    """

    def __init__(self, env: Environment, routing_weight: str = "latency") -> None:
        self.env = env
        self._zones: Dict[str, NetZone] = {}
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[str, Link] = {}
        self._storages: Dict[str, Storage] = {}
        self.routing = RoutingTable(weight=routing_weight)
        self.network = NetworkModel(env)

    # -- construction -----------------------------------------------------------
    def add_zone(
        self,
        name: str,
        local_bandwidth: Optional[float] = None,
        local_latency: float = 0.0,
        properties: Optional[Dict[str, str]] = None,
    ) -> NetZone:
        """Create and register a zone, optionally with an intra-zone link."""
        if name in self._zones:
            raise PlatformError(f"duplicate zone {name!r}")
        local_link = None
        if local_bandwidth is not None:
            local_link = self.add_link(
                f"{name}__local", bandwidth=local_bandwidth, latency=local_latency
            )
        zone = NetZone(name, local_link=local_link, properties=properties)
        self._zones[name] = zone
        self.routing.add_zone(name, local_link=local_link)
        return zone

    def add_link(
        self,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
        sharing: str = "shared",
    ) -> Link:
        """Create and register a link (not yet attached to the topology)."""
        if name in self._links:
            raise PlatformError(f"duplicate link {name!r}")
        link = Link(name, bandwidth=bandwidth, latency=latency, sharing=sharing)
        self._links[name] = link
        return link

    def connect_zones(self, zone_a: str, zone_b: str, link: Link) -> None:
        """Attach ``link`` between two registered zones."""
        for zone in (zone_a, zone_b):
            if zone not in self._zones:
                raise PlatformError(f"unknown zone {zone!r}")
        self.routing.connect(zone_a, zone_b, link)

    def add_host(
        self,
        zone_name: str,
        name: str,
        speed: float,
        cores: int = 1,
        ram: float = 0.0,
        properties: Optional[Dict[str, str]] = None,
    ) -> Host:
        """Create a host inside ``zone_name``."""
        if name in self._hosts:
            raise PlatformError(f"duplicate host {name!r}")
        zone = self.zone(zone_name)
        host = Host(self.env, name, speed=speed, cores=cores, ram=ram, properties=properties)
        zone.add_host(host)
        self._hosts[name] = host
        return host

    def add_storage(
        self,
        zone_name: str,
        name: str,
        capacity: float = float("inf"),
        read_bandwidth: float = 1e9,
        write_bandwidth: float = 1e9,
    ) -> Storage:
        """Create a storage element associated with ``zone_name``."""
        if name in self._storages:
            raise PlatformError(f"duplicate storage {name!r}")
        zone = self.zone(zone_name)  # validates the zone exists
        storage = Storage(
            self.env,
            name,
            capacity=capacity,
            read_bandwidth=read_bandwidth,
            write_bandwidth=write_bandwidth,
        )
        storage.zone_name = zone.name  # type: ignore[attr-defined]
        self._storages[name] = storage
        return storage

    # -- lookup ------------------------------------------------------------------
    def zone(self, name: str) -> NetZone:
        """Return the zone called ``name``."""
        try:
            return self._zones[name]
        except KeyError:
            raise PlatformError(f"unknown zone {name!r}") from None

    def host(self, name: str) -> Host:
        """Return the host called ``name``."""
        try:
            return self._hosts[name]
        except KeyError:
            raise PlatformError(f"unknown host {name!r}") from None

    def storage(self, name: str) -> Storage:
        """Return the storage element called ``name``."""
        try:
            return self._storages[name]
        except KeyError:
            raise PlatformError(f"unknown storage {name!r}") from None

    def link(self, name: str) -> Link:
        """Return the link called ``name``."""
        try:
            return self._links[name]
        except KeyError:
            raise PlatformError(f"unknown link {name!r}") from None

    @property
    def zones(self) -> List[NetZone]:
        """All zones in registration order."""
        return list(self._zones.values())

    @property
    def zone_names(self) -> List[str]:
        """Names of all zones in registration order."""
        return list(self._zones)

    @property
    def hosts(self) -> List[Host]:
        """All hosts in registration order."""
        return list(self._hosts.values())

    @property
    def links(self) -> List[Link]:
        """All links in registration order."""
        return list(self._links.values())

    @property
    def storages(self) -> List[Storage]:
        """All storage elements in registration order."""
        return list(self._storages.values())

    def storages_in_zone(self, zone_name: str) -> List[Storage]:
        """Storage elements registered under ``zone_name``."""
        return [s for s in self._storages.values() if getattr(s, "zone_name", None) == zone_name]

    # -- derived information -------------------------------------------------------
    def route(self, source_zone: str, destination_zone: str) -> Route:
        """Route between two zones (see :class:`RoutingTable`)."""
        return self.routing.route(source_zone, destination_zone)

    @property
    def total_cores(self) -> int:
        """Total cores across every zone."""
        return sum(zone.total_cores for zone in self._zones.values())

    def describe(self) -> dict:
        """Return a JSON-friendly summary of the platform (used by plugins).

        This is the structure handed to allocation policies through
        ``get_resource_information``: per-zone core counts, speeds, storage
        and connectivity, without exposing simulator internals.
        """
        zones = {}
        for zone in self._zones.values():
            zones[zone.name] = {
                "hosts": len(zone.hosts),
                "total_cores": zone.total_cores,
                "available_cores": zone.available_cores,
                "mean_core_speed": zone.mean_core_speed(),
                "properties": dict(zone.properties),
                "storages": [s.name for s in self.storages_in_zone(zone.name)],
                "neighbors": self.routing.neighbors(zone.name),
            }
        return {
            "zones": zones,
            "links": {
                link.name: {"bandwidth": link.bandwidth, "latency": link.latency}
                for link in self._links.values()
            },
            "total_cores": self.total_cores,
        }

    def validate(self) -> None:
        """Check structural consistency (connectivity, non-empty zones).

        Raises :class:`PlatformError` describing the first problem found.
        Zones without hosts are allowed only if flagged as abstract
        (``properties["abstract"] == "true"``), which is how the main-server
        zone is represented.
        """
        if not self._zones:
            raise PlatformError("platform has no zones")
        for zone in self._zones.values():
            abstract = zone.properties.get("abstract", "false").lower() == "true"
            if not zone.hosts and not abstract:
                raise PlatformError(f"zone {zone.name!r} has no hosts")
        names = self.zone_names
        for other in names[1:]:
            if not self.routing.has_route(names[0], other):
                raise PlatformError(
                    f"zone {other!r} is unreachable from {names[0]!r}; topology is disconnected"
                )

    def __repr__(self) -> str:
        return (
            f"<Platform zones={len(self._zones)} hosts={len(self._hosts)} "
            f"links={len(self._links)}>"
        )

"""Platform model: hosts, links, zones, routing and the network.

This package reproduces the part of SimGrid that CGSim relies on: a
description of the simulated hardware (computing sites made of hosts with
cores/speed/RAM/disk, interconnected by links with latency and bandwidth,
grouped into network zones) together with the performance models that turn
activities into simulated durations:

* :class:`~repro.platform.host.Host` and
  :class:`~repro.platform.storage.Storage` -- per-machine compute and disk.
* :class:`~repro.platform.link.Link` -- point-to-point network capacity.
* :class:`~repro.platform.zone.NetZone` -- the site-level container handling
  routing between its hosts and towards other zones, exactly as CGSim maps
  one computing site to one SimGrid netzone.
* :class:`~repro.platform.network.NetworkModel` -- a flow-level network model
  with progressive-filling max-min fair bandwidth sharing.
* :class:`~repro.platform.platform.Platform` -- the top-level object gluing
  zones, routes and models together; built from the topology configuration.
"""

from repro.platform.host import Host
from repro.platform.link import Link
from repro.platform.network import Flow, NetworkModel
from repro.platform.platform import Platform
from repro.platform.routing import Route, RoutingTable
from repro.platform.storage import Storage
from repro.platform.zone import NetZone

__all__ = [
    "Host",
    "Link",
    "NetZone",
    "Platform",
    "NetworkModel",
    "Flow",
    "Storage",
    "Route",
    "RoutingTable",
]

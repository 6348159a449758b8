"""Network zones: the site-level container of the platform model.

CGSim maps every computing site onto one SimGrid *netzone*: a container that
owns the site's hosts and internal links and handles routing between its
hosts and towards other zones through a gateway.  The reproduction keeps the
same structure: a :class:`NetZone` owns hosts, a local-area link used for all
intra-zone traffic, and a gateway identity used by the inter-zone routing
table maintained by :class:`~repro.platform.platform.Platform`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple

from repro.des.resources import Tally
from repro.platform.host import Host
from repro.platform.link import Link
from repro.utils.errors import PlatformError

__all__ = ["NetZone"]


class NetZone:
    """A network zone (one computing site, or the backbone root zone).

    Parameters
    ----------
    name:
        Unique zone name (e.g. ``"BNL"`` or ``"CERN"``).
    local_link:
        Link used for every host-to-host communication inside the zone and as
        the last hop of inter-zone routes ending in this zone.  ``None`` means
        intra-zone communication is instantaneous (useful for the abstract
        main-server zone).
    properties:
        Free-form metadata (tier level, country, cloud, ...).
    """

    def __init__(
        self,
        name: str,
        local_link: Optional[Link] = None,
        properties: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.local_link = local_link
        self.properties: Dict[str, str] = dict(properties or {})
        self._hosts: Dict[str, Host] = {}
        #: Sum of cores / widest single host over the zone's hosts, and the
        #: cores their pools have granted: kept current by :meth:`add_host`
        #: and by the pools themselves, so capacity reads never scan hosts.
        self.total_cores = 0
        self.max_host_cores = 0
        self._busy = Tally()
        #: The hosts ordered by (free cores, name) and the count each is filed
        #: under; whoever changes a host's pool calls :meth:`refile`.
        self._by_free: List[Tuple[int, str, Host]] = []
        self._filed: Dict[str, int] = {}

    # -- host management -----------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Register ``host`` inside this zone."""
        if host.name in self._hosts:
            raise PlatformError(f"zone {self.name!r}: duplicate host {host.name!r}")
        if host.zone is not None:
            raise PlatformError(
                f"host {host.name!r} already belongs to zone {host.zone.name!r}"
            )
        host.zone = self
        self._hosts[host.name] = host
        self.total_cores += host.cores
        self.max_host_cores = max(self.max_host_cores, host.cores)
        host.core_pool.report_to(self._busy)
        free = self._filed[host.name] = host.available_cores
        insort(self._by_free, (free, host.name, host))
        return host

    def host(self, name: str) -> Host:
        """Return the host called ``name`` (raises if unknown)."""
        try:
            return self._hosts[name]
        except KeyError:
            raise PlatformError(f"zone {self.name!r} has no host {name!r}") from None

    @property
    def hosts(self) -> List[Host]:
        """All hosts in the zone, in registration order."""
        return list(self._hosts.values())

    def __contains__(self, host_name: str) -> bool:
        return host_name in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self) -> Iterable[Host]:
        return iter(self._hosts.values())

    # -- aggregate capacity ----------------------------------------------------
    @property
    def available_cores(self) -> int:
        """Sum of currently free cores across the zone's hosts."""
        return self.total_cores - self._busy.in_use

    def best_fit(self, cores: int) -> Optional[Host]:
        """The host with the fewest free cores that still has ``cores`` of them
        (ties by name), or ``None``: one bisection of the free-core order."""
        by_free = self._by_free
        at = bisect_left(by_free, (cores,))
        return by_free[at][2] if at < len(by_free) else None

    def refile(self, host: Host) -> None:
        """Move ``host`` to its place in the free-core order after its pool changed."""
        by_free, name = self._by_free, host.name
        del by_free[bisect_left(by_free, (self._filed[name], name))]
        free = self._filed[name] = host.available_cores
        insort(by_free, (free, name, host))

    def free_core_order(self) -> List[Tuple[int, str]]:
        """The ``(free cores, host name)`` keys of the order :meth:`best_fit` searches."""
        return [entry[:2] for entry in self._by_free]

    @property
    def total_speed(self) -> float:
        """Aggregate compute speed of the zone (operations per second)."""
        return sum(host.total_speed for host in self._hosts.values())

    def mean_core_speed(self) -> float:
        """Average per-core speed over all hosts (0 when the zone is empty)."""
        total_cores = self.total_cores
        if total_cores == 0:
            return 0.0
        return self.total_speed / total_cores

    def __repr__(self) -> str:
        return f"<NetZone {self.name} hosts={len(self._hosts)} cores={self.total_cores}>"

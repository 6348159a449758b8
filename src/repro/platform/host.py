"""Host model: a machine with cores, per-core speed, RAM and attached storage.

In CGSim each computing site contains hosts ("CPUs") with properties such as
speed, RAM and storage; jobs occupy an integer number of cores for a duration
derived from their computational work and the host's per-core speed.  The
host exposes its cores as a counted resource so the site's admission can
admit jobs only while free cores remain, which is what produces realistic
queueing behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.des import Environment, Resource
from repro.utils.errors import PlatformError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.storage import Storage
    from repro.platform.zone import NetZone

__all__ = ["Host"]


class Host:
    """A simulated machine.

    Parameters
    ----------
    env:
        Discrete-event environment.
    name:
        Globally unique host name (e.g. ``"BNL_wn012"``).
    speed:
        Per-core speed in operations per second (flop/s or HS23-normalised
        units -- the simulator only requires work and speed to share a unit).
    cores:
        Number of cores.
    ram:
        Memory in bytes.
    properties:
        Free-form key/value metadata (availability zone, tier, ...).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        speed: float,
        cores: int = 1,
        ram: float = 0.0,
        properties: Optional[Dict[str, str]] = None,
    ) -> None:
        if speed <= 0:
            raise PlatformError(f"host {name!r}: speed must be positive, got {speed}")
        if cores < 1:
            raise PlatformError(f"host {name!r}: cores must be >= 1, got {cores}")
        if ram < 0:
            raise PlatformError(f"host {name!r}: ram must be >= 0, got {ram}")
        self.env = env
        self.name = name
        self.speed = float(speed)
        self.cores = int(cores)
        self.ram = float(ram)
        self.properties: Dict[str, str] = dict(properties or {})
        self.zone: Optional["NetZone"] = None
        self.storage: Optional["Storage"] = None
        #: Counted core pool; acquired by executions.
        self.core_pool = Resource(env, capacity=self.cores)
        #: Cumulative busy core-seconds, for utilisation accounting.
        self._busy_core_seconds = 0.0

    # -- capacity ------------------------------------------------------------
    @property
    def available_cores(self) -> int:
        """Cores not currently held by an execution."""
        return self.core_pool.available

    @property
    def used_cores(self) -> int:
        """Cores currently held by an execution."""
        return self.core_pool.count

    @property
    def total_speed(self) -> float:
        """Aggregate speed across all cores (operations per second)."""
        return self.speed * self.cores

    def duration_for(self, work: float, cores: int = 1, efficiency: float = 1.0) -> float:
        """Time to execute ``work`` operations on ``cores`` cores of this host.

        ``efficiency`` scales the effective speed (parallel efficiency < 1 for
        multi-core jobs models imperfect scaling).
        """
        if work < 0:
            raise PlatformError(f"work must be >= 0, got {work}")
        if cores < 1 or cores > self.cores:
            raise PlatformError(
                f"host {self.name!r}: cannot run on {cores} cores (host has {self.cores})"
            )
        if efficiency <= 0 or efficiency > 1:
            raise PlatformError(f"efficiency must be in (0, 1], got {efficiency}")
        return work / (self.speed * cores * efficiency)

    def account_busy(self, cores: int, duration: float) -> None:
        """Record ``cores`` busy for ``duration`` seconds (utilisation metric)."""
        self._busy_core_seconds += cores * duration

    @property
    def busy_core_seconds(self) -> float:
        """Total core-seconds of completed work on this host."""
        return self._busy_core_seconds

    def utilisation(self, horizon: float) -> float:
        """Fraction of core capacity used over ``horizon`` simulated seconds."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_core_seconds / (self.cores * horizon))

    def __repr__(self) -> str:
        return f"<Host {self.name} cores={self.cores} speed={self.speed:g}>"

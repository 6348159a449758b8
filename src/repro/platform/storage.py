"""Storage model: per-site disk capacity and read/write bandwidth.

Each computing site owns a storage element holding input and output files.
The model tracks occupied capacity (so a site can refuse data it cannot hold)
and serialises read/write operations through a bandwidth-limited channel, so
heavy staging activity slows down concurrent I/O, similar to SimGrid disk
resources.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.des import Environment, Event, Resource
from repro.utils.errors import PlatformError

__all__ = ["Storage"]


class Storage:
    """A storage element with capacity and read/write bandwidth.

    Parameters
    ----------
    env:
        Discrete-event environment.
    name:
        Unique storage name (usually ``"<site>_se"``).
    capacity:
        Total capacity in bytes (``inf`` allowed).
    read_bandwidth / write_bandwidth:
        Aggregate bandwidth in bytes/second shared by concurrent operations
        (operations are serialised through a single channel, i.e. an
        operation sees the full bandwidth but waits for earlier ones).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity: float = float("inf"),
        read_bandwidth: float = 1e9,
        write_bandwidth: float = 1e9,
    ) -> None:
        if capacity <= 0:
            raise PlatformError(f"storage {name!r}: capacity must be positive")
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise PlatformError(f"storage {name!r}: bandwidths must be positive")
        self.env = env
        self.name = name
        self.capacity = float(capacity)
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        self._used = 0.0
        self._files: Dict[str, float] = {}
        self._channel = Resource(env, capacity=1)
        #: Cumulative I/O accounting (bytes).
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    # -- capacity ------------------------------------------------------------
    @property
    def used(self) -> float:
        """Bytes currently stored."""
        return self._used

    @property
    def free(self) -> float:
        """Bytes still available."""
        return self.capacity - self._used

    def holds(self, filename: str) -> bool:
        """True when ``filename`` is present on this storage."""
        return filename in self._files

    def file_size(self, filename: str) -> float:
        """Size of a stored file (raises if absent)."""
        try:
            return self._files[filename]
        except KeyError:
            raise PlatformError(f"storage {self.name!r} does not hold {filename!r}") from None

    @property
    def files(self) -> Dict[str, float]:
        """Mapping of stored file name to size."""
        return dict(self._files)

    # -- synchronous catalogue operations ------------------------------------------
    def register(self, filename: str, size: float) -> None:
        """Account for a file placed on this storage without simulating I/O.

        Used when building the initial replica distribution before the
        simulation starts.
        """
        if size < 0:
            raise PlatformError("file size must be >= 0")
        if filename in self._files:
            return
        if self._used + size > self.capacity + 1e-9:
            raise PlatformError(
                f"storage {self.name!r} full: cannot register {filename!r} ({size} bytes)"
            )
        self._files[filename] = float(size)
        self._used += size

    def evict(self, filename: str) -> None:
        """Remove a file from the storage (no simulated I/O)."""
        size = self._files.pop(filename, None)
        if size is not None:
            self._used -= size

    # -- simulated I/O -----------------------------------------------------------
    # An operation is a chain of callbacks: an urgent start, the channel
    # grant and the transfer timeout.  Handing the channel on files the next
    # waiter's grant before whatever the finished operation files.
    def write(self, filename: str, size: float) -> Event:
        """Write ``size`` bytes as ``filename``; event succeeds when done."""
        if size < 0:
            raise PlatformError("file size must be >= 0")
        done = Event(self.env)

        def begin(_event: Event) -> None:
            if self._used + size > self.capacity + 1e-9:
                done.fail(PlatformError(f"storage {self.name!r} full writing {filename!r}"))
            else:
                self._through_channel(size / self.write_bandwidth, written)

        def written() -> None:
            self.register(filename, size)
            self.bytes_written += size
            done.succeed(filename)

        self.env.hop(begin, urgent=True)
        return done

    def read(self, filename: str) -> Event:
        """Read ``filename``; event succeeds (with its size) when done."""
        done = Event(self.env)

        def begin(_event: Event) -> None:
            if filename not in self._files:
                done.fail(PlatformError(f"storage {self.name!r} does not hold {filename!r}"))
                return
            size = self._files[filename]

            def read() -> None:
                self.bytes_read += size
                done.succeed(size)

            self._through_channel(size / self.read_bandwidth, read)

        self.env.hop(begin, urgent=True)
        return done

    def _through_channel(self, seconds: float, then: Callable[[], None]) -> None:
        """Wait for the channel, hold it ``seconds``, hand it on, then call ``then()``."""
        slot = self._channel.request()

        def held(_timeout: Event) -> None:
            slot.cancel()
            then()

        slot.callbacks.append(lambda _grant: self.env.timeout(seconds).callbacks.append(held))

    def __repr__(self) -> str:
        return f"<Storage {self.name} used={self._used:g}/{self.capacity:g}>"

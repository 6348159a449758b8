"""Arrival-time patterns for synthetic workloads.

Production grids see anything from a steady trickle of analysis jobs to
bursty Monte-Carlo production campaigns with strong diurnal structure.  The
generators here produce arrival-time sequences with those shapes; the
workload generator attaches them to synthetic jobs.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.utils.errors import WorkloadError
from repro.utils.rng import RandomSource

__all__ = [
    "constant_arrivals",
    "poisson_arrivals",
    "burst_arrivals",
    "diurnal_arrivals",
]


def constant_arrivals(count: int, interval: float, start: float = 0.0) -> List[float]:
    """``count`` arrivals spaced exactly ``interval`` seconds apart."""
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if interval < 0:
        raise WorkloadError("interval must be >= 0")
    return [start + i * interval for i in range(count)]


def poisson_arrivals(
    count: int, rate: float, start: float = 0.0, seed: int = 0
) -> List[float]:
    """``count`` arrivals from a Poisson process with ``rate`` jobs/second."""
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if rate <= 0:
        raise WorkloadError("rate must be positive")
    rng = RandomSource(seed).generator("poisson-arrivals")
    gaps = rng.exponential(1.0 / rate, size=count)
    return (start + np.cumsum(gaps)).tolist()


def burst_arrivals(
    count: int,
    burst_size: int,
    burst_interval: float,
    intra_burst_interval: float = 1.0,
    start: float = 0.0,
) -> List[float]:
    """Arrivals grouped into bursts of ``burst_size`` jobs.

    Bursts start every ``burst_interval`` seconds; within a burst jobs arrive
    every ``intra_burst_interval`` seconds.  Models campaign-style submission
    (a task manager releasing many jobs at once).
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if burst_size < 1:
        raise WorkloadError("burst_size must be >= 1")
    if burst_interval < 0 or intra_burst_interval < 0:
        raise WorkloadError("intervals must be >= 0")
    arrivals: List[float] = []
    burst_index = 0
    while len(arrivals) < count:
        burst_start = start + burst_index * burst_interval
        for position in range(burst_size):
            if len(arrivals) >= count:
                break
            arrivals.append(burst_start + position * intra_burst_interval)
        burst_index += 1
    return arrivals


def diurnal_arrivals(
    count: int,
    mean_rate: float,
    period: float = 86400.0,
    amplitude: float = 0.5,
    start: float = 0.0,
    seed: int = 0,
) -> List[float]:
    """Arrivals from a non-homogeneous Poisson process with a daily cycle.

    The instantaneous rate is ``mean_rate * (1 + amplitude * sin(2*pi*t/period))``;
    sampling uses thinning, so the output is exact for the requested count.
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if mean_rate <= 0:
        raise WorkloadError("mean_rate must be positive")
    if not 0 <= amplitude < 1:
        raise WorkloadError("amplitude must lie in [0, 1)")
    if period <= 0:
        raise WorkloadError("period must be positive")
    rng = RandomSource(seed).generator("diurnal-arrivals")
    max_rate = mean_rate * (1 + amplitude)
    arrivals: List[float] = []
    t = start
    while len(arrivals) < count:
        t += float(rng.exponential(1.0 / max_rate))
        instantaneous = mean_rate * (1 + amplitude * math.sin(2 * math.pi * (t - start) / period))
        if rng.uniform() <= instantaneous / max_rate:
            arrivals.append(t)
    return arrivals

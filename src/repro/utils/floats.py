"""Float reductions that give the same bits on every supported interpreter.

From CPython 3.12 on, the builtin ``sum()`` compensates its rounding when its
items are exact ``float`` objects (Neumaier summation); up to 3.11 it adds
them left to right.  The simulator's times, speeds and sizes are such floats,
so a ``sum()`` whose result reaches the calendar, a policy decision, a metric
or a fingerprint would differ in its last bits between interpreters.
:func:`ordered_sum` adds in order everywhere: the result of 3.10 and 3.11.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...``, added left to right (``0.0`` when empty)."""
    total = 0.0
    for value in values:
        total += value
    return total

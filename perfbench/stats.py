"""Latency summaries and span self time: the benchmark's arithmetic."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float]) -> Tail:
    """The sample with exactly :data:`TAIL_BEYOND` larger samples after it.

    With ``n`` sorted samples that is index ``n - 11``, the
    ``100 * (n - 10) / n`` percentile (p90 of 100 samples).  Fewer than
    eleven samples have no such percentile; the maximum is returned with
    ``beyond`` saying how many samples lie past it (zero).
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n, 0)
    return Tail(ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def self_times(
    spans: Sequence[tuple[str, float, float, int]],
) -> list[float]:
    """Self time of each ``(name, start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (``parent_index`` is ``-1`` for a root).
    Children of one span are merged as intervals, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor, start)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result

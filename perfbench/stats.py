"""Statistics rules shared by every perfbench metric.

* A tail percentile is emitted only when at least ``MIN_BEYOND`` samples
  lie beyond it; every percentile travels with its sample count.
* An end-to-end timing below ``MIN_TIMING_S`` is refused: such a number is
  dominated by timer and scheduler noise on a shared box.
* Metric names match ``NAME_RE`` and every metric carries a unit.
* A span's self time is its duration minus the union of its children's
  intervals (children may overlap, e.g. parallel work).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MIN_BEYOND = 10
MIN_TIMING_S = 1e-3


@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit and the samples it came from."""

    value: float
    unit: str
    n: int = 1


def check_metric(name: str, metric: Metric) -> None:
    """Refuse a malformed name, a missing unit or a non-finite value."""
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not UNIT_RE.match(metric.unit or ""):
        raise ValueError(f"metric {name!r} has bad unit {metric.unit!r}")
    if not math.isfinite(metric.value):
        raise ValueError(f"metric {name!r} is not finite: {metric.value}")
    if metric.n < 0:
        raise ValueError(f"metric {name!r} has a negative sample count")


def check_timing_scale(name: str, metric: Metric) -> None:
    """Refuse an end-to-end timing that reads below millisecond scale."""
    if metric.unit == "s" and metric.value < MIN_TIMING_S:
        raise ValueError(
            f"timing {name!r} = {metric.value:.3g} s is below "
            f"{MIN_TIMING_S} s; measure more work per sample"
        )


def percentile(samples: Sequence[float], q: float) -> Optional[Metric]:
    """The ``q``-th percentile of timings (50 <= q < 100), or None.

    A tail percentile (q > 50) needs at least ``MIN_BEYOND`` samples
    beyond it: a p90 needs 100 samples and a p99 needs 1,000.  The median
    is the centre, not a tail, and is emitted from any non-empty set; its
    sample count travels with it either way.  Linear interpolation between
    closest ranks, as ``numpy.percentile`` does.
    """
    if not 50 <= q < 100:
        raise ValueError(f"percentile must be in [50, 100), got {q}")
    n = len(samples)
    # Integer form of n * (1 - q/100) >= MIN_BEYOND, free of float rounding.
    if n == 0 or (q > 50 and n * (100 - q) < MIN_BEYOND * 100):
        return None
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return Metric(value, "s", n)


def median(samples: Sequence[float]) -> float:
    """Plain median (for small sets of per-process values)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """Span duration minus the union of its children, clipped to the span."""
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - union_length(clipped)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    import statistics

    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_ratio(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartile_spread(values)
    return 0.0 if q2 == 0 else (q3 - q1) / q2

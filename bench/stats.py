"""Order statistics used by the benchmark reports.

Quartiles follow Python's ``statistics.quantiles(values, n=4)`` (the
"exclusive" method) so that the spreads printed here match the ones a
reader recomputes from the raw values.  No sample the benchmark summarises
has the hundreds of values a tail percentile needs, so none is reported.
"""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value repeats."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def summary(values) -> dict:
    """Median, quartiles and count."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}

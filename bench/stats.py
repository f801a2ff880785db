"""Order statistics and the regression rule the benchmark reports with.

Every timing is summarised as a median plus the highest percentile that
still has at least ``MIN_BEYOND`` samples above it, always with its
sample count.  Spreads are inter-quartile ranges as a share of the
median, with the quartiles of :func:`statistics.quantiles`.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when this many samples lie beyond
#: it; fewer and the "tail" would be one or two unlucky samples.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (a sample value, never interpolated)."""
    ordered = sorted(values)
    tenths = round(pct * 10)
    rank = max(1, -(-len(ordered) * tenths // 1000))  # integer ceil
    return ordered[rank - 1]


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND
         ) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Returns ``(percentile, value)``, or None when even the median has
    fewer than ``min_beyond`` samples beyond it.
    """
    for pct in TAIL_LADDER:
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= min_beyond:
            return pct, value
    return None


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Negative means better.  ``better`` is ``"lower"`` or ``"higher"``.
    """
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_sets(base: Dict[str, Dict[str, List[float]]],
                 new: Dict[str, Dict[str, List[float]]],
                 metrics: Sequence[Dict[str, object]]
                 ) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present in both sets.

    ``base``/``new`` map workload -> metric -> the values of every run.
    A row is a regression when the new median is worse than the base
    median by more than the metric's bound, and unresolved when either
    set's spread is wider than the bound.
    """
    rows = []
    for workload in sorted(set(base) & set(new)):
        for spec in metrics:
            name = str(spec["name"])
            a = base[workload].get(name)
            b = new[workload].get(name)
            if not a or not b:
                continue
            med_a, med_b = median(a), median(b)
            worse = worsening(med_a, med_b, str(spec["better"]))
            bound = float(spec["bound"])  # type: ignore[arg-type]
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "base": med_a, "new": med_b,
                         "n_base": len(a), "n_new": len(b),
                         "worse": worse, "bound": bound,
                         "regression": worse > bound,
                         "unresolved": max(spread(a), spread(b)) > bound})
    return rows

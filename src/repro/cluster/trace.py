"""Step-function time series used for all simulated resource metrics.

Every resource in the cluster simulator (fluid bandwidth capacities,
CPU included, and memory accounts) records its state changes as a
:class:`StepSeries`: a piecewise-constant function of simulated time.
The monitoring layer later resamples these series onto a uniform grid to
produce the CPU% / disk util% / MiB/s plots from the paper.

The representation is two parallel ``array('d')`` buffers (``times``,
``values``), with ``values[i]`` holding between ``times[i]`` (inclusive)
and ``times[i+1]`` (exclusive).  Compact C-double storage (8 bytes per
point instead of a 24+-byte boxed float per list slot) with the same
amortized-doubling append keeps 1000-node runs — millions of recorded
points across ~5000 capacities — inside cache-friendly memory, at an
API indistinguishable from the former plain lists (indexing, slicing,
``bisect``, iteration all behave identically; stored values are the
same IEEE-754 doubles CPython floats are).  Appends must be monotone in
time; appending at an existing last timestamp overwrites the last
value, which is what a resource wants when several state changes happen
at the same simulated instant.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["StepSeries", "check_series_bounds"]


class StepSeries:
    """A piecewise-constant time series with monotone timestamps."""

    __slots__ = ("times", "values", "initial")

    def __init__(self, initial: float = 0.0) -> None:
        self.times = array("d")
        self.values = array("d")
        self.initial = float(initial)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, time: float, value: float) -> None:
        """Record that the series takes ``value`` from ``time`` onwards."""
        if self.times:
            last = self.times[-1]
            if time < last:
                raise ValueError(
                    f"StepSeries appends must be monotone: {time} < {last}"
                )
            if time == last:
                self.values[-1] = value
                return
            if self.values[-1] == value:
                # Collapse runs of equal values to keep the series compact.
                return
        elif value == self.initial:
            return
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __bool__(self) -> bool:  # a series with no change points is still valid
        return True

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value_at(self, time: float) -> float:
        """Value of the step function at ``time``."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return self.initial
        return self.values[idx]

    @property
    def last_value(self) -> float:
        return self.values[-1] if self.values else self.initial

    def integral(self, start: float, end: float) -> float:
        """Integral of the series over ``[start, end]``."""
        if end < start:
            raise ValueError(f"end {end} < start {start}")
        if end == start:
            return 0.0
        total = 0.0
        prev_t = start
        prev_v = self.value_at(start)
        lo = bisect.bisect_right(self.times, start)
        for i in range(lo, len(self.times)):
            t = self.times[i]
            if t >= end:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, self.values[i]
        total += prev_v * (end - prev_t)
        return total

    def mean(self, start: float, end: float) -> float:
        """Time-weighted mean over ``[start, end]`` (0 for empty interval)."""
        if end <= start:
            return 0.0
        return self.integral(start, end) / (end - start)

    def maximum(self, start: float, end: float) -> float:
        """Maximum value attained anywhere in ``[start, end]``."""
        best = self.value_at(start)
        lo = bisect.bisect_right(self.times, start)
        for i in range(lo, len(self.times)):
            if self.times[i] > end:
                break
            if self.values[i] > best:
                best = self.values[i]
        return best

    def sample(self, start: float, end: float, step: float
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Resample onto a uniform grid, averaging within each bucket.

        Returns ``(grid_times, bucket_means)`` as float arrays, where
        ``grid_times[i]`` is the left edge of bucket ``i``.  Averaging
        (rather than point sampling) matches how monitoring agents such
        as *dstat* report utilisation.

        Bucket edges come from ``searchsorted``; each bucket's integral
        is then accumulated term by term across all buckets at once:
        pass ``r`` adds the term ending at every bucket's ``r``-th
        change point.  Each bucket thus sums exactly the terms
        :meth:`integral` would, in the same order and starting from
        zero, so the means are bitwise equal to an independent
        ``integral(left, right) / (right - left)`` per bucket.  (No
        ``reduceat``/pairwise sums: those would reorder the additions.)
        """
        if step <= 0:
            raise ValueError("step must be positive")
        n = max(1, math.ceil((end - start) / step))
        left = float(start) + np.arange(n) * float(step)
        right = np.minimum(left + step, end)
        width = right - left
        live = width > 0
        times = np.frombuffer(self.times)
        # values_ext[i] is the value holding just before change point i.
        values_ext = np.concatenate(([self.initial],
                                     np.frombuffer(self.values)))
        first = np.searchsorted(times, left, side="right")
        count = np.where(live, np.searchsorted(times, right, side="left")
                         - first, 0)
        total = np.zeros(n)
        prev_t = left.copy()
        prev_v = values_ext[first]
        for r in range(int(count.max())):
            act = np.flatnonzero(count > r)
            i = first[act] + r
            t = times[i]
            total[act] += prev_v[act] * (t - prev_t[act])
            prev_t[act] = t
            prev_v[act] = values_ext[i + 1]
        total += prev_v * (right - prev_t)
        means = np.zeros(n)
        np.divide(total, width, out=means, where=live)
        return left, means


def check_series_bounds(
    series: StepSeries,
    name: str,
    lower: float = 0.0,
    upper: float = math.inf,
    tolerance: float = 1e-9,
) -> List[str]:
    """Check every point of ``series`` lies in ``[lower, upper]``.

    Returns violation strings (at most one per bound) rather than
    raising, so callers can aggregate them across many resources.
    Timestamps are also checked for monotonicity — :meth:`StepSeries.append`
    enforces it, but direct list manipulation could break it.
    """
    problems: List[str] = []
    span = max(abs(lower), abs(upper)) if math.isfinite(upper) else abs(lower)
    slack = tolerance * max(1.0, span)
    low_hit = next((v for v in series.values if v < lower - slack), None)
    if low_hit is not None:
        problems.append(f"{name}: value {low_hit} < lower bound {lower}")
    if math.isfinite(upper):
        high_hit = next((v for v in series.values if v > upper + slack), None)
        if high_hit is not None:
            problems.append(f"{name}: value {high_hit} > upper bound {upper}")
    for i in range(1, len(series.times)):
        if series.times[i] < series.times[i - 1]:
            problems.append(f"{name}: timestamps not monotone at index {i}")
            break
    return problems

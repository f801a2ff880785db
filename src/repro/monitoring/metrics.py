"""Metric definitions: the five panels of the paper's resource figures.

Every resource figure in the paper (Figs. 3, 6, 9, 10, 16, 17) plots
some subset of CPU %, Memory %, Disk util %, I/O MiB/s and Network
MiB/s, as per-node values aggregated over the cluster.  A
:class:`MetricFrame` is one resampled panel: a uniform time grid plus
the across-node mean (the paper plots "aggregated values of all nodes")
and, for throughput metrics, the cluster total.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["Metric", "MetricFrame", "RESOURCE_PANELS", "PERCENT_METRICS",
           "validate_frame"]

MiB = float(2**20)


class Metric(enum.Enum):
    """The monitored quantities, named as in the figures."""

    CPU_PERCENT = "cpu_percent"
    MEMORY_PERCENT = "memory_percent"
    DISK_UTIL_PERCENT = "disk_util_percent"
    DISK_IO_MIBS = "disk_io_mibs"
    NETWORK_MIBS = "network_mibs"
    #: Healthy-capacity fraction under fault injection (100 = healthy;
    #: not one of the paper's panels, so not in RESOURCE_PANELS).
    CAPACITY_PERCENT = "capacity_percent"


#: The standard panel order of the paper's figures.
RESOURCE_PANELS: List[Metric] = [
    Metric.CPU_PERCENT,
    Metric.MEMORY_PERCENT,
    Metric.DISK_UTIL_PERCENT,
    Metric.DISK_IO_MIBS,
    Metric.NETWORK_MIBS,
]


@dataclass
class MetricFrame:
    """One metric resampled on a uniform grid over one run window."""

    metric: Metric
    times: List[float]
    #: Across-node mean per bucket (what the paper plots).
    mean: List[float]
    #: Cluster-wide sum per bucket (meaningful for throughput metrics).
    total: List[float]
    num_nodes: int = 1

    def __post_init__(self) -> None:
        if len(self.times) != len(self.mean) or len(self.mean) != len(self.total):
            raise ValueError("times/mean/total must align")

    def peak(self) -> float:
        return max(self.mean, default=0.0)

    def average(self) -> float:
        if not self.mean:
            return 0.0
        return float(np.mean(self.mean))

    def percentile(self, q: float) -> float:
        """q-th percentile of the across-node mean samples."""
        if not self.mean:
            return math.nan
        return float(np.percentile(self.mean, q))

    def summary(self) -> Dict[str, float]:
        """Compact statistics for reports: mean / p50 / p95 / peak."""
        return {
            "mean": self.average(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "peak": self.peak(),
        }

    def average_between(self, start: float, end: float) -> float:
        """Mean of the buckets whose left edge falls in [start, end)."""
        vals = self.values_between(start, end)
        if not vals:
            return 0.0
        return float(np.mean(vals))

    def values_between(self, start: float, end: float) -> List[float]:
        """Mean-panel samples whose left edge falls in [start, end).

        The grid is monotone by construction, so the window is located
        with two bisects instead of scanning every bucket — identical
        selection to the old full zip-scan (``start <= t < end``), O(log
        n + window) instead of O(n).
        """
        times = self.times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end, lo)
        return list(self.mean[lo:hi])

    def is_bound(self, threshold: float = 60.0, start: float = -math.inf,
                 end: float = math.inf) -> bool:
        """True when the metric's mean exceeds ``threshold`` over the
        window — the paper's "CPU and disk-bound" style statements."""
        return self.average_between(max(start, self.times[0] if self.times else 0.0),
                                    min(end, math.inf)) >= threshold


#: Panels expressed as a percentage (bounded by 100 per node).
PERCENT_METRICS = frozenset({
    Metric.CPU_PERCENT,
    Metric.MEMORY_PERCENT,
    Metric.DISK_UTIL_PERCENT,
    Metric.CAPACITY_PERCENT,
})


def validate_frame(frame: MetricFrame, tolerance: float = 1e-6) -> List[str]:
    """Check physical bounds on one resampled panel.

    Every panel must be non-negative; percentage panels must keep their
    across-node mean at or below 100 and their cluster total at or below
    ``100 * num_nodes``.  Returns violation strings (empty when clean).
    """
    problems: List[str] = []
    name = frame.metric.value
    neg = next((v for v in frame.mean if v < -tolerance), None)
    if neg is not None:
        problems.append(f"{name}: negative mean sample {neg}")
    neg_total = next((v for v in frame.total if v < -tolerance), None)
    if neg_total is not None:
        problems.append(f"{name}: negative total sample {neg_total}")
    if frame.metric in PERCENT_METRICS:
        slack = 100.0 * tolerance + tolerance
        high = next((v for v in frame.mean if v > 100.0 + slack), None)
        if high is not None:
            problems.append(f"{name}: mean sample {high} > 100%")
        cap = 100.0 * frame.num_nodes
        high_total = next((v for v in frame.total if v > cap + cap * tolerance),
                          None)
        if high_total is not None:
            problems.append(
                f"{name}: total sample {high_total} > {cap} "
                f"({frame.num_nodes} nodes)")
    return problems


def anti_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation between two equal-length panels.

    Used to verify the paper's "anti-cyclic disk utilisation
    (correlated to the CPU usage: the CPU increases to 100% while the
    disk goes down to 0%)" observation: a negative value means the two
    resources alternate.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) != len(y):
        raise ValueError("panels must have equal length")
    if len(x) < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])

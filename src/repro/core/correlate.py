"""The paper's methodology: correlate operator plans with resource usage.

"We introduce a methodology to understand performance in Big Data
analytics frameworks by correlating the operators execution plan with
the resource utilization and the parameter configuration."  This module
is that methodology as a library:

* :class:`CorrelatedRun` joins one engine run's operator spans with the
  cluster's metric frames over the run window;
* :meth:`CorrelatedRun.span_profile` attributes resource usage to each
  operator span (the side-by-side panels of Figs. 3/6/9/10/16/17);
* :meth:`CorrelatedRun.bottleneck` classifies what a window was bound
  by, reproducing statements like "for this workload both Flink and
  Spark are CPU and disk-bound";
* :func:`detect_anti_cyclic` checks Flink's sort-based-combiner
  signature: CPU and disk alternating out of phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster.topology import Cluster
from ..engines.common.execution import OperatorSpan
from ..engines.common.result import EngineRunResult
from ..monitoring.collector import ClusterMonitor
from ..monitoring.metrics import Metric, MetricFrame, anti_correlation

__all__ = ["SpanProfile", "CorrelatedRun", "correlate", "detect_anti_cyclic"]

#: Utilisation (percent) above which a resource counts as "bound".
BOUND_THRESHOLD = 55.0
#: Throughput (MiB/s per node) above which disk/network count as busy.
THROUGHPUT_THRESHOLD = 60.0


@dataclass
class SpanProfile:
    """Resource usage attributed to one operator span."""

    span: OperatorSpan
    cpu_percent: float
    memory_percent: float
    disk_util_percent: float
    disk_io_mibs: float
    network_mibs: float

    def dominant_resources(self) -> List[str]:
        out = []
        if self.cpu_percent >= BOUND_THRESHOLD:
            out.append("cpu")
        if self.disk_util_percent >= BOUND_THRESHOLD or \
                self.disk_io_mibs >= THROUGHPUT_THRESHOLD:
            out.append("disk")
        if self.network_mibs >= THROUGHPUT_THRESHOLD:
            out.append("network")
        return out or ["idle"]


@dataclass
class CorrelatedRun:
    """One engine execution joined with its resource traces."""

    result: EngineRunResult
    frames: Dict[Metric, MetricFrame]
    step: float = 1.0
    #: Optional :class:`~repro.harness.runner.TracedRun` set by
    #: ``run_correlated(..., collect_spans=True)``: the span tree,
    #: critical path and per-span attribution of this execution.
    trace: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[OperatorSpan]:
        return self.result.spans

    def frame(self, metric: Metric) -> MetricFrame:
        return self.frames[metric]

    def span_profile(self, span: OperatorSpan) -> SpanProfile:
        """Mean resource usage inside one span's window."""
        start, end = span.start, max(span.end, span.start + self.step)
        return SpanProfile(
            span=span,
            cpu_percent=self.frames[Metric.CPU_PERCENT]
            .average_between(start, end),
            memory_percent=self.frames[Metric.MEMORY_PERCENT]
            .average_between(start, end),
            disk_util_percent=self.frames[Metric.DISK_UTIL_PERCENT]
            .average_between(start, end),
            disk_io_mibs=self.frames[Metric.DISK_IO_MIBS]
            .average_between(start, end),
            network_mibs=self.frames[Metric.NETWORK_MIBS]
            .average_between(start, end),
        )

    def profiles(self) -> List[SpanProfile]:
        return [self.span_profile(s) for s in self.spans]

    # ------------------------------------------------------------------
    def bottleneck(self, start: Optional[float] = None,
                   end: Optional[float] = None,
                   threshold: float = BOUND_THRESHOLD) -> List[str]:
        """Which resources bound the given window (default: whole run).

        ``threshold`` is the mean utilisation (percent) above which a
        resource counts as binding; scan-limited stages (fewer input
        splits than cores) justify a lower threshold.
        """
        start = self.result.start if start is None else start
        end = self.result.end if end is None else end
        cpu = self.frames[Metric.CPU_PERCENT].average_between(start, end)
        disk = self.frames[Metric.DISK_UTIL_PERCENT].average_between(start, end)
        io = self.frames[Metric.DISK_IO_MIBS].average_between(start, end)
        net = self.frames[Metric.NETWORK_MIBS].average_between(start, end)
        out = []
        if cpu >= threshold:
            out.append("cpu")
        if disk >= threshold or io >= THROUGHPUT_THRESHOLD:
            out.append("disk")
        if net >= THROUGHPUT_THRESHOLD:
            out.append("network")
        return out or ["idle"]


def correlate(cluster: Cluster, result: EngineRunResult,
              step: float = 1.0) -> CorrelatedRun:
    """Join a finished run with its cluster's resource traces."""
    if result.end <= result.start:
        raise ValueError("run window is empty; did the run execute?")
    monitor = ClusterMonitor(cluster)
    frames = monitor.snapshot(result.start, result.end, step)
    return CorrelatedRun(result=result, frames=frames, step=step)


def detect_anti_cyclic(cpu: Sequence[float], disk: Sequence[float],
                       threshold: float = -0.1) -> bool:
    """True when CPU and disk alternate (sort-based combiner signature).

    The paper: "we notice an anti-cyclic disk utilization (i.e.
    correlated to the CPU usage: the CPU increases to 100% while the
    disk goes down to 0%), which is explained by the use of a
    sort-based combiner".
    """
    n = min(len(cpu), len(disk))
    if n < 4:
        return False
    return anti_correlation(list(cpu)[:n], list(disk)[:n]) <= threshold

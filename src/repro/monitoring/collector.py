"""Resource-usage collection from a simulated cluster.

The paper's monitoring agents sample each node's CPU, memory, disk and
network and the authors then "plot the mean ... for aggregated values
of all nodes".  :class:`ClusterMonitor` performs the same step on the
simulator's exact step-series traces: it resamples every node's
resource series onto a uniform grid and aggregates across nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..cluster.node import Node
from ..cluster.topology import Cluster
from ..cluster.trace import StepSeries
from .metrics import RESOURCE_PANELS, Metric, MetricFrame

__all__ = ["ClusterMonitor"]

MiB = float(2**20)


class ClusterMonitor:
    """Reads back the traces a cluster accumulated during execution."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    def _node_series(self, node: Node, metric: Metric) -> List[StepSeries]:
        if metric is Metric.CPU_PERCENT:
            return [node.cpu.utilisation]
        if metric is Metric.MEMORY_PERCENT:
            return [node.memory.occupancy_series_percent()]
        if metric is Metric.DISK_UTIL_PERCENT:
            return [node.disk.utilisation]
        if metric is Metric.DISK_IO_MIBS:
            return [node.disk.throughput]
        if metric is Metric.NETWORK_MIBS:
            return [node.nic_in.throughput, node.nic_out.throughput]
        if metric is Metric.CAPACITY_PERCENT:
            return [self._capacity_series(node)]
        raise ValueError(f"unknown metric {metric!r}")

    def _capacity_series(self, node: Node) -> StepSeries:
        """The node's health under fault injection: 100 x the minimum
        capacity fraction across its resources (constant 100 for a node
        no fault ever touched, or without fault injection at all)."""
        series = StepSeries(initial=100.0)
        state = getattr(self.cluster, "fault_state", None)
        if state is None:
            return series
        traces = [tr for (ni, _res), tr in state.capacity_traces.items()
                  if ni == node.index]
        if not traces:
            return series
        times = sorted({t for tr in traces for t, _ in tr})
        for t in times:
            series.append(t, 100.0 * min(tr.value_at(t) for tr in traces))
        return series

    @staticmethod
    def _scale(metric: Metric) -> float:
        if metric in (Metric.DISK_IO_MIBS, Metric.NETWORK_MIBS):
            return 1.0 / MiB
        return 1.0

    # ------------------------------------------------------------------
    def frame(self, metric: Metric, start: float, end: float,
              step: float = 1.0) -> MetricFrame:
        """One metric over [start, end] at ``step``-second resolution."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        scale = self._scale(metric)
        grid: Optional[np.ndarray] = None
        acc: Optional[np.ndarray] = None
        n = 0
        # Accumulate across nodes with elementwise numpy adds *in node
        # order* — the same scalar additions the old per-bucket
        # ``sum()`` generator performed (sequential, starting from
        # zero), so the aggregated panels are bit-identical while the
        # per-bucket Python overhead drops to one vector op per node.
        # No numpy reductions (pairwise summation would reorder the
        # additions) are used.
        for node in self.cluster.nodes:
            series = self._node_series(node, metric)
            node_total: Optional[np.ndarray] = None
            for s in series:
                times, means = s.sample(start, end, step)
                if grid is None:
                    grid = times
                    acc = np.zeros(len(grid))
                vals = means * scale
                node_total = vals if node_total is None else node_total + vals
            n += 1
            if node_total is not None:
                acc += node_total
        assert grid is not None and acc is not None
        return MetricFrame(metric=metric, times=grid.tolist(),
                           mean=(acc / n).tolist(), total=acc.tolist(),
                           num_nodes=n)

    def snapshot(self, start: float, end: float, step: float = 1.0
                 ) -> Dict[Metric, MetricFrame]:
        """All five paper panels over one run window — plus the
        capacity panel when the cluster ran under fault injection."""
        metrics = list(RESOURCE_PANELS)
        if getattr(self.cluster, "fault_state", None) is not None:
            metrics.append(Metric.CAPACITY_PERCENT)
        return {m: self.frame(m, start, end, step) for m in metrics}

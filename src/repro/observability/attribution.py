"""Per-span resource attribution: "what was I bottlenecked on?".

Each span window is joined with the fluid scheduler's capacity traces
(:class:`~repro.cluster.trace.StepSeries`) on the node(s) the span ran
on: time-weighted mean CPU utilisation, disk utilisation and
throughput, NIC throughput (both directions) and memory occupancy over
``[span.start, span.end]``.  From those means the span's *dominant
resources* are classified with the same thresholds
:mod:`repro.core.correlate` uses for whole-run bottleneck statements,
so a stage-level attribution ("Page Rank's shuffle superstep is
network-bound") reads on the same scale as the paper-facing panels.

Unlike :class:`~repro.core.correlate.CorrelatedRun`, which resamples
monitoring frames onto a uniform grid cluster-wide, attribution reads
the exact step functions and restricts them to the span's own nodes —
a task span on a straggler is profiled against that straggler only.

Requires the scheduler's ``trace_detail="full"`` (a run with a tracer
attached always records); with gated traces the series are empty and
the means read 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.topology import Cluster
from ..core.correlate import BOUND_THRESHOLD, THROUGHPUT_THRESHOLD
from .spans import Span, SpanTree

__all__ = ["SpanAttribution", "attribute_spans", "attribute_span"]

_MiB = 2**20

#: Attribution resources, in report order.
RESOURCES = ("cpu", "disk", "network", "memory")


@dataclass
class SpanAttribution:
    """Mean resource usage inside one span's window, on its nodes."""

    span_id: int
    nodes: List[int]
    cpu_percent: float
    disk_util_percent: float
    disk_io_mibs: float
    network_mibs: float
    memory_percent: float

    def dominant_resources(self) -> List[str]:
        """Resources binding this span (thresholds as in
        :mod:`repro.core.correlate`); ``["idle"]`` when none are."""
        out = []
        if self.cpu_percent >= BOUND_THRESHOLD:
            out.append("cpu")
        if self.disk_util_percent >= BOUND_THRESHOLD or \
                self.disk_io_mibs >= THROUGHPUT_THRESHOLD:
            out.append("disk")
        if self.network_mibs >= THROUGHPUT_THRESHOLD:
            out.append("network")
        return out or ["idle"]

    def to_payload(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "nodes": list(self.nodes),
            "cpu_percent": self.cpu_percent,
            "disk_util_percent": self.disk_util_percent,
            "disk_io_mibs": self.disk_io_mibs,
            "network_mibs": self.network_mibs,
            "memory_percent": self.memory_percent,
            "dominant": self.dominant_resources(),
        }


def attribute_span(cluster: Cluster, tree: SpanTree,
                   span: Span) -> SpanAttribution:
    """Profile one span against the capacity traces of its nodes.

    The node set is the union of task nodes at or under the span; a
    span with no task descendants (e.g. a driver-gap span) is profiled
    cluster-wide, matching how the paper's panels aggregate.
    """
    nodes = tree.nodes_under(span)
    if not nodes:
        nodes = list(range(cluster.num_nodes))
    start, end = span.start, span.end
    if end <= start:
        return SpanAttribution(span_id=span.id, nodes=nodes,
                               cpu_percent=0.0, disk_util_percent=0.0,
                               disk_io_mibs=0.0, network_mibs=0.0,
                               memory_percent=0.0)
    n = len(nodes)
    cpu = disk_util = disk_io = net = mem = 0.0
    for ni in nodes:
        node = cluster.node(ni)
        cpu += node.cpu.utilisation.mean(start, end)
        disk_util += node.disk.utilisation.mean(start, end)
        disk_io += node.disk.throughput.mean(start, end)
        net += (node.nic_in.throughput.mean(start, end) +
                node.nic_out.throughput.mean(start, end))
        mem += node.memory.occupancy_series_percent().mean(start, end)
    return SpanAttribution(
        span_id=span.id, nodes=nodes,
        cpu_percent=cpu / n,
        disk_util_percent=disk_util / n,
        disk_io_mibs=disk_io / n / _MiB,
        network_mibs=net / n / _MiB,
        memory_percent=mem / n,
    )


def attribute_spans(cluster: Cluster, tree: SpanTree,
                    kinds: Optional[List[str]] = None,
                    ) -> Dict[int, SpanAttribution]:
    """Attribute every span (or only the given kinds) of a tree.

    Memory occupancy series are rebuilt per node once and the per-node
    loop is in :func:`attribute_span`; for the span counts a run
    produces (tens to low hundreds) this stays well under a
    millisecond of real time per run.
    """
    out: Dict[int, SpanAttribution] = {}
    for span in tree:
        if kinds is not None and span.kind not in kinds:
            continue
        out[span.id] = attribute_span(cluster, tree, span)
    return out

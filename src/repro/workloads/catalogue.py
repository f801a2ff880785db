"""The paper-scale workload catalogue: what runs at a given scale.

:data:`WORKLOADS` names the six workloads.  :func:`build_config`
returns the paper's preset for a workload at a cluster size, and
:func:`build_workload` the workload itself, sized as the paper sized
it for that many nodes.  The CLI and the capacity planner
(:mod:`repro.serve.planner`) both take their workload names from
here and build their runs here.
"""

from __future__ import annotations

from typing import Optional

from ..config.presets import (ExperimentConfig, kmeans_preset,
                              small_graph_preset, terasort_preset,
                              wordcount_grep_preset)
from .base import Workload
from .connected_components import ConnectedComponents
from .datagen.graphs import LARGE_GRAPH, MEDIUM_GRAPH, SMALL_GRAPH
from .grep import Grep
from .kmeans import KMeans
from .pagerank import PageRank
from .terasort import TeraSort
from .wordcount import WordCount

__all__ = ["WORKLOADS", "build_config", "build_workload"]

GiB = float(2**30)

#: Every workload name the builders below accept.
WORKLOADS = ("wordcount", "grep", "terasort", "kmeans", "pagerank",
             "connected-components")


def build_config(workload: str, nodes: int) -> ExperimentConfig:
    """The paper's preset for a workload at a scale."""
    if workload in ("wordcount", "grep"):
        return wordcount_grep_preset(nodes)
    if workload == "terasort":
        return terasort_preset(nodes)
    if workload == "kmeans":
        return kmeans_preset(nodes)
    if workload in ("pagerank", "connected-components"):
        return small_graph_preset(nodes)
    raise ValueError(f"unknown workload {workload!r}")


def build_workload(name: str, nodes: int, graph: str = "small",
                   iterations: Optional[int] = None,
                   data_scale: float = 1.0) -> Workload:
    """Instantiate a workload at its paper scale for ``nodes``.

    ``data_scale`` shrinks the byte-sized workloads (wordcount, grep,
    terasort, kmeans); a graph workload's size is its graph.
    """
    cfg = build_config(name, nodes)
    graphs = {"small": SMALL_GRAPH, "medium": MEDIUM_GRAPH,
              "large": LARGE_GRAPH}
    if name == "wordcount":
        return WordCount(nodes * 24 * GiB * data_scale)
    if name == "grep":
        return Grep(nodes * 24 * GiB * data_scale)
    if name == "terasort":
        return TeraSort(nodes * 32 * GiB * data_scale,
                        num_partitions=cfg.flink.default_parallelism)
    if name == "kmeans":
        return KMeans(51 * GiB * data_scale, iterations=iterations or 10)
    if name == "pagerank":
        return PageRank(graphs[graph], iterations=iterations or 20,
                        edge_partitions=cfg.spark.edge_partitions)
    if name == "connected-components":
        return ConnectedComponents(graphs[graph],
                                   iterations=iterations or 23,
                                   edge_partitions=cfg.spark.edge_partitions)
    raise ValueError(f"unknown workload {name!r}")

"""Spark's static memory manager and block-manager cache model.

Spark 1.5 divides each executor heap statically:
``spark.storage.memoryFraction`` for cached RDD blocks,
``spark.shuffle.memoryFraction`` for shuffle buffers, and the remainder
for task execution (user objects).  The paper's §VIII observes that
Spark "requires that (significant) parts of the data be on the JVM's
heap for several operations; if the size of the heap is not sufficient,
the job dies" — modelled here by :meth:`SparkMemoryModel.check_task_working_set`
— and that heaps crowded with objects suffer garbage-collection
overhead — modelled by :meth:`gc_cpu_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...config.parameters import SparkConfig
from ..common.costs import CostModel
from ..common.execution import JobFailedError

__all__ = ["SparkMemoryModel", "CachedRdd"]


@dataclass
class CachedRdd:
    """One persisted RDD in the block manager (deserialised, on-heap)."""

    name: str
    logical_bytes: float
    heap_bytes: float
    storage_level: str = "MEMORY_ONLY"
    #: CPU rate (bytes/s/core) of the transformation that produced the
    #: RDD — what a MEMORY_ONLY cache miss must re-pay.
    recompute_rate: float = 0.0
    #: What the caller asked to persist (per node, logical bytes).
    requested_logical_bytes: float = 0.0

    @property
    def hit_fraction(self) -> float:
        if self.requested_logical_bytes <= 0:
            return 1.0
        return min(1.0, self.logical_bytes / self.requested_logical_bytes)


class SparkMemoryModel:
    """Per-node view of one executor's heap.

    When constructed with a cluster, heap state (cached blocks,
    iteration residue) is also charged to the simulated nodes' RAM so
    the Memory% panels of the resource figures show it.
    """

    def __init__(self, config: SparkConfig, costs: CostModel,
                 num_nodes: int, cluster=None) -> None:
        self.config = config
        self.costs = costs
        self.num_nodes = num_nodes
        self.cluster = cluster
        self.cached: Dict[str, CachedRdd] = {}
        #: Extra heap-resident state accumulated by iterations (GraphX
        #: lineage of intermediate ranks): grows superstep by superstep.
        self.iteration_residue_bytes = 0.0

    def _charge_nodes(self, bytes_per_node: float) -> None:
        if self.cluster is None or bytes_per_node <= 0:
            return
        for node in self.cluster.nodes:
            node.memory.try_reserve(bytes_per_node)

    # ------------------------------------------------------------------
    # caching (rdd.persist())
    # ------------------------------------------------------------------
    def cache_rdd(self, name: str, cluster_logical_bytes: float,
                  storage_level: str = "MEMORY_ONLY",
                  recompute_rate: float = 0.0) -> CachedRdd:
        """Persist an RDD: deserialised objects on the storage heap.

        If it does not fit in the storage fraction, the overflow is
        simply not kept in memory: MEMORY_ONLY evicts (a later miss
        recomputes), MEMORY_AND_DISK spills (a later miss re-reads) —
        callers query :meth:`cached_fraction` and :meth:`miss_costs`.
        """
        if storage_level not in ("MEMORY_ONLY", "MEMORY_AND_DISK"):
            raise ValueError(f"unknown storage level {storage_level!r}")
        per_node_logical = cluster_logical_bytes / self.num_nodes
        heap = per_node_logical * self.costs.java_object_expansion
        fit = min(heap, max(0.0, self.storage_free))
        rdd = CachedRdd(name=name,
                        logical_bytes=per_node_logical * fit / heap if heap else 0.0,
                        heap_bytes=fit, storage_level=storage_level,
                        recompute_rate=recompute_rate,
                        requested_logical_bytes=per_node_logical)
        self.cached[name] = rdd
        self._charge_nodes(fit)
        return rdd

    def miss_bytes_per_iteration(self, name: str) -> float:
        """Cluster-wide logical bytes NOT held in memory: what every
        superstep must re-obtain (recompute or re-read)."""
        rdd = self.cached.get(name)
        if rdd is None:
            return 0.0
        missing_per_node = max(0.0, rdd.requested_logical_bytes -
                               rdd.logical_bytes)
        return missing_per_node * self.num_nodes

    def miss_costs(self, name: str, miss_bytes: float) -> Dict[str, float]:
        """Cluster-wide cost of serving ``miss_bytes`` of cache misses.

        MEMORY_ONLY recomputes the partition (CPU at the producing
        transformation's rate plus the source re-read);
        MEMORY_AND_DISK re-reads the spilled blocks from local disk.
        """
        rdd = self.cached.get(name)
        if rdd is None or miss_bytes <= 0:
            return {"cpu_core_seconds": 0.0, "disk_read_bytes": miss_bytes}
        if rdd.storage_level == "MEMORY_AND_DISK":
            return {"cpu_core_seconds": 0.0, "disk_read_bytes": miss_bytes}
        cpu = (miss_bytes / rdd.recompute_rate
               if rdd.recompute_rate > 0 else 0.0)
        return {"cpu_core_seconds": cpu, "disk_read_bytes": miss_bytes}

    def cached_fraction(self, name: str, cluster_logical_bytes: float) -> float:
        """Fraction of the RDD actually held in memory."""
        rdd = self.cached.get(name)
        if rdd is None or cluster_logical_bytes <= 0:
            return 0.0
        per_node = cluster_logical_bytes / self.num_nodes
        if per_node <= 0:
            return 1.0
        return min(1.0, rdd.logical_bytes / per_node)

    @property
    def storage_used(self) -> float:
        return sum(r.heap_bytes for r in self.cached.values())

    @property
    def storage_free(self) -> float:
        return self.config.storage_memory - self.storage_used

    # ------------------------------------------------------------------
    # execution memory / job-death checks
    # ------------------------------------------------------------------
    def task_execution_budget(self) -> float:
        """Heap bytes one concurrently-running task may use."""
        budget = (self.config.executor_memory *
                  self.costs.graphx_task_budget_fraction)
        return budget / self.config.executor_cores

    def check_task_working_set(self, partition_bytes: float,
                               context: str) -> None:
        """Die like a real executor if a task's objects overflow the heap."""
        working = partition_bytes * self.costs.java_object_expansion
        budget = self.task_execution_budget()
        if working > budget:
            raise JobFailedError(
                f"{context}: task working set "
                f"{working / 2**30:.1f} GiB exceeds per-task heap budget "
                f"{budget / 2**30:.1f} GiB "
                f"(java.lang.OutOfMemoryError: Java heap space); "
                f"increase partitions or executor memory")

    # ------------------------------------------------------------------
    # GC model
    # ------------------------------------------------------------------
    def heap_occupancy(self, stage_working_bytes_per_node: float) -> float:
        used = (self.storage_used + self.iteration_residue_bytes +
                stage_working_bytes_per_node)
        return used / self.config.executor_memory

    def gc_cpu_factor(self, stage_working_bytes_per_node: float) -> float:
        return self.costs.gc_factor(
            self.heap_occupancy(stage_working_bytes_per_node))

    def audit(self) -> list:
        """Return invariant-violation strings (empty when consistent).

        Checked: the storage pool never oversubscribes its configured
        fraction, cached blocks never claim more logical bytes than were
        requested, hit fractions stay in [0, 1], and iteration residue
        is non-negative.
        """
        problems = []
        tol = 1.0 + 1e-9
        if self.storage_used > self.config.storage_memory * tol:
            problems.append(
                f"spark storage pool: {self.storage_used} bytes cached > "
                f"storage fraction {self.config.storage_memory}")
        if self.iteration_residue_bytes < 0:
            problems.append(
                f"spark iteration residue negative: "
                f"{self.iteration_residue_bytes}")
        for name, rdd in self.cached.items():
            if rdd.heap_bytes < 0 or rdd.logical_bytes < 0:
                problems.append(f"cached rdd {name}: negative size")
            if rdd.requested_logical_bytes > 0 and \
                    rdd.logical_bytes > rdd.requested_logical_bytes * tol:
                problems.append(
                    f"cached rdd {name}: holds {rdd.logical_bytes} logical "
                    f"bytes > requested {rdd.requested_logical_bytes}")
            if not 0.0 <= rdd.hit_fraction <= 1.0:
                problems.append(
                    f"cached rdd {name}: hit fraction {rdd.hit_fraction} "
                    f"outside [0, 1]")
        return problems

    def add_iteration_residue(self, bytes_per_node: float) -> None:
        """GraphX keeps lineage of intermediate ranks across supersteps
        ("the memory increases from one iteration to another", §VI-E)."""
        self.iteration_residue_bytes += bytes_per_node
        self._charge_nodes(bytes_per_node *
                           self.costs.java_object_expansion)

    def clear_iteration_residue(self) -> None:
        self.iteration_residue_bytes = 0.0

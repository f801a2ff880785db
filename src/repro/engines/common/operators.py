"""Logical dataflow operator algebra shared by both engines.

Workloads are written once, as :class:`LogicalPlan` objects — linear
chains of :class:`Op` nodes (with nested plans for iterations and side
inputs for joins/broadcasts), mirroring how the paper describes each
benchmark as a sequence of operators (Table I).  Engines compile these
plans into physical execution (stages or pipelines) and the cost model
prices each operator from the :class:`~repro.engines.common.stats.DataStats`
flowing through it.

Every operator name appearing in the paper's Table I exists here, so
the ``tab01`` benchmark can reproduce the operator matrix verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .stats import DataStats

__all__ = ["OpKind", "Op", "LogicalPlan", "PlanValidationError"]


class PlanValidationError(ValueError):
    pass


class OpKind(enum.Enum):
    """Classification of logical operators.

    ``wide`` kinds repartition data by key and therefore imply a
    shuffle; ``action`` kinds return data to the driver.
    """

    SOURCE = "source"
    MAP = "map"
    FLAT_MAP = "flatMap"
    MAP_TO_PAIR = "mapToPair"
    MAP_PARTITIONS = "mapPartitions"
    FILTER = "filter"
    REDUCE_BY_KEY = "reduceByKey"
    GROUP_REDUCE = "groupReduce"          # Flink groupBy -> sum / reduce
    DISTINCT = "distinct"
    PARTITION = "partitionCustom"          # custom range/hash partitioning
    REPARTITION_SORT = "repartitionAndSortWithinPartitions"
    SORT_PARTITION = "sortPartition"
    COALESCE = "coalesce"
    JOIN = "join"
    CO_GROUP = "coGroup"
    COUNT = "count"
    COLLECT = "collect"
    COLLECT_AS_MAP = "collectAsMap"
    BROADCAST = "withBroadcastSet"
    BULK_ITERATION = "bulkIteration"
    DELTA_ITERATION = "deltaIteration"
    SINK = "sink"


#: Kinds whose input must be repartitioned across the cluster.
WIDE_KINDS = frozenset({
    OpKind.REDUCE_BY_KEY, OpKind.GROUP_REDUCE, OpKind.DISTINCT,
    OpKind.PARTITION, OpKind.REPARTITION_SORT, OpKind.JOIN,
    OpKind.CO_GROUP,
})

#: Kinds that terminate a job by returning data to the driver.
ACTION_KINDS = frozenset({
    OpKind.COUNT, OpKind.COLLECT, OpKind.COLLECT_AS_MAP,
})

#: Aggregating wide kinds that admit a map-side combiner.
COMBINABLE_KINDS = frozenset({
    OpKind.REDUCE_BY_KEY, OpKind.GROUP_REDUCE, OpKind.DISTINCT,
})


@dataclass
class Op:
    """One logical operator in a plan."""

    kind: OpKind
    name: str = ""
    #: records out / records in.
    selectivity: float = 1.0
    #: average record size out / in.
    bytes_ratio: float = 1.0
    #: Override of the cost model's per-core processing rate (bytes/s).
    cpu_rate: Optional[float] = None
    #: New distinct-key count introduced by this operator (0 = inherit).
    output_keys: float = 0.0
    #: Stats of a secondary input (joins, coGroups) or broadcast payload.
    side_input: Optional[DataStats] = None
    #: Nested plan executed repeatedly (iteration kinds only).
    body: Optional["LogicalPlan"] = None
    iterations: int = 0
    #: For delta iterations: fraction of the workset still active at
    #: iteration ``i`` (1-based).  Defaults to constant work (bulk).
    workset_activity: Optional[Callable[[int], float]] = None
    #: Spark only: persist this operator's output in the block manager
    #: (``rdd.cache()``); iterations then read it from memory.
    cached: bool = False
    #: Persistence level when ``cached``: MEMORY_ONLY evicted blocks are
    #: *recomputed* on a miss; MEMORY_AND_DISK blocks spill and are
    #: *re-read* — the "fine-grained control over the storage approach"
    #: the paper credits to Spark (§II-C).
    storage_level: str = "MEMORY_ONLY"
    #: Spark/GraphX only: the iteration materialises this operator's
    #: output to local disk each superstep (intermediate ranks).
    materialize_to_disk: bool = False
    #: Omit this operator from span labels (the paper's plan panels do
    #: not name every physical operator).
    hidden: bool = False
    #: Wide ops only: explicit partition count (GraphX edge partitions);
    #: engines otherwise use their configured default parallelism.
    partitions: Optional[int] = None
    #: Iteration-body heads only: whether this stage runs over the
    #: cached RDD's partitioning (GraphX triplet operations do; ops on
    #: derived message/rank RDDs repartition to default parallelism).
    use_cached_partitioning: bool = True
    #: Sinks only: HDFS replication of the written output (TeraSort
    #: conventionally writes replication 1); None = filesystem default.
    sink_replication: Optional[int] = None
    #: Records crossing this wide dependency are opaque binary blobs
    #: (TeraSort's OptimizedText / byte[]): generic serializers neither
    #: inflate nor burn CPU reflecting on them.
    binary_format: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.kind.value
        if not (0.0 <= self.selectivity):
            raise PlanValidationError(
                f"{self.name}: selectivity must be >= 0")
        if self.bytes_ratio <= 0:
            raise PlanValidationError(
                f"{self.name}: bytes_ratio must be positive")
        if self.kind in (OpKind.BULK_ITERATION, OpKind.DELTA_ITERATION):
            if self.body is None or self.iterations <= 0:
                raise PlanValidationError(
                    f"{self.name}: iteration operators need a body plan "
                    f"and a positive iteration count")
        elif self.body is not None:
            raise PlanValidationError(
                f"{self.name}: only iteration operators carry a body")

    @property
    def wide(self) -> bool:
        return self.kind in WIDE_KINDS

    @property
    def is_action(self) -> bool:
        return self.kind in ACTION_KINDS

    @property
    def is_iteration(self) -> bool:
        return self.kind in (OpKind.BULK_ITERATION, OpKind.DELTA_ITERATION)

    @property
    def combinable(self) -> bool:
        return self.kind in COMBINABLE_KINDS

    def apply_stats(self, stats: DataStats) -> DataStats:
        """Dataset statistics after this operator."""
        out = stats.scaled(self.selectivity, self.bytes_ratio)
        if self.output_keys:
            out = out.with_keys(self.output_keys)
        if self.kind in (OpKind.REDUCE_BY_KEY, OpKind.GROUP_REDUCE,
                         OpKind.DISTINCT):
            # Full aggregations emit one record per distinct key.
            out = out.combined_to_keys()
        if self.kind is OpKind.COUNT:
            out = DataStats(records=1.0, record_bytes=8.0)
        return out

    def __repr__(self) -> str:
        return f"Op({self.name})"


@dataclass
class LogicalPlan:
    """A linear chain of operators fed by one source dataset.

    The six paper workloads are linear modulo iterations (nested plans)
    and secondary inputs (attached per-operator), which keeps plan
    compilation simple without losing any of the paper's structure.
    """

    input_stats: DataStats
    ops: List[Op] = field(default_factory=list)
    name: str = "plan"
    #: Body plans (iteration steps) need no source/sink bracketing.
    body_plan: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.ops:
            raise PlanValidationError(f"{self.name}: plan has no operators")
        if self.body_plan:
            return
        if self.ops[0].kind is not OpKind.SOURCE:
            raise PlanValidationError(
                f"{self.name}: plans must start with a source")
        for op in self.ops[1:]:
            if op.kind is OpKind.SOURCE:
                raise PlanValidationError(
                    f"{self.name}: source must be the first operator")
        terminal = self.ops[-1]
        if not (terminal.kind is OpKind.SINK or terminal.is_action):
            raise PlanValidationError(
                f"{self.name}: plans must end with a sink or an action, "
                f"got {terminal.name}")
        for op in self.ops:
            if op.body is not None:
                op.body._validate_as_body()

    def _validate_as_body(self) -> None:
        if not self.ops:
            raise PlanValidationError(f"{self.name}: empty iteration body")

    # ------------------------------------------------------------------
    def stats_through(self) -> List[DataStats]:
        """Stats on every edge: entry ``i`` is the *input* of op ``i``.

        A final entry holds the plan's output stats.  Iteration bodies
        are priced per-superstep by the engines, not here.
        """
        edges = [self.input_stats]
        current = self.input_stats
        for op in self.ops:
            if op.kind is OpKind.SOURCE:
                edges.append(current)
                continue
            current = op.apply_stats(current)
            edges.append(current)
        return edges

    def __repr__(self) -> str:
        chain = " -> ".join(op.name for op in self.ops)
        return f"LogicalPlan({self.name}: {chain})"

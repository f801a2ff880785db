"""Plan analysis shared by both engine compilers.

Splits a :class:`~repro.engines.common.operators.LogicalPlan` into
*segments*: maximal chains of narrow operators.  A wide operator starts
a new segment (it executes on the receiving side of its shuffle), which
is precisely Spark's stage boundary; Flink keeps the same segments but
couples them with pipelined queues instead of barriers.

Also provides the statistics helpers the cost models share, e.g. the
expected number of distinct keys in a partition (which determines how
much a map-side combiner shrinks the data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .operators import LogicalPlan, Op, OpKind
from .stats import DataStats

__all__ = ["Segment", "split_segments", "expected_distinct",
           "combined_output", "chain_label", "chain_key"]


def chain_label(ops, extra_tail: Optional[str] = None) -> str:
    """Display label of an operator chain, skipping hidden ops."""
    names = [op.name for op in ops if not op.hidden and op.name]
    if extra_tail:
        names.append(extra_tail)
    return "->".join(names)


def chain_key(label: str) -> str:
    """Short figure key: initials of the chain parts (``DC``, ``SSW``)."""
    return "".join(p[0] for p in label.split("->") if p)


@dataclass
class Segment:
    """A maximal narrow chain; ``ops[0]`` may be the wide op that heads it."""

    ops: List[Op] = field(default_factory=list)
    #: Stats entering each op (parallel to ``ops``).
    in_stats: List[DataStats] = field(default_factory=list)
    #: Stats leaving the segment.
    out_stats: Optional[DataStats] = None
    #: The segment begins by reading a shuffle produced upstream.
    starts_with_shuffle: bool = False

    @property
    def head(self) -> Op:
        return self.ops[0]

    @property
    def input_stats(self) -> DataStats:
        return self.in_stats[0]

    def display_name(self) -> str:
        return "->".join(op.name for op in self.ops if not op.hidden)

    def __repr__(self) -> str:
        return f"Segment({self.display_name()})"


def split_segments(plan: LogicalPlan) -> List[Segment]:
    """Cut the plan at wide-operator boundaries.

    Iteration operators terminate the preceding segment and appear as a
    single-op segment of their own (engines expand their bodies
    recursively with engine-specific iteration semantics).
    """
    segments: List[Segment] = []
    current = Segment()
    stats = plan.input_stats
    for op in plan.ops:
        boundary = op.wide or op.is_iteration
        if boundary and current.ops:
            current.out_stats = stats
            segments.append(current)
            current = Segment(starts_with_shuffle=op.wide)
        elif op.wide and not current.ops:
            # A body plan may open directly with a wide op: the workset
            # still repartitions across the cluster every superstep.
            current.starts_with_shuffle = True
        current.ops.append(op)
        current.in_stats.append(stats)
        if op.kind is not OpKind.SOURCE:
            stats = op.apply_stats(stats)
        if op.is_iteration:
            current.out_stats = stats
            segments.append(current)
            current = Segment()
    if current.ops:
        current.out_stats = stats
        segments.append(current)
    return segments


def expected_distinct(records: float, keys: float) -> float:
    """Expected number of distinct keys among ``records`` uniform draws.

    Standard occupancy formula ``K * (1 - exp(-n/K))``.  Real text is
    Zipf-distributed, which only sharpens the collapse, so this is a
    conservative estimate of how well a combiner works.
    """
    if keys <= 0 or records <= 0:
        return 0.0
    if records / keys > 50:
        return keys
    return min(records, keys * -math.expm1(-records / keys))


def combined_output(stats: DataStats, partitions: int,
                    pair_bytes: float) -> DataStats:
    """Stats after a map-side combiner running in ``partitions`` pieces.

    Each map partition emits at most one record per distinct key *it
    saw*; across partitions duplicates remain (they are merged on the
    reduce side).
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    if stats.key_cardinality <= 0:
        return stats  # nothing known about keys: combiner can not shrink
    per_partition = stats.records / partitions
    distinct = expected_distinct(per_partition, stats.key_cardinality)
    total = min(stats.records, distinct * partitions)
    return DataStats(records=total, record_bytes=pair_bytes,
                     key_cardinality=stats.key_cardinality)

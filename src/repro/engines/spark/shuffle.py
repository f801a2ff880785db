"""Spark's tungsten-sort shuffle model.

The paper initialises ``spark.shuffle.manager`` to tungsten-sort ("a
memory efficient sort-based shuffle") with file consolidation enabled,
and Spark compresses map outputs — the reason Spark "uses less network"
than Flink in the Tera Sort experiment (Fig. 9).

:func:`plan_shuffle` turns the logical bytes crossing a wide dependency
into physical demands: on-wire bytes (after serializer inflation and
compression), serialise/compress CPU on the map side,
fetch/decompress/deserialise CPU on the reduce side, plus spill traffic
when a node's shuffle working set exceeds its shuffle memory fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...config.parameters import SparkConfig
from ..common.costs import CostModel
from ..common.serialization import serializer_profile
from ..common.stats import DataStats

__all__ = ["ShuffleSpec", "plan_shuffle"]


@dataclass(frozen=True)
class ShuffleSpec:
    """Physical footprint of one shuffle (cluster-wide totals)."""

    #: Bytes as stored in shuffle files / sent on the wire.
    wire_bytes: float
    #: Map-side CPU: serialisation + compression + sort buffer churn.
    write_cpu_core_seconds: float
    #: Reduce-side CPU: decompression + deserialisation.
    read_cpu_core_seconds: float
    #: Extra disk traffic from sort spills (written then re-read).
    spill_bytes: float


def plan_shuffle(data: DataStats, config: SparkConfig, costs: CostModel,
                 num_nodes: int, binary: bool = False) -> ShuffleSpec:
    """Price moving ``data`` through the shuffle machinery.

    ``binary`` marks opaque byte records (TeraSort's format): generic
    serializers copy them through with neither inflation nor
    reflection CPU.
    """
    profile = serializer_profile(config.serializer)
    logical = data.total_bytes
    if binary:
        serialized = logical * 1.02
        ser_rate = costs.serialization_rate
    else:
        serialized = logical * profile.bytes_factor
        ser_rate = costs.serialization_rate / profile.cpu_factor

    if config.shuffle_compress:
        wire = serialized * costs.spark_shuffle_compression_ratio
        compress_cpu = serialized / costs.compression_rate
        decompress_cpu = serialized / costs.compression_rate
    else:
        wire = serialized
        compress_cpu = 0.0
        decompress_cpu = 0.0

    write_cpu = logical / ser_rate + compress_cpu
    read_cpu = logical / ser_rate + decompress_cpu

    # Tungsten-sort keeps serialised records in the shuffle memory
    # fraction; overflow is spilled and merged.  Small buffer sizes
    # (spark.shuffle.file.buffer) amplify spill I/O slightly.
    per_node = serialized / num_nodes
    shuffle_mem = config.shuffle_memory
    spill_per_node = max(0.0, per_node - shuffle_mem)
    buffer_penalty = 1.0 + (32 * 1024 / max(config.shuffle_file_buffer,
                                            32 * 1024) - 1.0) * 0.1
    spill = spill_per_node * num_nodes * buffer_penalty

    return ShuffleSpec(wire_bytes=wire,
                       write_cpu_core_seconds=write_cpu,
                       read_cpu_core_seconds=read_cpu,
                       spill_bytes=spill)

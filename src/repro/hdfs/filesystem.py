"""The HDFS model: a block size, a replication factor and a write
pipeline.

The engines read exactly two things from HDFS.  The block size sets
how many input splits a scan has (``HDFS.block.size`` is 256 MB for
Word Count / Grep and 1024 MB for Tera Sort in the paper), and every
output write goes through the replication pipeline
(:meth:`HDFS.pipeline_requests`), which an engine chunk starts in its
own flow batch.  Input files are recorded by name and size only: the
paper excludes dataset import from measured time, and no engine reads
where a block's replicas live.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.fluid import Request
from ..cluster.topology import Cluster

__all__ = ["HDFS"]

MiB = 2**20


class HDFS:
    """A simulated HDFS deployment co-located with the compute cluster."""

    def __init__(self, cluster: Cluster, block_size: float = 256 * MiB,
                 replication: int = 3) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.cluster = cluster
        self.block_size = float(block_size)
        self.replication = min(replication, cluster.num_nodes)
        #: name -> size in bytes of every imported file.
        self.files: Dict[str, float] = {}

    def create_file(self, name: str, size: float) -> None:
        """Import a file; no simulated time passes (the paper imports
        its datasets before the measured runs)."""
        if name in self.files:
            raise ValueError(f"file exists: {name}")
        if size < 0:
            raise ValueError(f"file size must be >= 0, got {size}")
        self.files[name] = float(size)

    def pipeline_requests(self, writer_index: int, nbytes: float,
                          rate_cap: Optional[float] = None,
                          replication: Optional[int] = None
                          ) -> List[Request]:
        """The flows of one replicated write of ``nbytes`` from node
        ``writer_index``, as
        :meth:`~repro.cluster.fluid.FluidScheduler.transfer_many`
        requests: the local disk write, then for each further replica
        its NIC pair and its remote disk write.  HDFS pipelines block
        packets, so all of them run concurrently.

        Replicas go to the next nodes in ring order.  ``replication``
        overrides the filesystem default (e.g. TeraSort output at
        replication 1); either is capped at the cluster size.
        """
        nodes = self.cluster.nodes
        writer = nodes[writer_index]
        repl = self.replication if replication is None else max(1, replication)
        repl = min(repl, len(nodes))
        requests: List[Request] = [(nbytes, (writer.disk,), rate_cap)]
        for r in range(1, repl):
            target = nodes[(writer_index + r) % len(nodes)]
            requests.append((nbytes, (writer.nic_out, target.nic_in),
                             rate_cap))
            requests.append((nbytes, (target.disk,), rate_cap))
        return requests

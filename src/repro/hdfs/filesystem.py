"""The HDFS facade: datanode I/O on top of the cluster substrate.

:class:`HDFS` combines a :class:`~repro.hdfs.namenode.NameNode` with the
:class:`~repro.cluster.topology.Cluster` to provide the two data paths
the engines use:

* :meth:`read_block` — local replica → one disk flow; remote replica →
  remote disk + both NIC directions (the classic non-local HDFS read);
* :meth:`write_bytes` — write-pipeline: a local disk write plus
  ``replication - 1`` concurrent network transfers each ending in a
  remote disk write, started as one flow batch
  (:meth:`pipeline_requests` gives the same flows as requests, for an
  engine chunk to add to its own batch).

All methods return kernel events so engine processes can ``yield`` them.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster.fluid import Request
from ..cluster.simulation import Event
from ..cluster.topology import Cluster
from .blocks import Block, HdfsFile
from .namenode import NameNode

__all__ = ["HDFS"]

MiB = 2**20


class HDFS:
    """A simulated HDFS deployment co-located with the compute cluster."""

    def __init__(self, cluster: Cluster, block_size: float = 256 * MiB,
                 replication: int = 3, seed: int = 0) -> None:
        self.cluster = cluster
        self.namenode = NameNode(cluster.num_nodes, block_size=block_size,
                                 replication=replication, seed=seed)
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.remote_reads = 0
        self.local_reads = 0

    # ------------------------------------------------------------------
    # namespace passthrough
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> float:
        return self.namenode.block_size

    @property
    def replication(self) -> int:
        return self.namenode.replication

    def create_file(self, name: str, size: float) -> HdfsFile:
        f = self.namenode.create_file(name, size)
        stored = f.bytes_per_node(self.cluster.num_nodes).tolist()
        for node, nbytes in zip(self.cluster.nodes, stored):
            node.charge_disk_space(nbytes)
        return f

    def lookup(self, name: str) -> HdfsFile:
        return self.namenode.lookup(name)

    def delete(self, name: str) -> None:
        f = self.namenode.delete(name)
        stored = f.bytes_per_node(self.cluster.num_nodes).tolist()
        for node, nbytes in zip(self.cluster.nodes, stored):
            node.free_disk_space(nbytes)

    # ------------------------------------------------------------------
    # data paths
    # ------------------------------------------------------------------
    def read_block(self, reader_index: int, block: Block,
                   rate_cap: Optional[float] = None) -> Event:
        """Read one block from the nearest replica."""
        reader = self.cluster.node(reader_index)
        self.bytes_read += block.size
        if block.is_local_to(reader_index):
            self.local_reads += 1
            return self.cluster.disk_read(reader, block.size, rate_cap=rate_cap)
        self.remote_reads += 1
        owner = self.cluster.node(block.replicas[0])
        return self.cluster.remote_disk_read(reader, owner, block.size,
                                             rate_cap=rate_cap)

    def write_bytes(self, writer_index: int, nbytes: float,
                    rate_cap: Optional[float] = None,
                    replication: Optional[int] = None) -> Event:
        """Write ``nbytes`` through the HDFS replication pipeline.

        The local disk write and the replica transfers proceed
        concurrently (HDFS pipelines block packets); the returned event
        fires when every replica is durable.  ``replication`` overrides
        the filesystem default (e.g. TeraSort output at replication 1).
        """
        return self.cluster.fluid.transfer_many(self.pipeline_requests(
            writer_index, nbytes, rate_cap, replication))

    def pipeline_requests(self, writer_index: int, nbytes: float,
                          rate_cap: Optional[float] = None,
                          replication: Optional[int] = None
                          ) -> List[Request]:
        """The flows of one :meth:`write_bytes` pipeline, as
        :meth:`~repro.cluster.fluid.FluidScheduler.transfer_many`
        requests, with the write's bytes and disk space accounted.

        An engine chunk that writes to HDFS starts these in its own
        batch, so one event covers the chunk and its pipeline.
        """
        writer = self.cluster.node(writer_index)
        repl = self.replication if replication is None else max(1, replication)
        repl = min(repl, self.cluster.num_nodes)
        self.bytes_written += nbytes * repl
        writer.charge_disk_space(nbytes)
        requests: List[Request] = [(nbytes, (writer.disk,), rate_cap)]
        # Deterministic replica targets: next nodes in ring order.
        for r in range(1, repl):
            target_index = (writer_index + r) % self.cluster.num_nodes
            target = self.cluster.node(target_index)
            requests.append((nbytes, (writer.nic_out, target.nic_in),
                             rate_cap))
            target.charge_disk_space(nbytes)
            requests.append((nbytes, (target.disk,), rate_cap))
        return requests

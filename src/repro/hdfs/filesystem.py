"""The HDFS facade: datanode I/O on top of the cluster substrate.

:class:`HDFS` combines a :class:`~repro.hdfs.namenode.NameNode` with the
:class:`~repro.cluster.topology.Cluster` to provide the two data paths
the engines use:

* :meth:`read_block` — local replica → one disk flow; remote replica →
  remote disk + both NIC directions (the classic non-local HDFS read);
* :meth:`write_bytes` — write-pipeline: a local disk write plus
  ``replication - 1`` concurrent network transfers each ending in a
  remote disk write.

All methods return kernel events so engine processes can ``yield`` them.
"""

from __future__ import annotations

from typing import Optional

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

    def exists(self, name: str) -> bool:
        return self.namenode.exists(name)

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

    def read_bytes(self, reader_index: int, nbytes: float, local: bool = True,
                   owner_index: Optional[int] = None,
                   rate_cap: Optional[float] = None) -> Event:
        """Read a byte range without block bookkeeping (aggregate path)."""
        reader = self.cluster.node(reader_index)
        self.bytes_read += nbytes
        if local or owner_index is None or owner_index == reader_index:
            self.local_reads += 1
            return self.cluster.disk_read(reader, nbytes, rate_cap=rate_cap)
        self.remote_reads += 1
        owner = self.cluster.node(owner_index)
        return self.cluster.remote_disk_read(reader, owner, nbytes,
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
        writer = self.cluster.node(writer_index)
        repl = self.replication if replication is None else max(1, replication)
        repl = min(repl, self.cluster.num_nodes)
        self.bytes_written += nbytes * repl
        # The whole pipeline starts at one instant; the fluid scheduler
        # solves its flows, with every other flow of the instant, in one
        # pass before the clock moves on.
        transfer = self.cluster.fluid.transfer
        writer.charge_disk_space(nbytes)
        events = [transfer(nbytes, (writer.disk,), rate_cap)]
        # Deterministic replica targets: next nodes in ring order.
        for r in range(1, repl):
            target_index = (writer_index + r) % self.cluster.num_nodes
            target = self.cluster.node(target_index)
            if target is writer:
                continue
            events.append(transfer(nbytes, (writer.nic_out, target.nic_in),
                                   rate_cap))
            target.charge_disk_space(nbytes)
            events.append(transfer(nbytes, (target.disk,), rate_cap))
        return self.cluster.sim.all_of(events)

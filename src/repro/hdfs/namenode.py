"""Namenode: the HDFS namespace and block-placement policy.

Placement follows the HDFS default policy shape: the first replica goes
to a rotating "writer" node, the remaining replicas to distinct other
nodes chosen uniformly at random from a seeded RNG.  (The paper's
clusters sit in one Grid'5000 site, so there is no rack dimension.)

All of a file's blocks are placed in one vectorized draw: a column-wise
Floyd sample of ``replication - 1`` distinct non-primary nodes per block
(``rng.integers``), then a per-row shuffle (``rng.permuted``) so the
replica order is uniform too.  This is the same policy as drawing each
block separately with ``rng.choice(replace=False)``, but it consumes the
RNG differently, so a given seed yields different placements than that
per-block draw did.  No simulated output depends on them: the engines
read only the block size, never the replica locations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .blocks import Block, HdfsFile

__all__ = ["NameNode", "FileExistsInNamespaceError", "FileNotFoundInNamespaceError"]

MiB = 2**20


class FileExistsInNamespaceError(ValueError):
    pass


class FileNotFoundInNamespaceError(KeyError):
    pass


class NameNode:
    """Namespace + placement decisions for a simulated HDFS instance."""

    def __init__(self, num_nodes: int, block_size: float = 256 * MiB,
                 replication: int = 3, seed: int = 0) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.num_nodes = num_nodes
        self.block_size = float(block_size)
        self.replication = min(replication, num_nodes)
        self.files: Dict[str, HdfsFile] = {}
        self._rng = np.random.default_rng(seed)
        self._next_block_id = 0
        self._next_writer = 0

    # ------------------------------------------------------------------
    def create_file(self, name: str, size: float) -> HdfsFile:
        """Register a file and place its blocks; no simulated time passes.

        The paper excludes dataset import from measured execution time
        ("we import the analyzed dataset" before the runs), so creation
        is a pure metadata operation.
        """
        if name in self.files:
            raise FileExistsInNamespaceError(f"file exists: {name}")
        if size < 0:
            raise ValueError(f"file size must be >= 0, got {size}")
        full_blocks = int(size // self.block_size)
        tail = size - full_blocks * self.block_size
        sizes = np.full(full_blocks + (tail > 0), self.block_size)
        if tail > 0:
            sizes[-1] = tail
        f = HdfsFile(name=name, size=float(size), block_size=self.block_size,
                     sizes=sizes, replicas=self._place(len(sizes)),
                     first_block_id=self._next_block_id)
        self._next_block_id += len(sizes)
        self.files[name] = f
        return f

    def _place(self, count: int) -> np.ndarray:
        """Replica nodes for ``count`` new blocks, one row per block."""
        nodes = self.num_nodes
        primary = (self._next_writer + np.arange(count)) % nodes
        self._next_writer += count
        k = self.replication - 1
        # Floyd: column c draws from the first ``others - k + c + 1``
        # non-primary slots and takes the newest slot on a collision.
        others = nodes - 1
        picks = np.empty((count, k), dtype=np.int64)
        for c, j in enumerate(range(others - k, others)):
            draw = self._rng.integers(0, j + 1, size=count)
            taken = (picks[:, :c] == draw[:, None]).any(axis=1)
            picks[:, c] = np.where(taken, j, draw)
        picks = self._rng.permuted(picks, axis=1)
        # Slot s names node s, skipping over the row's primary.
        picks += picks >= primary[:, None]
        return np.column_stack((primary, picks))

    # ------------------------------------------------------------------
    def lookup(self, name: str) -> HdfsFile:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundInNamespaceError(name) from None

    def exists(self, name: str) -> bool:
        return name in self.files

    def delete(self, name: str) -> HdfsFile:
        return self.files.pop(name)

    def total_bytes(self) -> float:
        return sum(f.size for f in self.files.values())

    def bytes_stored_on(self, node_index: int) -> float:
        """Physical bytes (all replicas) stored on one datanode."""
        return sum(float(f.bytes_per_node(self.num_nodes)[node_index])
                   for f in self.files.values())

    def locality_map(self, name: str) -> Dict[int, List[Block]]:
        """node index -> blocks with a local replica, for task scheduling."""
        f = self.lookup(name)
        out: Dict[int, List[Block]] = {i: [] for i in range(self.num_nodes)}
        for block in f.blocks:
            for node in block.replicas:
                out[node].append(block)
        return out

    def assign_blocks_to_readers(self, name: str) -> List[Tuple[int, Block, bool]]:
        """Greedy locality-aware assignment of each block to a reader node.

        Returns ``(reader_node, block, is_local)`` triples balancing load
        across nodes, preferring nodes that hold a replica — the same
        goal as the Hadoop input-split scheduler.
        """
        f = self.lookup(name)
        load = [0] * self.num_nodes
        out: List[Tuple[int, Block, bool]] = []
        target = math.ceil(len(f.blocks) / self.num_nodes)
        for block in f.blocks:
            local_candidates = [n for n in block.replicas if load[n] < target]
            if local_candidates:
                reader = min(local_candidates, key=lambda n: load[n])
                is_local = True
            else:
                reader = min(range(self.num_nodes), key=lambda n: load[n])
                is_local = reader in block.replicas
            load[reader] += 1
            out.append((reader, block, is_local))
        return out

"""HDFS block and file metadata.

A file is a sequence of fixed-size blocks (the last one may be short);
each block has a list of replica locations (node indices).  Block size
is a first-class experiment parameter in the paper (``HDFS.block.size``
is 256 MB for Word Count / Grep and 1024 MB for Tera Sort).

A file stores its blocks as two arrays (``sizes`` and a
``(num_blocks, replication)`` ``replicas`` matrix): import places every
block of a file in one vectorized draw, and the engines only ever need
the block size.  The per-block :class:`Block` view is built on first
access of :attr:`HdfsFile.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Block", "HdfsFile"]


@dataclass(frozen=True)
class Block:
    """One HDFS block: ``replicas[0]`` is the primary location."""

    block_id: int
    size: float
    replicas: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"block size must be >= 0, got {self.size}")
        if not self.replicas:
            raise ValueError("block must have at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica nodes: {self.replicas}")

    def is_local_to(self, node_index: int) -> bool:
        return node_index in self.replicas


@dataclass(eq=False)
class HdfsFile:
    """Metadata for one file in the simulated HDFS namespace.

    ``sizes[i]`` is block ``i``'s size and ``replicas[i]`` its replica
    nodes, primary first; block ids run from ``first_block_id``.
    """

    name: str
    size: float
    block_size: float
    sizes: np.ndarray
    replicas: np.ndarray
    first_block_id: int
    _blocks: Optional[List[Block]] = field(default=None, init=False,
                                           repr=False)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def blocks(self) -> List[Block]:
        """The blocks as :class:`Block` records, built on first access."""
        if self._blocks is None:
            self._blocks = [
                Block(block_id=self.first_block_id + i, size=size,
                      replicas=tuple(nodes))
                for i, (size, nodes) in enumerate(
                    zip(self.sizes.tolist(), self.replicas.tolist()))]
        return self._blocks

    def bytes_per_node(self, num_nodes: int) -> np.ndarray:
        """Physical bytes (all replicas) this file stores on each node."""
        weights = np.repeat(self.sizes, self.replicas.shape[1])
        return np.bincount(self.replicas.ravel(), weights=weights,
                           minlength=num_nodes)

    def blocks_local_to(self, node_index: int) -> List[Block]:
        return [b for b in self.blocks if b.is_local_to(node_index)]

    def __repr__(self) -> str:
        return (f"HdfsFile({self.name!r}, {self.size / 2**30:.2f} GiB, "
                f"{self.num_blocks} blocks)")

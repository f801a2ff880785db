"""Cluster assembly: nodes + fluid scheduler + data-movement helpers.

:class:`Cluster` is the substrate every engine runs on.  It wires a
:class:`~repro.cluster.simulation.Simulation` kernel, a
:class:`~repro.cluster.fluid.FluidScheduler` and ``n`` identical
:class:`~repro.cluster.node.Node` objects, and exposes the three bulk
data movements the engines need:

* ``disk_read(node, bytes)``   — local sequential read;
* ``disk_write(node, bytes)``  — local sequential write;
* ``transfer(src, dst, bytes)``— a network flow crossing the source
  NIC-out and destination NIC-in (remote reads additionally cross the
  remote disk).

All return completion events, so engine processes simply ``yield`` them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .fluid import Capacity, FluidScheduler
from .node import GRID5000_PARAVANCE, HardwareSpec, Node
from .simulation import Event, Simulation

__all__ = ["Cluster"]


class Cluster:
    """A homogeneous cluster of simulated nodes."""

    def __init__(self, num_nodes: int,
                 spec: HardwareSpec = GRID5000_PARAVANCE,
                 seed: int = 0, trace_detail: str = "full") -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.sim = Simulation()
        self.fluid = FluidScheduler(self.sim, trace_detail=trace_detail)
        self.spec = spec
        self.nodes: List[Node] = [Node(self.sim, i, spec) for i in range(num_nodes)]
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: Set by :mod:`repro.faults` for fault-injected runs: a
        #: ``FaultState`` tracking node liveness, blacklists and degraded
        #: capacities.  ``None`` for ordinary (fault-free) deployments.
        self.fault_state = None
        #: Set by :mod:`repro.observability` for traced runs: a
        #: ``SpanTracer`` the engines and executor record their
        #: run/job/stage/operator/task windows into.  ``None`` (the
        #: default) keeps every hook site a single attribute check.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return self.spec.cores * self.num_nodes

    @property
    def now(self) -> float:
        return self.sim.now

    def node(self, index: int) -> Node:
        return self.nodes[index]

    # ------------------------------------------------------------------
    # bulk data movement
    # ------------------------------------------------------------------
    def disk_read(self, node: Node, nbytes: float,
                  rate_cap: Optional[float] = None) -> Event:
        """Sequential read of ``nbytes`` from the node's local disk."""
        return self.fluid.transfer(nbytes, [node.disk], rate_cap=rate_cap)

    def disk_write(self, node: Node, nbytes: float,
                   rate_cap: Optional[float] = None) -> Event:
        """Sequential write of ``nbytes`` to the node's local disk."""
        node.charge_disk_space(nbytes)
        return self.fluid.transfer(nbytes, [node.disk], rate_cap=rate_cap)

    def transfer(self, src: Node, dst: Node, nbytes: float,
                 rate_cap: Optional[float] = None) -> Event:
        """Move ``nbytes`` over the network from ``src`` to ``dst``.

        A same-node "transfer" is loopback and does not touch the NIC.
        """
        if src is dst:
            return self.fluid.transfer(0.0, [src.nic_out])
        return self.fluid.transfer(nbytes, [src.nic_out, dst.nic_in],
                                   rate_cap=rate_cap)

    def remote_disk_read(self, reader: Node, owner: Node, nbytes: float,
                         rate_cap: Optional[float] = None) -> Event:
        """Read ``nbytes`` stored on ``owner``'s disk from ``reader``.

        The flow crosses the remote disk and both NIC directions — the
        non-local HDFS read path.
        """
        if reader is owner:
            return self.disk_read(reader, nbytes, rate_cap=rate_cap)
        caps: Sequence[Capacity] = [owner.disk, owner.nic_out, reader.nic_in]
        return self.fluid.transfer(nbytes, caps, rate_cap=rate_cap)

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_process(self, generator) -> "Event":
        """Spawn the generator as a process, run to completion, return it.

        Fault-injected runs stop the event loop the moment the process
        completes: fault timers scheduled beyond the end of the job must
        not advance the clock (they stay pending on the heap and fire
        during the next job, if any).
        """
        proc = self.sim.process(generator)
        if self.fault_state is not None:
            self.sim.run(until_event=proc)
        else:
            self.sim.run()
        if not proc.triggered:
            raise RuntimeError("cluster simulation stalled before the "
                               "process completed (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc

    def __repr__(self) -> str:
        return f"Cluster({self.num_nodes} nodes x {self.spec.cores} cores)"

"""Simulated cluster nodes with the Grid'5000 hardware profile.

The paper's testbed (§V): each node has 2× Intel Xeon E5-2630 v3
(8 cores per CPU, 16 total), 128 GB RAM, a single 558 GB disk drive and
10 Gbps Ethernet.  :class:`HardwareSpec` captures those constants and
:class:`Node` instantiates the corresponding simulated resources:

* ``cpu``      — a fluid :class:`~repro.cluster.fluid.Capacity` in
  core-seconds per second (``spec.cores`` of them);
* ``disk``     — one :class:`~repro.cluster.fluid.Capacity` shared by
  reads and writes (it is a single spindle/device);
* ``nic_in`` / ``nic_out`` — full-duplex NIC directions;
* ``memory``   — the physical RAM :class:`MemoryAccount` from which the
  frameworks carve their heaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fluid import Capacity
from .memory import MemoryAccount
from .simulation import Simulation

__all__ = ["HardwareSpec", "GRID5000_PARAVANCE", "Node"]

MiB = 2**20
GiB = 2**30


@dataclass(frozen=True)
class HardwareSpec:
    """Static hardware description of one cluster node."""

    cores: int = 16
    memory_bytes: float = 128 * GiB
    disk_bytes: float = 558 * GiB
    # Sequential bandwidth of the single disk drive.  The paper's I/O
    # panels saturate around 120–150 MiB/s, consistent with one SATA
    # spindle.
    disk_read_bw: float = 150 * MiB
    disk_write_bw: float = 150 * MiB
    # 10 Gbps Ethernet, full duplex: 10e9 / 8 bytes per second per
    # direction (~1192 MiB/s), matching the network panels that peak
    # near 1200 MiB/s.
    nic_bw: float = 10e9 / 8
    # Seek thrash between concurrent sequential streams on the single
    # spindle (see Capacity.contention_alpha).
    disk_contention_alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        for attr in ("memory_bytes", "disk_bytes", "disk_read_bw",
                     "disk_write_bw", "nic_bw"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")


#: The Grid'5000 *paravance*-class profile used throughout the paper.
GRID5000_PARAVANCE = HardwareSpec()


class Node:
    """One simulated machine: cores, one disk, a duplex NIC, RAM."""

    def __init__(self, sim: Simulation, index: int,
                 spec: HardwareSpec = GRID5000_PARAVANCE) -> None:
        self.sim = sim
        self.index = index
        self.name = f"node-{index:03d}"
        self.spec = spec
        # The CPUs as a fluid capacity: bandwidth is core-seconds per
        # second.  Engine phases model their compute as flows on this
        # capacity (rate-capped by their task slots), which composes
        # naturally with max-min sharing and yields the CPU% traces.
        self.cpu = Capacity(f"{self.name}.cpu", float(spec.cores))
        # One physical device: reads and writes contend on the same
        # capacity, which is what creates Flink's pipelined read/write
        # I/O interference in the Tera Sort experiments.
        self.disk = Capacity(f"{self.name}.disk",
                             min(spec.disk_read_bw, spec.disk_write_bw),
                             contention_alpha=spec.disk_contention_alpha)
        self.nic_in = Capacity(f"{self.name}.nic.in", spec.nic_bw)
        self.nic_out = Capacity(f"{self.name}.nic.out", spec.nic_bw)
        self.memory = MemoryAccount(sim, f"{self.name}.ram", spec.memory_bytes)

    def capacity_for(self, resource: str) -> Capacity:
        """Map a resource kind (``cpu``/``disk``/``nic_in``/``nic_out``)
        to its :class:`~repro.cluster.fluid.Capacity` — the hook fault
        injection uses to rescale bandwidths by name."""
        caps = {"cpu": self.cpu, "disk": self.disk,
                "nic_in": self.nic_in, "nic_out": self.nic_out}
        try:
            return caps[resource]
        except KeyError:
            raise ValueError(
                f"unknown resource {resource!r}; one of {sorted(caps)}"
            ) from None

    def baseline_bandwidth(self, resource: str) -> float:
        """The undegraded bandwidth of a resource, from the hardware spec."""
        return {
            "cpu": float(self.spec.cores),
            "disk": min(self.spec.disk_read_bw, self.spec.disk_write_bw),
            "nic_in": self.spec.nic_bw,
            "nic_out": self.spec.nic_bw,
        }[resource]

    def slow_down(self, factor: float) -> None:
        """Turn this node into a straggler: CPU and disk deliver only
        ``1/factor`` of their bandwidth.  Call before running work (the
        fluid scheduler reads bandwidths when flows are (re)allocated).

        Stragglers are the classic failure mode of barriered execution
        (paper §VII's blocked-time discussion): a staged engine waits
        for the slow node at every barrier, a pipelined engine only at
        the end.
        """
        if factor < 1.0:
            raise ValueError("slow_down factor must be >= 1")
        self.cpu.bandwidth /= factor
        self.disk.bandwidth /= factor

    def __repr__(self) -> str:
        return f"Node({self.name})"

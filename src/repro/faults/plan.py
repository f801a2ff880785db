"""Deterministic fault-plan DSL.

A :class:`FaultPlan` is an immutable, validated list of fault events
with either absolute injection times (simulated seconds) or *relative*
times (fractions of a fault-free baseline duration, resolved by
:meth:`FaultPlan.resolve`).  Plans are pure data: the same plan plus the
same seed always produces the same simulated run, which is what the
same-seed digest-equality property tests pin down.

Event kinds map to the failure modes the fault-tolerance literature
(and the paper's §VIII remark on FLINK-2250) cares about:

* :class:`NodeCrash` — the node's JVMs die and all its local task
  output is lost; optionally the machine returns after
  ``restart_after`` seconds;
* :class:`DiskSlowdown` / :class:`NicSlowdown` — a straggler: the
  resource delivers ``1/factor`` of its bandwidth, permanently or for
  ``duration`` seconds;
* :class:`NetworkPartition` — both NIC directions drop to (almost)
  zero for ``duration`` seconds; in-flight transfers stall and resume,
  they are not killed;
* :class:`MemoryPressure` — an external allocation pins ``fraction``
  of the node's RAM for ``duration`` seconds; work that no longer fits
  dies with a (non-retryable) OOM, exactly like the paper's Table VII
  failures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FaultEvent", "NodeCrash", "DiskSlowdown", "NicSlowdown",
    "NetworkPartition", "MemoryPressure", "FaultPlan",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base: something bad happening to one node at one time."""

    kind: ClassVar[str] = "fault"

    at: float
    node: int

    def validate(self) -> None:
        if self.at < 0:
            raise ValueError(f"{self.kind}: injection time {self.at} < 0")
        if self.node < 0:
            raise ValueError(f"{self.kind}: node index {self.node} < 0")

    def payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    def describe(self) -> str:
        return f"t={self.at:.1f}s node {self.node}: {self.kind}"


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """The node's executor/taskmanager processes die.

    All in-flight and locally-stored task output on the node is lost
    (Spark recomputes it from lineage, Flink 0.10 restarts the job).
    ``restart_after=None`` means the machine never comes back;
    ``restart_after=0.0`` models a bare process kill — the work is
    lost but the machine rejoins immediately.
    """

    kind: ClassVar[str] = "node_crash"

    restart_after: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if self.restart_after is not None and self.restart_after < 0:
            raise ValueError(f"{self.kind}: restart_after < 0")


@dataclass(frozen=True)
class DiskSlowdown(FaultEvent):
    """The node's disk becomes a straggler at ``bandwidth / factor``."""

    kind: ClassVar[str] = "disk_slowdown"

    factor: float = 4.0
    duration: Optional[float] = None

    resources: ClassVar[Tuple[str, ...]] = ("disk",)

    def validate(self) -> None:
        super().validate()
        if self.factor < 1.0:
            raise ValueError(f"{self.kind}: factor must be >= 1")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"{self.kind}: duration must be > 0")


@dataclass(frozen=True)
class NicSlowdown(DiskSlowdown):
    """Both NIC directions degrade to ``bandwidth / factor``."""

    kind: ClassVar[str] = "nic_slowdown"

    resources: ClassVar[Tuple[str, ...]] = ("nic_in", "nic_out")


@dataclass(frozen=True)
class NetworkPartition(FaultEvent):
    """The node drops off the network for ``duration`` seconds.

    In-flight transfers crossing its NIC stall at (almost) zero rate
    and resume when the partition heals — transient-partition
    semantics, not a crash.
    """

    kind: ClassVar[str] = "network_partition"

    duration: float = 0.0

    def validate(self) -> None:
        super().validate()
        if self.duration <= 0:
            raise ValueError(f"{self.kind}: duration must be > 0 "
                             f"(a partition must heal; use NodeCrash for "
                             f"a permanent loss)")


@dataclass(frozen=True)
class MemoryPressure(FaultEvent):
    """An external process pins ``fraction`` of the node's RAM."""

    kind: ClassVar[str] = "memory_pressure"

    duration: float = 0.0
    fraction: float = 0.5

    def validate(self) -> None:
        super().validate()
        if self.duration <= 0:
            raise ValueError(f"{self.kind}: duration must be > 0")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"{self.kind}: fraction must be in (0, 1)")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events.

    ``relative=True`` means every event's ``at`` (and durations /
    restart delays) are *fractions of a baseline run's duration*;
    :meth:`resolve` converts them to absolute simulated seconds once
    the baseline is known.
    """

    events: Tuple[FaultEvent, ...] = ()
    relative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"not a FaultEvent: {ev!r}")
            ev.validate()
            if self.relative and ev.at >= 1.0:
                raise ValueError(
                    f"relative plan: event time {ev.at} must be a fraction "
                    f"in [0, 1) of the baseline duration")

    def validate_against(self, num_nodes: int) -> None:
        for ev in self.events:
            if ev.node >= num_nodes:
                raise ValueError(
                    f"{ev.kind} targets node {ev.node} but the cluster has "
                    f"only {num_nodes} nodes")

    # ------------------------------------------------------------------
    def resolve(self, baseline_duration: float) -> "FaultPlan":
        """Convert a relative plan into absolute simulated seconds."""
        if not self.relative:
            return self
        if baseline_duration <= 0:
            raise ValueError("baseline duration must be > 0")
        resolved = []
        for ev in self.events:
            kwargs = {f.name: getattr(ev, f.name) for f in fields(ev)}
            kwargs["at"] = ev.at * baseline_duration
            # Durations and restart delays scale with the baseline too,
            # so one relative plan transfers across workload sizes.
            for key in ("duration", "restart_after"):
                if key in kwargs and kwargs[key] is not None:
                    kwargs[key] = kwargs[key] * baseline_duration
            resolved.append(type(ev)(**kwargs))
        return FaultPlan(events=tuple(resolved), relative=False)

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        return {
            "relative": self.relative,
            "events": [ev.payload() for ev in
                       sorted(self.events, key=lambda e: (e.at, e.node,
                                                          e.kind))],
        }

    def digest(self) -> str:
        from ..validation.digest import digest_payload
        return digest_payload(self.payload())

    def describe(self) -> str:
        if not self.events:
            return "fault plan: (empty)"
        unit = "x baseline" if self.relative else "s"
        lines = [f"fault plan ({len(self.events)} event(s), times in {unit}):"]
        for ev in sorted(self.events, key=lambda e: (e.at, e.node, e.kind)):
            lines.append(f"  {ev.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def single_crash(fail_at_fraction: float, node: int = 0,
                     restart_after: Optional[float] = None) -> "FaultPlan":
        """One node crash at a fraction of the baseline duration — the
        scenario the analytic :func:`repro.harness.faults.
        run_with_failure` estimates."""
        if not 0.0 < fail_at_fraction < 1.0:
            raise ValueError("fail_at_fraction must be in (0, 1)")
        return FaultPlan(events=(
            NodeCrash(at=fail_at_fraction, node=node,
                      restart_after=restart_after),), relative=True)

    @staticmethod
    def random(seed: int, num_nodes: int, num_events: int = 3,
               kinds: Sequence[str] = ("node_crash", "disk_slowdown",
                                       "nic_slowdown", "network_partition"),
               ) -> "FaultPlan":
        """A seeded random relative plan (for property tests / sweeps)."""
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(num_events):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            at = float(rng.uniform(0.05, 0.9))
            node = int(rng.integers(0, num_nodes))
            if kind == "node_crash":
                events.append(NodeCrash(at=at, node=node))
            elif kind == "disk_slowdown":
                events.append(DiskSlowdown(
                    at=at, node=node, factor=float(rng.uniform(2.0, 8.0)),
                    duration=float(rng.uniform(0.05, 0.3))))
            elif kind == "nic_slowdown":
                events.append(NicSlowdown(
                    at=at, node=node, factor=float(rng.uniform(2.0, 8.0)),
                    duration=float(rng.uniform(0.05, 0.3))))
            elif kind == "network_partition":
                events.append(NetworkPartition(
                    at=at, node=node,
                    duration=float(rng.uniform(0.02, 0.1))))
            else:
                raise ValueError(f"unknown kind {kind!r}")
        return FaultPlan(events=tuple(events), relative=True)

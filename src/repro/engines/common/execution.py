"""Physical execution machinery shared by the Spark and Flink models.

Both engines ultimately run *phases* on the simulated cluster.  A phase
(:class:`PhaseSpec`) is a fused group of operators — e.g. Flink's
``DataSource->FlatMap->GroupCombine`` chain or Spark's
``FlatMap->MapToPair->ReduceByKey`` stage — with per-node resource
demands (:class:`PhaseResources`).  The executor runs each node's share
as a sequence of *chunks*; within a chunk the CPU, disk and network
demands proceed concurrently (record-at-a-time streaming), and chunks
flow downstream through bounded queues.

The two execution disciplines of the paper fall out of one mechanism:

* **staged** (Spark): a barrier after every phase — all chunks of phase
  *k* complete cluster-wide before phase *k+1* starts.  This produces
  the "very clear separation between stages" of Fig. 9 (right).
* **pipelined** (Flink): consecutive phases are connected by bounded
  chunk queues, so a downstream phase starts as soon as the first chunk
  arrives and back-pressure propagates when queues fill.  This produces
  the overlapping operator spans of Fig. 9 (left) — and the read/write
  interference on the single disk that explains Flink's variance.

The executor records an :class:`OperatorSpan` per phase (cluster-wide
first-start / last-end), which is exactly what the paper's
operator-plan panels plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...cluster.memory import OutOfMemoryError
from ...cluster.node import Node
from ...cluster.simulation import Event, Interrupt
from ...cluster.topology import Cluster
from ...hdfs.filesystem import HDFS

__all__ = [
    "PhaseResources", "PhaseSpec", "OperatorSpan", "JobResult",
    "JobFailedError", "JobFootprint", "TaskLostError", "PhaseExecutor",
    "ChunkQueue", "footprint_of", "uniform_resources",
]


@dataclass(frozen=True)
class JobFootprint:
    """A finished run reduced to its schedulable shape.

    The cluster scheduler (:mod:`repro.scheduler`) treats a whole
    engine run as one schedulable unit: a job that wants ``width``
    nodes and needs ``service_seconds`` of execution on them.  The
    footprint is measured by actually running the job alone via the
    legacy :func:`repro.harness.runner.run_once` path, which is what
    makes a single job admitted through the scheduler bitwise
    identical to a direct run — the profile *is* the direct run.

    ``granules`` is the preemption quantum count: Spark-style
    preemption loses only the uncommitted granule (lineage keeps the
    completed ones), Flink-style restart loses all of them.
    """

    engine: str
    workload: str
    width: int
    service_seconds: float
    granules: int = 8

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not self.service_seconds > 0:
            raise ValueError(
                f"service_seconds must be > 0, got {self.service_seconds}")
        if self.granules < 1:
            raise ValueError(
                f"granules must be >= 1, got {self.granules}")


def footprint_of(result, granules: int = 8) -> JobFootprint:
    """Reduce a successful :class:`EngineRunResult` to its footprint."""
    if not result.success:
        raise ValueError(
            f"cannot take the footprint of a failed run: {result.failure}")
    return JobFootprint(engine=result.engine, workload=result.workload,
                        width=result.nodes,
                        service_seconds=result.duration,
                        granules=granules)


class JobFailedError(RuntimeError):
    """A job died (OOM, insufficient buffers/slots, ...)."""

    #: Whether the failure was caused by an injected fault (and is
    #: therefore retryable by the recovery machinery) rather than a
    #: modelling error such as OOM.  Checked duck-typed via
    #: ``getattr(err, "is_fault", False)`` so :mod:`repro.faults` never
    #: becomes an import dependency of the engines.
    is_fault = False

    def __init__(self, message: str, cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause


class TaskLostError(JobFailedError):
    """Work was lost to an injected fault (node crash, partition, ...).

    Unlike its base class this is *retryable*: Spark's recovery runtime
    re-executes the lost tasks, Flink 0.10 restarts the whole pipeline.
    """

    is_fault = True


def _fault_failure(context: str, err: BaseException) -> JobFailedError:
    """Normalise a fault-caused error to a :class:`TaskLostError`.

    Injected interrupts carry their cause (usually already a
    :class:`TaskLostError`) in ``err.cause``; aborted flows raise the
    error directly.
    """
    if isinstance(err, Interrupt):
        cause = err.cause
        if isinstance(cause, JobFailedError):
            return cause
        return TaskLostError(f"{context}: interrupted by fault {cause!r}")
    if isinstance(err, JobFailedError):
        return err
    return TaskLostError(f"{context}: {err!r}", err)


@dataclass
class PhaseResources:
    """Resource demand of one phase on one node."""

    cpu_core_seconds: float = 0.0
    #: Maximum cores the phase may use simultaneously (its task slots).
    cpu_slots: float = 0.0
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    net_in_bytes: float = 0.0
    net_out_bytes: float = 0.0
    #: Bytes written through the HDFS replication pipeline (sinks).
    hdfs_write_bytes: float = 0.0
    #: Replication of those writes (None = filesystem default).
    hdfs_replication: Optional[int] = None
    #: Disk traffic that strictly alternates with the CPU (sort-buffer
    #: spills): it extends the phase instead of overlapping it.
    cyclic_disk_bytes: float = 0.0
    #: Working memory reserved for the phase's lifetime.
    memory_bytes: float = 0.0

    def validate(self) -> None:
        for name in ("cpu_core_seconds", "disk_read_bytes", "disk_write_bytes",
                     "net_in_bytes", "net_out_bytes", "hdfs_write_bytes",
                     "cyclic_disk_bytes", "memory_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cpu_core_seconds > 0 and self.cpu_slots <= 0:
            raise ValueError("phase with CPU work needs cpu_slots > 0")

    @property
    def is_empty(self) -> bool:
        return (self.cpu_core_seconds == 0 and self.disk_read_bytes == 0
                and self.disk_write_bytes == 0 and self.net_in_bytes == 0
                and self.net_out_bytes == 0 and self.hdfs_write_bytes == 0
                and self.cyclic_disk_bytes == 0)

    def scaled(self, factor: float) -> "PhaseResources":
        return PhaseResources(
            cpu_core_seconds=self.cpu_core_seconds * factor,
            cpu_slots=self.cpu_slots,
            disk_read_bytes=self.disk_read_bytes * factor,
            disk_write_bytes=self.disk_write_bytes * factor,
            net_in_bytes=self.net_in_bytes * factor,
            net_out_bytes=self.net_out_bytes * factor,
            hdfs_write_bytes=self.hdfs_write_bytes * factor,
            hdfs_replication=self.hdfs_replication,
            cyclic_disk_bytes=self.cyclic_disk_bytes * factor,
            memory_bytes=self.memory_bytes,
        )


_PER_NODE_KEYS = ("cpu_slots", "memory_bytes", "hdfs_replication")


def uniform_resources(num_nodes: int, **totals: float) -> List[PhaseResources]:
    """Split cluster-wide totals evenly across nodes.

    ``cpu_slots`` and ``memory_bytes`` are per-node values and are
    passed through unchanged.  This is the static assignment of Flink's
    slot model: every node gets the same share regardless of speed.
    """
    per_node = {}
    for key, value in totals.items():
        if key in _PER_NODE_KEYS:
            per_node[key] = value
        else:
            per_node[key] = value / num_nodes
    return [PhaseResources(**per_node) for _ in range(num_nodes)]


def speed_weighted_resources(cluster, **totals: float) -> List[PhaseResources]:
    """Split cluster-wide totals proportionally to each node's CPU speed.

    Models dynamic task scheduling (Spark's): a straggling executor
    simply receives fewer of the stage's tasks, so per-node work tracks
    per-node capability.  On a homogeneous cluster this is identical to
    :func:`uniform_resources`.
    """
    weights = [node.cpu.bandwidth for node in cluster.nodes]
    total_weight = sum(weights) or 1.0
    out = []
    for w in weights:
        share = w / total_weight
        per_node = {}
        for key, value in totals.items():
            if key in _PER_NODE_KEYS:
                per_node[key] = value
            else:
                per_node[key] = value * share
        out.append(PhaseResources(**per_node))
    return out


@dataclass
class PhaseSpec:
    """One fused operator group, cluster-wide."""

    name: str                      # long label: "DataSource->FlatMap->GroupCombine"
    key: str                       # short label used in figures: "DC"
    per_node: List[PhaseResources]
    #: Extra latency before the phase's first chunk (task deployment).
    startup_delay: float = 0.0
    #: Blocking phases buffer their whole input before emitting
    #: (e.g. a full sort): downstream sees no chunk until they finish.
    blocking: bool = False
    #: Anti-cyclic phases alternate CPU and I/O instead of overlapping
    #: them — the signature of Flink's sort-based combiner ("the CPU
    #: increases to 100% while the disk goes down to 0%", Fig. 3).
    anti_cyclic: bool = False

    def __post_init__(self) -> None:
        if not self.per_node:
            raise ValueError(f"phase {self.key}: no per-node resources")
        for res in self.per_node:
            res.validate()

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.per_node)


@dataclass
class OperatorSpan:
    """Cluster-wide execution window of one phase (a bar in the paper's
    operator-plan panels)."""

    key: str
    name: str
    start: float
    end: float
    #: 1-based iteration index for spans inside unrolled loops.
    iteration: Optional[int] = None
    #: Maximum per-node busy time (chunk processing, excluding waits on
    #: upstream phases).  For pipelined tails this is the paper's bar
    #: length; ``duration`` is the wall-clock window.
    busy: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "OperatorSpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class JobResult:
    """Outcome of one executed job."""

    name: str
    start: float
    end: float
    spans: List[OperatorSpan] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def span(self, key: str) -> OperatorSpan:
        for s in self.spans:
            if s.key == key:
                return s
        raise KeyError(f"no span {key!r}; have {[s.key for s in self.spans]}")


class ChunkQueue:
    """A bounded queue of chunk tokens between pipelined phases."""

    def __init__(self, cluster: Cluster, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.sim = cluster.sim
        self.capacity = capacity
        self.items = 0
        self.closed = False
        self._getters: List[Event] = []
        self._putters: List[Event] = []

    def put(self) -> Event:
        """Deposit one chunk; blocks (event) while the queue is full."""
        evt = self.sim.event()
        if self.items < self.capacity:
            self.items += 1
            self._wake_getter()
            self.sim._schedule(evt, 0.0)
        else:
            self._putters.append(evt)
        return evt

    def get(self) -> Event:
        """Take one chunk; blocks while empty (unless closed)."""
        evt = self.sim.event()
        if self.items > 0:
            self.items -= 1
            self._wake_putter()
            self.sim._schedule(evt, 0.0)
        elif self.closed:
            self.sim._schedule(evt, 0.0)  # drained: deliver immediately
        else:
            self._getters.append(evt)
        return evt

    def close(self) -> None:
        """No more puts; wake all blocked getters."""
        self.closed = True
        for evt in self._getters:
            self.sim._schedule(evt, 0.0)
        self._getters.clear()

    def _wake_getter(self) -> None:
        if self._getters:
            self.items -= 1
            self.sim._schedule(self._getters.pop(0), 0.0)

    def _wake_putter(self) -> None:
        if self._putters:
            self.items += 1
            self.sim._schedule(self._putters.pop(0), 0.0)


class PhaseExecutor:
    """Runs phase lists on a cluster, staged or pipelined."""

    def __init__(self, cluster: Cluster, hdfs: Optional[HDFS] = None,
                 chunks_per_phase: int = 12, queue_depth: int = 2,
                 jitter_sigma: float = 0.0,
                 io_interference_sigma: float = 0.0,
                 io_interference_penalty: float = 0.0) -> None:
        if chunks_per_phase < 1:
            raise ValueError("chunks_per_phase must be >= 1")
        self.cluster = cluster
        self.hdfs = hdfs
        self.chunks = chunks_per_phase
        self.queue_depth = queue_depth
        self.jitter_sigma = jitter_sigma
        self.io_interference_sigma = io_interference_sigma
        self.io_interference_penalty = io_interference_penalty
        self._rng = cluster.rng
        # Seek-amplification luck is a property of the run (layout of
        # the interleaved files on the spindle), not of each chunk:
        # drawing it once per deployment produces the run-to-run
        # variance the paper observes for Flink's Tera Sort (§VI-C).
        if io_interference_sigma > 0:
            self._run_io_factor = float(
                self._rng.lognormal(0.0, io_interference_sigma))
        else:
            self._run_io_factor = 1.0

    # ------------------------------------------------------------------
    # public entry points (generators to be wrapped in sim processes)
    # ------------------------------------------------------------------
    def run_staged(self, name: str, phases: Sequence[PhaseSpec]):
        """Barrier after every phase (Spark's stage discipline)."""
        start = self.cluster.now
        spans: List[OperatorSpan] = []
        for phase in phases:
            span = yield from self._run_phase_all_nodes(phase, None, None)
            spans.append(span)
        return JobResult(name=name, start=start, end=self.cluster.now,
                         spans=spans)

    def run_pipelined(self, name: str, phases: Sequence[PhaseSpec]):
        """Bounded-queue coupling between phases (Flink's discipline)."""
        start = self.cluster.now
        phases = list(phases)
        # One queue chain per node: phase i on node n feeds phase i+1 on
        # node n.  (Cross-node data movement is already expressed in the
        # phases' net_in/net_out demands.)
        num_nodes = self.cluster.num_nodes
        queues: List[List[Optional[ChunkQueue]]] = []
        for i in range(len(phases) - 1):
            queues.append([ChunkQueue(self.cluster, self.queue_depth)
                           for _ in range(num_nodes)])
        span_state = [self._new_span_state(p) for p in phases]
        procs = []
        for pi, phase in enumerate(phases):
            for ni in range(num_nodes):
                in_q = queues[pi - 1][ni] if pi > 0 else None
                out_q = queues[pi][ni] if pi < len(phases) - 1 else None
                proc = self.cluster.sim.process(
                    self._node_phase_proc(phase, ni, in_q, out_q,
                                          span_state[pi]))
                self._register_fault_proc(ni, proc)
                procs.append(proc)
        try:
            yield self.cluster.sim.all_of(procs)
        except Interrupt as err:
            # Flink 0.10 has no task-level recovery: any lost task
            # fails the whole pipelined job (the harness may restart it).
            raise _fault_failure(f"pipelined job {name!r}", err) from err
        spans = [OperatorSpan(p.key, p.name, st["start"], st["end"],
                              busy=max(st["busy"].values(), default=0.0))
                 for p, st in zip(phases, span_state)]
        for p, st in zip(phases, span_state):
            self._record_spans(p, st)
        return JobResult(name=name, start=start, end=self.cluster.now,
                         spans=spans)

    def run_phase(self, phase: PhaseSpec):
        """Run one phase to completion on every node; returns its span."""
        return (yield from self._run_phase_all_nodes(phase, None, None))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_span_state(self, phase: PhaseSpec) -> Dict:
        state = {"start": math.inf, "end": -math.inf, "busy": {},
                 "chunks": {}}
        if self.cluster.tracer is not None:
            # Per-node execution windows feed the tracer's task spans;
            # the key is absent on untraced runs so the hot loop pays
            # only a dict miss.
            state["nodes"] = {}
        return state

    def _record_spans(self, phase: PhaseSpec, state: Dict) -> None:
        """Emit one operator span plus per-node task spans from a
        finished phase's span state (no-op without a tracer)."""
        tracer = self.cluster.tracer
        if tracer is None or state["start"] == math.inf:
            return
        op_span = tracer.record(
            "operator", phase.name, state["start"], state["end"],
            key=phase.key)
        windows = state.get("nodes") or {}
        busy = state["busy"]
        chunks = state["chunks"]
        for ni in sorted(windows):
            w = windows[ni]
            tracer.record(
                "task", f"{phase.key}@node-{ni:03d}", w[0], w[1],
                parent=op_span, key=phase.key, node=ni,
                busy=busy.get(ni, 0.0), chunks=float(chunks.get(ni, 0)))

    def _register_fault_proc(self, node_index: int, proc) -> None:
        state = self.cluster.fault_state
        if state is not None:
            state.register(node_index, proc)

    def _run_phase_all_nodes(self, phase: PhaseSpec, in_qs, out_qs):
        state = self._new_span_state(phase)
        procs = []
        for ni in range(self.cluster.num_nodes):
            proc = self.cluster.sim.process(
                self._node_phase_proc(phase, ni, None, None, state))
            self._register_fault_proc(ni, proc)
            procs.append(proc)
        try:
            yield self.cluster.sim.all_of(procs)
        except Interrupt as err:
            raise _fault_failure(f"phase {phase.key!r}", err) from err
        self._record_spans(phase, state)
        return OperatorSpan(phase.key, phase.name, state["start"],
                            state["end"],
                            busy=max(state["busy"].values(), default=0.0))

    # ------------------------------------------------------------------
    # fault-tolerant entry points (used by repro.faults)
    # ------------------------------------------------------------------
    def run_phase_guarded(self, phase: PhaseSpec):
        """Run one phase with per-node fault isolation.

        Fault-caused failures (an injected :class:`~repro.cluster.
        simulation.Interrupt` or a :class:`TaskLostError` from an
        aborted flow) on one node do **not** break the cluster-wide
        barrier: surviving nodes finish their shares and the failure is
        reported to the caller, which can then re-execute the lost work
        (Spark's task-level recovery).  Non-fault errors (OOM, ...)
        still propagate.

        Returns ``(span, failures, chunks_done)`` where ``failures``
        maps node index to the fault that killed its share and
        ``chunks_done`` maps node index to completed chunk count.
        """
        state = self._new_span_state(phase)
        failures: Dict[int, BaseException] = {}
        procs = []
        for ni in range(self.cluster.num_nodes):
            proc = self.cluster.sim.process(
                self._guarded_node_proc(phase, ni, state, failures))
            self._register_fault_proc(ni, proc)
            procs.append(proc)
        yield self.cluster.sim.all_of(procs)
        if state["start"] == math.inf:
            state["start"] = state["end"] = self.cluster.now
        self._record_spans(phase, state)
        span = OperatorSpan(phase.key, phase.name, state["start"],
                            state["end"],
                            busy=max(state["busy"].values(), default=0.0))
        return span, failures, dict(state["chunks"])

    def _guarded_node_proc(self, phase: PhaseSpec, node_index: int,
                           state: Dict, failures: Dict[int, BaseException]):
        try:
            yield from self._node_phase_proc(phase, node_index, None, None,
                                             state)
        except BaseException as err:
            if isinstance(err, Interrupt) or getattr(err, "is_fault", False):
                failures[node_index] = _fault_failure(
                    f"phase {phase.key!r} share on node {node_index}", err)
            else:
                raise

    def _node_phase_proc(self, phase: PhaseSpec, node_index: int,
                         in_q: Optional[ChunkQueue],
                         out_q: Optional[ChunkQueue],
                         span_state: Dict[str, float]):
        cluster = self.cluster
        sim = cluster.sim
        node = cluster.node(node_index)
        res = phase.per_node[node_index]

        if phase.startup_delay > 0:
            yield sim.timeout(phase.startup_delay)

        if res.memory_bytes > 0:
            try:
                node.memory.reserve(res.memory_bytes)
            except OutOfMemoryError as err:
                raise JobFailedError(
                    f"phase {phase.key!r} on {node.name}: {err}", err) from err
        try:
            if res.is_empty and in_q is None:
                # Nothing to do; still emit tokens downstream.
                self._touch_span(span_state, node_index)
                if out_q is not None:
                    for _ in range(self.chunks):
                        yield out_q.put()
                    out_q.close()
                return
            n = self.chunks
            chunk = res.scaled(1.0 / n)
            both_io = 0.0
            if res.disk_read_bytes > 0 and res.disk_write_bytes > 0:
                # Seek amplification grows with how much interleaved
                # traffic the spindle carries: more data per node means
                # more interference — why Flink's Tera Sort advantage
                # grows with cluster size (§VI-C).
                both_io = min(2.0, (res.disk_read_bytes +
                                    res.disk_write_bytes) / (32 * 2**30))
            busy = span_state["busy"]
            for i in range(n):
                if in_q is not None:
                    yield in_q.get()
                self._touch_span(span_state, node_index)
                t0 = sim.now
                if phase.anti_cyclic:
                    yield from self._chunk_anti_cyclic(node, chunk, both_io)
                else:
                    yield self._chunk_events(node, chunk, both_io)
                busy[node_index] = busy.get(node_index, 0.0) + sim.now - t0
                chunks = span_state["chunks"]
                chunks[node_index] = chunks.get(node_index, 0) + 1
                self._touch_span(span_state, node_index)
                if out_q is not None and not phase.blocking:
                    yield out_q.put()
            if out_q is not None:
                if phase.blocking:
                    for _ in range(n):
                        yield out_q.put()
                out_q.close()
        finally:
            if res.memory_bytes > 0:
                node.memory.release(res.memory_bytes)

    def _chunk_anti_cyclic(self, node: Node, chunk: PhaseResources,
                           both_io: bool):
        """Sort-buffer discipline: burn CPU filling/sorting the buffer,
        then drain it to disk with the CPU idle.  Only the phase's
        ``cyclic_disk_bytes`` alternate; everything else overlaps as
        usual."""
        yield self._chunk_events(node, chunk, both_io)
        if chunk.cyclic_disk_bytes > 0:
            yield self.cluster.fluid.transfer(
                chunk.cyclic_disk_bytes * self._jitter(), [node.disk])

    def _chunk_events(self, node: Node, chunk: PhaseResources,
                      both_io: float) -> Event:
        cluster = self.cluster
        # All the chunk's flows start at this same instant; the fluid
        # scheduler solves them, with every other flow of the instant,
        # in one pass before the clock moves on.
        transfer = cluster.fluid.transfer
        events = []
        jitter = self._jitter()
        if chunk.cpu_core_seconds > 0:
            events.append(transfer(chunk.cpu_core_seconds * jitter,
                                   (node.cpu,), chunk.cpu_slots))
        io_factor = jitter
        if both_io > 0:
            # Reads and writes interleaving on one spindle: seek
            # amplification plus per-run variance (paper §VI-C).
            io_factor *= (1.0 + self.io_interference_penalty * both_io) * \
                self._run_io_factor
        if chunk.disk_read_bytes > 0:
            events.append(transfer(chunk.disk_read_bytes * io_factor,
                                   (node.disk,)))
        if chunk.disk_write_bytes > 0:
            events.append(transfer(chunk.disk_write_bytes * io_factor,
                                   (node.disk,)))
        if chunk.net_in_bytes > 0:
            events.append(transfer(chunk.net_in_bytes * jitter,
                                   (node.nic_in,)))
        if chunk.net_out_bytes > 0:
            events.append(transfer(chunk.net_out_bytes * jitter,
                                   (node.nic_out,)))
        if chunk.hdfs_write_bytes > 0:
            if self.hdfs is not None:
                events.append(self.hdfs.write_bytes(
                    node.index, chunk.hdfs_write_bytes,
                    replication=chunk.hdfs_replication))
            else:
                events.append(transfer(chunk.hdfs_write_bytes,
                                       [node.disk]))
        if not events:
            return cluster.sim.timeout(0.0)
        if len(events) == 1:
            # No barrier needed for a single flow; the caller ignores the
            # event value, and an AllOf over untriggered children consumes
            # no kernel sequence numbers, so this is trace-identical.
            return events[0]
        return cluster.sim.all_of(events)

    def _jitter(self) -> float:
        if self.jitter_sigma <= 0:
            return 1.0
        return float(self._rng.lognormal(0.0, self.jitter_sigma))

    def _touch_span(self, state: Dict[str, float],
                    node_index: Optional[int] = None) -> None:
        now = self.cluster.now
        if now < state["start"]:
            state["start"] = now
        if now > state["end"]:
            state["end"] = now
        windows = state.get("nodes")
        if windows is not None and node_index is not None:
            w = windows.get(node_index)
            if w is None:
                windows[node_index] = [now, now]
            else:
                if now < w[0]:
                    w[0] = now
                if now > w[1]:
                    w[1] = now

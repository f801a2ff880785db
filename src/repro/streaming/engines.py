"""Executed streaming engines on the fluid simulation kernel.

This is the paper's §VIII future-work question made executable.  The
analytic sketch in :mod:`repro.streaming.model` answers it in closed
form; this module answers it by *running* the two architectures on the
same cluster substrate the batch engines use, and the analytic model is
demoted to a differential oracle (see ``tests/streaming``).

* **Continuous-operator engine** (Flink-style, ``engine="flink"``) —
  a pipelined ``source -> keyBy/shuffle -> window-aggregate`` chain.
  Ingest slices flow through the operators as fluid demands (CPU on
  every node, all-to-all shuffle on the NICs); at most ``queue_depth``
  slices are in flight, where the depth is derived from Flink's
  network-buffer pool exactly like the batch engine derives its
  pipeline depth — a full buffer pool blocks the sources, which is
  backpressure.  The event-time watermark advances over the completed
  slice prefix, and an aligned barrier checkpoint stalls the pipeline
  for :data:`DEFAULT_BARRIER_SYNC` seconds once per checkpoint
  interval (the latency cost of Chandy-Lamport alignment).

* **Micro-batch D-Stream engine** (Spark-style, ``engine="spark"``) —
  arrivals are chopped into ``batch_interval`` batches; each batch runs
  as a small two-phase staged job through the shared
  :class:`~repro.engines.common.execution.PhaseExecutor` (receive/map,
  then shuffle/aggregate, with the per-batch scheduling overhead as the
  first phase's startup delay).  The driver is serial, so when a batch
  takes longer than the interval the next batch starts late and the
  backlog — the micro-batch instability of the analytic model —
  emerges from execution rather than being assumed.

**Failure model**: each entry of the crash schedule (``crash_times``)
kills the whole pipeline — Flink 0.10 restarts from the last completed
barrier and replays, Spark loses the uncheckpointed batch state and
lineage-recomputes the window since the last RDD checkpoint as one
parallel job.  The wait before each restart comes from the run's
*restart strategy* (:mod:`repro.streaming.policies`): fixed delay or
exponential backoff with seeded jitter, either with a restart budget
whose exhaustion declares the **job failed** and stops the run with an
explicit ``job_failed`` result.  A crash whose
time passes while the pipeline is already down fires immediately after
the restart — repeated crash sequences, not one-shot flags.  Recovery
time is measured from the *last* crash as the first time the ingest
lag returns to its level before the *first* crash.

**Overload survival**: above capacity the baseline queues grow without
bound.  A *shedding policy* (continuous engine) bounds the source
queue by dropping a rising share of arriving records, and
a *batch policy* (D-Stream engine) adapts the batch interval with a
PID controller and sheds at the receiver beyond the measured
sustainable rate.  Every run accounts exactly:
``total == processed + dropped + lost`` (``lost`` only when the job
failed), audited by :meth:`~repro.validation.invariants.
InvariantChecker.audit_streaming` under strict mode.

Everything is deterministic: the arrival randomness is compiled into
an :class:`~repro.streaming.arrivals.ArrivalPlan` before the cluster
exists, crash schedules and backoff jitter are pure functions of the
seed, and the engines themselves draw no random numbers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import Cluster
from ..engines.common.execution import (PhaseExecutor, PhaseSpec,
                                        uniform_resources)
from ..validation.invariants import InvariantChecker
from .arrivals import DEFAULT_SLICE_WIDTH, ArrivalPlan
from .model import StreamingWorkloadModel
from .policies import BatchIntervalController, FixedDelayRestart

__all__ = ["StreamingRunResult", "run_streaming", "STREAMING_ENGINES",
           "queue_depth_from_buffers", "stable_drain_bound",
           "DEFAULT_BARRIER_SYNC"]

STREAMING_ENGINES = ("flink", "spark")

#: Pipeline stall per aligned barrier checkpoint (seconds): barrier
#: alignment plus the synchronous part of the state snapshot.
DEFAULT_BARRIER_SYNC = 0.05


def queue_depth_from_buffers(network_buffers: int,
                             parallelism: int) -> int:
    """Pipeline depth (in-flight ingest slices) from the network-buffer
    pool — the same derivation the batch Flink engine uses for its
    chunk queues: each of the ``parallelism``\\ *8 logical channels
    owns a share of the pool, clamped to a sane pipelining range."""
    per_link = network_buffers / max(1, parallelism * 8)
    return max(1, min(4, int(per_link)))


def stable_drain_bound(engine: str, model: StreamingWorkloadModel,
                       batch_interval: float,
                       slice_width: float = DEFAULT_SLICE_WIDTH) -> float:
    """Documented stability test: a run is *stable* when, after the
    offered load ends, the engine drains its backlog within this bound.

    For the continuous engine the steady in-flight residue is at most
    ``queue_depth`` slices of service (each under one slice width when
    stable); for the micro-batch engine the final batch still has to
    run after it closes, so up to one batch time (< interval when
    stable) plus the fixed overhead remains.  Overload instead leaves a
    backlog that grows linearly in the run length, so with the default
    40 s campaigns the boundary resolves ``max_stable_throughput``
    to within ~10-15% (asserted in ``tests/streaming``).  Runs with a
    degradation policy use the policy's own ``drain_bound`` instead —
    a bounded queue drains in bounded time by construction.
    """
    if engine == "flink":
        return max(1.0, 6.0 * slice_width)
    return 1.25 * batch_interval + model.batch_fixed_overhead


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
def _weighted_percentile(samples: List[Tuple[float, float]],
                         q: float) -> float:
    """Percentile of (value, weight) samples; NaN when empty."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    total = sum(w for _v, w in ordered)
    if total <= 0:
        return math.nan
    target = (q / 100.0) * total
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= target - 1e-12:
            return float(value)
    return float(ordered[-1][0])


@dataclass
class StreamingRunResult:
    """Full observable outcome of one executed streaming run."""

    engine: str
    arrival_kind: str
    offered_rate: float          # realised mean of the compiled plan
    duration: float
    nodes: int
    seed: int
    batch_interval: float
    checkpoint_interval: float
    plan_digest: str
    total_records: int
    processed_records: int
    #: One entry per non-empty ingest slice: ``(latency, floor,
    #: weight)`` where latency is final completion minus mean event
    #: time, ``floor`` the architectural lower bound for that slice
    #: (ingest granularity for continuous, residual batch wait for
    #: micro-batch) and ``weight`` the record count kept after
    #: shedding.
    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Event-time watermark trace: ``(sim_time, watermark)``.
    watermarks: List[Tuple[float, float]] = field(default_factory=list)
    checkpoints: int = 0
    makespan: float = 0.0
    drain_seconds: float = 0.0
    stable: bool = True
    crash_at: Optional[float] = None
    crashed: bool = False
    replayed_records: int = 0
    recovery_seconds: float = math.nan
    sim_events: int = 0
    #: Full scheduled crash sequence (absolute seconds; trailing
    #: entries may land past the makespan and never fire).
    crash_schedule: List[float] = field(default_factory=list)
    #: Crashes that actually hit the run, in order.
    crashes: List[float] = field(default_factory=list)
    restarts: int = 0
    #: The restart strategy declared the job failed (its restart
    #: budget, ``max_restarts``, was exhausted).
    job_failed: bool = False
    failed_at: Optional[float] = None
    #: Total pipeline-down time across all crashes (drain + restart).
    downtime_seconds: float = 0.0
    #: Records dropped by the shedding/batch policy (exact count).
    dropped_records: int = 0
    #: Records admitted but never processed (job failed mid-run).
    lost_records: int = 0
    shed_events: int = 0
    #: Sanctioned watermark-regression times (one per restart rollback).
    rollbacks: List[float] = field(default_factory=list)
    #: Active policy payloads (None = PR 6 baseline behaviour).
    restart_strategy: Optional[Dict[str, Any]] = None
    policy: Optional[Dict[str, Any]] = None
    #: Realised batch intervals (adaptive D-Stream runs only).
    batch_intervals: List[float] = field(default_factory=list)
    #: The active policy's latency guarantee (NaN without a policy);
    #: audited against the crash-free part of p99 under strict mode.
    p99_bound: float = math.nan

    def percentile(self, q: float) -> float:
        return _weighted_percentile(
            [(lat, w) for lat, _f, w in self.samples], q)

    @property
    def mean_latency(self) -> float:
        total = sum(w for _l, _f, w in self.samples)
        if total <= 0:
            return math.nan
        return sum(lat * w for lat, _f, w in self.samples) / total

    @property
    def final_watermark(self) -> float:
        return self.watermarks[-1][1] if self.watermarks else 0.0

    @property
    def goodput(self) -> float:
        """Processed records per second of offered load."""
        if self.duration <= 0:
            return math.nan
        return self.processed_records / self.duration

    @property
    def loss_fraction(self) -> float:
        """Fraction of ingested records shed or lost."""
        if self.total_records <= 0:
            return 0.0
        return ((self.dropped_records + self.lost_records)
                / self.total_records)

    @property
    def availability(self) -> float:
        """Fraction of the offered-load window the pipeline was up:
        downtime after crashes counts against it, and a failed job is
        down from the failure to the end of the window."""
        if self.duration <= 0:
            return math.nan
        end = self.duration
        if self.job_failed and self.failed_at is not None:
            end = min(self.failed_at, self.duration)
        up = max(0.0, end - self.downtime_seconds)
        return min(1.0, up / self.duration)

    def describe(self) -> str:
        head = (f"{self.engine:5s} {self.arrival_kind:7s} "
                f"@ {self.offered_rate:,.0f} rec/s")
        if self.job_failed:
            return (f"{head}: JOB FAILED at {self.failed_at:.1f}s "
                    f"after {self.restarts} restart(s), "
                    f"lost {self.lost_records:,d} records")
        if not self.stable:
            return f"{head}: UNSTABLE (drained {self.drain_seconds:.1f}s "\
                   f"past end)"
        parts = [f"p50 {1000 * self.percentile(50):.0f} ms",
                 f"p99 {1000 * self.percentile(99):.0f} ms",
                 f"{self.checkpoints} ckpt"]
        if self.dropped_records:
            parts.append(f"shed {self.loss_fraction:.1%}")
        if self.crashed:
            rec = ("never" if math.isnan(self.recovery_seconds)
                   else f"{self.recovery_seconds:.1f}s")
            parts.append(f"crash@{self.crashes[0]:.0f}s"
                         + (f" (+{len(self.crashes) - 1} more)"
                            if len(self.crashes) > 1 else "")
                         + f" recovered {rec}")
        return f"{head}: " + ", ".join(parts)


# ----------------------------------------------------------------------
# shared run state
# ----------------------------------------------------------------------
class _StreamState:
    """Mutable bookkeeping shared by a driver and its slice workers."""

    def __init__(self, plan: ArrivalPlan) -> None:
        self.plan = plan
        n = plan.num_slices
        self.done = [False] * n
        self.completion: List[Optional[float]] = [None] * n
        #: True while the pipeline is down after a crash: in-flight
        #: slices still drain (wasted work) but must not advance the
        #: externally visible watermark — their results die with the
        #: pipeline.
        self.halted = False
        self.frontier = 0                  # first not-yet-done slice
        self.watermark = 0.0
        self.watermarks: List[Tuple[float, float]] = []
        self.checkpoints = 0
        self.ckpt_watermark = 0.0          # replay point on failure
        self.replayed_records = 0
        self.node_windows: Dict[int, List[float]] = {}
        self.node_busy: Dict[int, float] = {}
        self.first_launch = math.inf
        self.last_completion = 0.0
        #: Records shed per slice (policy decisions, made exactly once
        #: per slice at source admission).
        self.dropped = [0] * n
        self.shed_decided = [False] * n
        #: One entry per shed decision: (time, slice, dropped, queue).
        self.shed_events: List[Tuple[float, int, int, int]] = []
        #: Sanctioned watermark-regression times (restart rollbacks).
        self.rollbacks: List[float] = []
        self.downtime = 0.0
        #: Per-slice latency floor: the D-Stream driver sets the wait to
        #: the slice's batch boundary; None = the ingest granularity.
        self.floors: List[Optional[float]] = [None] * n

    def admitted(self, k: int) -> int:
        return self.plan.counts[k] - self.dropped[k]

    def advance_watermark(self, now: float) -> None:
        if self.halted:
            # Pipeline is down: draining slices burn resources but
            # their results are lost, so the watermark must not move
            # (rollback() recomputes the frontier afterwards).
            return
        moved = False
        while (self.frontier < self.plan.num_slices
               and self.done[self.frontier]):
            self.frontier += 1
            moved = True
        if moved:
            self.watermark = self.plan.slice_close(self.frontier - 1)
            self.watermarks.append((now, self.watermark))

    def rollback(self, now: float) -> List[int]:
        """Roll back to the last checkpoint; returns the slices to
        replay (completed or in flight past the checkpoint)."""
        replay = [k for k in range(self.plan.num_slices)
                  if self.plan.slice_close(k) > self.ckpt_watermark
                  and self.completion[k] is not None]
        for k in replay:
            self.done[k] = False
            self.completion[k] = None
            self.replayed_records += self.admitted(k)
        self.frontier = 0
        while (self.frontier < self.plan.num_slices
               and self.done[self.frontier]):
            self.frontier += 1
        self.watermark = self.ckpt_watermark
        self.watermarks.append((now, self.watermark))
        self.rollbacks.append(now)
        return replay

    def record_shed(self, now: float, k: int, dropped: int,
                    queued: int, tracer) -> None:
        self.dropped[k] += dropped
        self.shed_events.append((now, k, dropped, queued))
        if tracer is not None:
            tracer.record("operator", f"shed-{k:04d}", now, now,
                          key="SHED", dropped=dropped, queue=queued)

    def touch_node(self, node_index: int, start: float,
                   end: float) -> None:
        window = self.node_windows.get(node_index)
        if window is None:
            self.node_windows[node_index] = [start, end]
        else:
            window[0] = min(window[0], start)
            window[1] = max(window[1], end)
        self.node_busy[node_index] = (
            self.node_busy.get(node_index, 0.0) + (end - start))


# ----------------------------------------------------------------------
# crash-sequence cursor (shared by both engines' drivers)
# ----------------------------------------------------------------------
class _CrashCursor:
    """Replaces the one-shot ``crash_log["crashed"]`` guard: walks a
    sorted crash schedule, asking the restart strategy after every hit.
    A crash whose time passes while the pipeline is down simply fires
    on the next pending check after the restart."""

    def __init__(self, sim, schedule: Sequence[float], strategy,
                 seed: int, crash_log: Dict[str, Any], tracer) -> None:
        self.sim = sim
        self.schedule = tuple(schedule)
        self.strategy = strategy
        self.seed = seed
        self.log = crash_log
        self.tracer = tracer

    def next_crash(self) -> Optional[float]:
        i = len(self.log["crashes"])
        return self.schedule[i] if i < len(self.schedule) else None

    def pending(self) -> bool:
        if self.log["job_failed"]:
            return False
        nxt = self.next_crash()
        return nxt is not None and self.sim.now >= nxt - 1e-12

    def hit(self) -> float:
        """Record the crash; returns its time."""
        crash_time = self.sim.now
        self.log["crashes"].append(crash_time)
        return crash_time

    def restart_delay(self) -> Optional[float]:
        """Consult the strategy (None = job failed, side effects
        recorded)."""
        delay = self.strategy.decide(self.log["crashes"], self.seed)
        if delay is None:
            crash_time = self.log["crashes"][-1]
            self.log["job_failed"] = True
            self.log["failed_at"] = crash_time
            if self.tracer is not None:
                self.tracer.record("operator", "job-failed", crash_time,
                                   self.sim.now, key="RESTART",
                                   attempt=len(self.log["crashes"]))
        return delay

    def record_restart(self, crash_time: float) -> None:
        self.log["restarts"].append((crash_time, self.sim.now))
        if self.tracer is not None:
            n = len(self.log["restarts"]) - 1
            self.tracer.record("operator", f"restart-{n:02d}",
                               crash_time, self.sim.now, key="RESTART",
                               attempt=n)


def _new_crash_log() -> Dict[str, Any]:
    return {"crashes": [], "restarts": [], "job_failed": False,
            "failed_at": None, "barriers": []}


# ----------------------------------------------------------------------
# continuous-operator engine (Flink-style)
# ----------------------------------------------------------------------
class _TokenPool:
    """Counting semaphore over simulation events: ``acquire`` blocks
    while ``capacity`` tokens are out — the network-buffer pool whose
    exhaustion is backpressure."""

    def __init__(self, sim, capacity: int) -> None:
        self.sim = sim
        self.capacity = capacity
        self.in_flight = 0
        self._waiters: List[Any] = []

    def acquire(self):
        evt = self.sim.event()
        if self.in_flight < self.capacity:
            self.in_flight += 1
            self.sim._schedule(evt, 0.0)
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self._waiters:
            self.sim._schedule(self._waiters.pop(0), 0.0)
        else:
            self.in_flight -= 1


def _continuous_slice_proc(cluster: Cluster, state: _StreamState,
                           model: StreamingWorkloadModel, k: int,
                           tokens: _TokenPool, done_evt) -> Any:
    plan = state.plan
    count = state.admitted(k)
    n = cluster.num_nodes
    fluid = cluster.fluid
    share = count / n
    cpu = (share * model.core_seconds_per_record
           * model.streaming_record_overhead)
    shuffle = (share * model.record_bytes * model.shuffle_fanout
               * (n - 1) / n)
    start = cluster.now
    requests = []
    for node in cluster.nodes:
        if cpu > 0:
            requests.append((cpu, (node.cpu,), None))
        if shuffle > 0:
            requests.append((shuffle, (node.nic_out,), None))
            requests.append((shuffle, (node.nic_in,), None))
    if requests:
        yield fluid.transfer_many(requests)
    now = cluster.now
    state.completion[k] = now
    state.done[k] = True
    state.last_completion = max(state.last_completion, now)
    for ni in range(n):
        state.touch_node(ni, start, now)
    state.advance_watermark(now)
    done_evt.succeed()
    tokens.release()


def _continuous_driver(cluster: Cluster, state: _StreamState,
                       model: StreamingWorkloadModel,
                       checkpoint_interval: float, queue_depth: int,
                       cursor: _CrashCursor, shedding,
                       crash_log: Dict[str, Any]):
    sim = cluster.sim
    plan = state.plan
    tracer = cluster.tracer
    tokens = _TokenPool(sim, queue_depth)
    done_evts: Dict[int, Any] = {}
    work = deque(range(plan.num_slices))
    next_ckpt = checkpoint_interval
    barriers: List[Tuple[float, float]] = []

    def do_crash():
        crash_time = cursor.hit()
        # In-flight slices finish burning resources but their results
        # are lost with the pipeline (wasted work), then the process
        # restarts and replays from the last completed barrier.
        state.halted = True
        outstanding = [evt for k, evt in done_evts.items()
                       if not state.done[k]]
        if outstanding:
            yield sim.all_of(outstanding)
        delay = cursor.restart_delay()
        if delay is None:
            state.downtime += sim.now - crash_time
            return
        yield sim.timeout(delay)
        state.downtime += sim.now - crash_time
        cursor.record_restart(crash_time)
        replay = state.rollback(sim.now)
        state.halted = False
        merged = sorted(set(replay) | set(work))
        work.clear()
        work.extend(merged)

    def shed_arrivals() -> None:
        """Source-buffer admission: decide each newly closed slice's
        fate exactly once, in arrival order, against the current queue
        of already-admitted waiting slices."""
        now = sim.now
        removed = None
        queued = 0
        for j in work:
            if plan.slice_close(j) > now + 1e-12:
                break
            if state.shed_decided[j]:
                queued += 1
                continue
            state.shed_decided[j] = True
            admitted = state.admitted(j)
            drop = 0
            if admitted > 0:
                drop = max(0, min(admitted,
                                  shedding.shed(queued, admitted)))
            if drop > 0:
                state.record_shed(now, j, drop, queued, tracer)
            if state.dropped[j] >= plan.counts[j]:
                # Nothing left to process (fully shed, or an empty
                # slice): event time still advances past it.
                state.done[j] = True
                if removed is None:
                    removed = set()
                removed.add(j)
            else:
                queued += 1
        if removed:
            remaining = [j for j in work if j not in removed]
            work.clear()
            work.extend(remaining)
            state.advance_watermark(now)

    while True:
        while work:
            if crash_log["job_failed"]:
                break
            if cursor.pending():
                yield from do_crash()
                continue
            if shedding is not None:
                shed_arrivals()
                if not work:
                    continue
            k = work[0]
            avail = plan.slice_close(k)
            if sim.now < avail:
                nxt = cursor.next_crash()
                if nxt is not None and nxt < avail:
                    yield sim.timeout(max(0.0, nxt - sim.now))
                    continue
                yield sim.timeout(avail - sim.now)
            if state.watermark >= next_ckpt - 1e-12:
                # Aligned barrier: the pipeline stalls while operators
                # align and snapshot; the checkpoint pins the replay
                # point for failure recovery.
                yield sim.timeout(DEFAULT_BARRIER_SYNC)
                state.checkpoints += 1
                state.ckpt_watermark = state.watermark
                barriers.append((sim.now, state.watermark))
                next_ckpt += checkpoint_interval
                continue
            yield tokens.acquire()
            work.popleft()
            state.first_launch = min(state.first_launch, sim.now)
            evt = sim.event()
            done_evts[k] = evt
            sim.process(_continuous_slice_proc(
                cluster, state, model, k, tokens, evt))
        outstanding = [evt for k, evt in done_evts.items()
                       if not state.done[k]]
        if outstanding:
            yield sim.all_of(outstanding)
        if crash_log["job_failed"]:
            break
        if cursor.pending():
            yield from do_crash()
            continue
        break
    crash_log["barriers"] = barriers


# ----------------------------------------------------------------------
# micro-batch engine (Spark-style D-Streams)
# ----------------------------------------------------------------------
def _batch_phases(model: StreamingWorkloadModel, nodes: int, cores: int,
                  records: int, overhead: float) -> List[PhaseSpec]:
    cpu_total = records * model.core_seconds_per_record
    shuffle_total = (records * model.record_bytes * model.shuffle_fanout
                     * (nodes - 1) / nodes)
    return [
        PhaseSpec("Receive->FlatMap->MapToPair", "RM",
                  uniform_resources(nodes,
                                    cpu_core_seconds=cpu_total * 0.6,
                                    cpu_slots=cores,
                                    net_out_bytes=shuffle_total),
                  startup_delay=overhead),
        PhaseSpec("Shuffle->ReduceByKey->UpdateState", "SA",
                  uniform_resources(nodes,
                                    cpu_core_seconds=cpu_total * 0.4,
                                    cpu_slots=cores,
                                    net_in_bytes=shuffle_total)),
    ]


def _dstream_crash(cluster: Cluster, state: _StreamState,
                   model: StreamingWorkloadModel,
                   executor: PhaseExecutor, cursor: _CrashCursor):
    """One D-Stream crash/restart cycle: the driver restarts after the
    strategy's delay and lineage-recomputes everything since the last
    RDD/WAL checkpoint as one parallel job (no per-batch scheduling
    overhead — it is a single recovery job)."""
    sim = cluster.sim
    plan = state.plan
    tracer = cluster.tracer
    crash_time = cursor.hit()
    delay = cursor.restart_delay()
    if delay is None:
        return
    yield sim.timeout(delay)
    state.downtime += sim.now - crash_time
    cursor.record_restart(crash_time)
    replay = state.rollback(sim.now)
    records = sum(state.admitted(k) for k in replay)
    restored = max([plan.slice_close(k) for k in replay],
                   default=state.ckpt_watermark)
    if replay:
        span = None
        if tracer is not None:
            span = tracer.begin("job", "lineage-recovery", sim.now)
        yield from executor.run_staged(
            "lineage-recovery",
            _batch_phases(model, cluster.num_nodes, cluster.spec.cores,
                          records, overhead=0.0))
        if tracer is not None:
            tracer.end(span, sim.now)
        now = sim.now
        for k in replay:
            state.completion[k] = now
            state.done[k] = True
        state.advance_watermark(now)
        assert state.watermark >= restored - 1e-9


def _dstream_driver(cluster: Cluster, state: _StreamState,
                    model: StreamingWorkloadModel, batch_interval: float,
                    checkpoint_interval: float, cursor: _CrashCursor,
                    batch_policy, crash_log: Dict[str, Any]):
    """The serial D-Stream driver: each batch takes every slice closed
    by its boundary and runs as one staged job.  Without a batch policy
    batch ``b`` closes at ``(b + 1) * batch_interval`` and admits every
    record.  Under an :class:`AdaptiveBatchPolicy` the boundary advances
    by the controller's current interval (bounded staleness), and the
    receiver sheds arrivals beyond the measured sustainable rate
    (bounded latency at a loss fraction)."""
    sim = cluster.sim
    plan = state.plan
    cores = cluster.spec.cores
    n = cluster.num_nodes
    executor = PhaseExecutor(cluster, hdfs=None, chunks_per_phase=4)
    tracer = cluster.tracer
    controller = None
    if batch_policy is not None:
        controller = BatchIntervalController(batch_policy, batch_interval)
        crash_log["controller"] = controller
    next_ckpt = checkpoint_interval
    next_slice = 0
    b = 0
    close = 0.0

    while True:
        # Fixed boundaries are exact multiples of the interval; a
        # running sum would drift by rounding.
        close = ((b + 1) * batch_interval if controller is None
                 else close + controller.interval)
        while sim.now < close:
            if cursor.pending():
                yield from _dstream_crash(cluster, state, model,
                                          executor, cursor)
                if crash_log["job_failed"]:
                    return
                continue
            nxt = cursor.next_crash()
            if nxt is not None and nxt < close:
                yield sim.timeout(max(0.0, nxt - sim.now))
            else:
                yield sim.timeout(close - sim.now)
        if cursor.pending():
            yield from _dstream_crash(cluster, state, model,
                                      executor, cursor)
            if crash_log["job_failed"]:
                return
        # Assemble the batch: every slice closed by this boundary.
        members: List[int] = []
        while (next_slice < plan.num_slices
               and plan.slice_close(next_slice) <= close + 1e-9):
            members.append(next_slice)
            next_slice += 1
        # Receiver-side shedding: admit up to the measured sustainable
        # budget, drop-tail on the newest arrivals beyond it.
        budget = math.inf if controller is None else controller.admissible()
        records = 0
        for k in members:
            state.floors[k] = close - plan.slice_midpoint(k)
            admitted = plan.counts[k]
            if math.isfinite(budget) and records + admitted > budget:
                keep = max(0, int(budget) - records)
                drop = admitted - keep
                if drop > 0:
                    state.record_shed(sim.now, k, drop, b, tracer)
                admitted = keep
            records += admitted
        start = sim.now
        span = None
        if tracer is not None:
            span = tracer.begin("job", f"batch-{b:04d}", start)
        yield from executor.run_staged(
            f"batch-{b:04d}",
            _batch_phases(model, n, cores, records,
                          overhead=model.batch_fixed_overhead))
        if tracer is not None:
            tracer.end(span, sim.now)
        now = sim.now
        state.first_launch = min(state.first_launch, start)
        state.last_completion = max(state.last_completion, now)
        for k in members:
            if state.admitted(k) > 0 or plan.counts[k] == 0:
                state.completion[k] = now
            state.done[k] = True
        for ni in range(n):
            state.touch_node(ni, start, now)
        state.advance_watermark(now)
        if controller is not None:
            controller.observe(records, now - start)
        if close >= next_ckpt - 1e-9:
            # The RDD/state checkpoint piggybacks on the batch job, so
            # unlike the continuous engine's barrier it adds no stall;
            # its cost shows up at recovery time instead.
            state.checkpoints += 1
            state.ckpt_watermark = min(close, plan.duration)
            while close >= next_ckpt - 1e-9:
                next_ckpt += checkpoint_interval
        if next_slice >= plan.num_slices:
            break
        b += 1
    while cursor.pending():
        yield from _dstream_crash(cluster, state, model, executor, cursor)
        if crash_log["job_failed"]:
            return


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _recovery_seconds(watermarks: List[Tuple[float, float]],
                      first_crash: float, last_crash: float,
                      tolerance: float) -> float:
    """First time after the last crash at which the ingest lag (sim
    time minus watermark) returns to its level before the first crash,
    as seconds since the last crash; NaN when the run never catches
    back up."""
    pre = [(t, wm) for t, wm in watermarks if t <= first_crash]
    if not pre:
        return math.nan
    t0, wm0 = pre[-1]
    steady_lag = t0 - wm0
    for t, wm in watermarks:
        if t <= last_crash:
            continue
        if t - wm <= steady_lag + tolerance:
            return t - last_crash
    return math.nan


def run_streaming(engine: str, arrivals, *, duration: float = 30.0,
                  nodes: int = 8,
                  model: Optional[StreamingWorkloadModel] = None,
                  seed: int = 0, batch_interval: float = 1.0,
                  checkpoint_interval: float = 10.0,
                  crash_times: Sequence[float] = (),
                  restart_strategy=None, shedding=None,
                  batch_policy=None,
                  strict: bool = False,
                  tracer=None) -> StreamingRunResult:
    """Execute one streaming run on the fluid kernel.

    ``arrivals`` is either a compiled :class:`~repro.streaming.
    arrivals.ArrivalPlan` (its duration wins) or an arrival process
    with a ``compile(seed, duration)`` method.  ``engine`` selects the
    continuous-operator pipeline (``"flink"``) or the micro-batch
    D-Stream driver (``"spark"``).

    Failures: ``crash_times`` is the crash schedule (sorted here) —
    compile one from a fault rate with :func:`~repro.streaming.
    policies.compile_crash_schedule`.  ``restart_strategy`` (default:
    :class:`~repro.streaming.policies.FixedDelayRestart`) decides the
    wait after each crash or declares the job failed.  Overload: pass
    ``shedding`` (continuous engine) or ``batch_policy`` (D-Stream
    engine) from :mod:`repro.streaming.policies` to bound latency at a
    measured loss fraction.  Deterministic for fixed inputs.
    """
    if engine not in STREAMING_ENGINES:
        raise ValueError(f"unknown streaming engine {engine!r}; "
                         f"one of {STREAMING_ENGINES}")
    if batch_interval <= 0:
        raise ValueError("batch_interval must be positive")
    if checkpoint_interval <= 0:
        raise ValueError("checkpoint_interval must be positive")
    if any(t <= 0 for t in crash_times):
        raise ValueError("crash times must be positive")
    schedule = sorted(float(t) for t in crash_times)
    strategy = (restart_strategy if restart_strategy is not None
                else FixedDelayRestart())
    strategy.validate()
    if shedding is not None:
        if engine != "flink":
            raise ValueError("shedding policies apply to the "
                             "continuous engine (flink)")
        shedding.validate()
    if batch_policy is not None:
        if engine != "spark":
            raise ValueError("batch policies apply to the micro-batch "
                             "engine (spark)")
        batch_policy.validate()
    model = model if model is not None else StreamingWorkloadModel()
    if isinstance(arrivals, ArrivalPlan):
        plan = arrivals
    else:
        plan = arrivals.compile(seed, duration)

    # Only the strict audit and a traced run read this cluster's traces.
    cluster = Cluster(nodes, seed=seed, trace_detail=(
        "full" if strict or tracer is not None else "off"))
    cluster.tracer = tracer
    checker = InvariantChecker().attach(cluster) if strict else None
    state = _StreamState(plan)
    crash_log = _new_crash_log()

    run_span = job_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "run", f"streaming-{engine}-{plan.kind}", 0.0)
    cursor = _CrashCursor(cluster.sim, schedule, strategy, seed,
                          crash_log, tracer)
    if engine == "flink":
        # Flink's paper-era network-buffer pool: 2048 buffers over
        # 16-way parallelism.
        depth = queue_depth_from_buffers(2048, 16)
        if tracer is not None:
            job_span = tracer.begin("job", "continuous-pipeline", 0.0)
        driver = _continuous_driver(
            cluster, state, model, checkpoint_interval, depth, cursor,
            shedding, crash_log)
    else:
        driver = _dstream_driver(
            cluster, state, model, batch_interval, checkpoint_interval,
            cursor, batch_policy, crash_log)
    cluster.run_process(driver)
    makespan = cluster.now

    if tracer is not None:
        if engine == "flink" and state.first_launch < math.inf:
            op = tracer.record(
                "operator", "Source->KeyBy->WindowAggregate",
                state.first_launch, state.last_completion, key="SKW",
                parent=job_span)
            for ni in sorted(state.node_windows):
                window = state.node_windows[ni]
                tracer.record("task", f"SKW@node-{ni:03d}", window[0],
                              window[1], parent=op, key="SKW", node=ni,
                              busy=state.node_busy.get(ni, 0.0))
            for i, (t, wm) in enumerate(crash_log.get("barriers", [])):
                tracer.record("operator", f"barrier-{i:03d}",
                              t - DEFAULT_BARRIER_SYNC, t, key="CKPT",
                              parent=job_span, watermark=wm)
        if job_span is not None:
            tracer.end(job_span, makespan)
        tracer.end(run_span, makespan)

    crashes = list(crash_log["crashes"])
    crashed = bool(crashes)
    job_failed = bool(crash_log["job_failed"])
    tolerance = (2.0 * plan.slice_width if engine == "flink"
                 else max(plan.slice_width, 0.25 * batch_interval))
    recovery = math.nan
    if crashed and not job_failed:
        recovery = _recovery_seconds(state.watermarks, crashes[0],
                                     crashes[-1], tolerance)
    drain = max(0.0, makespan - plan.duration)
    if crashed:
        drain = max(0.0, drain - state.downtime)
    if job_failed:
        stable = False
    elif crashed:
        stable = not math.isnan(recovery)
    elif shedding is not None:
        stable = drain <= shedding.drain_bound(plan.slice_width)
    elif batch_policy is not None:
        stable = drain <= batch_policy.drain_bound(
            batch_interval, model.batch_fixed_overhead)
    else:
        stable = drain <= stable_drain_bound(
            engine, model, batch_interval, plan.slice_width)

    samples: List[Tuple[float, float, float]] = []
    processed = 0
    lost = 0
    for k in range(plan.num_slices):
        admitted = state.admitted(k)
        completion = state.completion[k]
        if completion is None:
            lost += admitted
            continue
        processed += admitted
        if admitted == 0:
            continue
        mid = plan.slice_midpoint(k)
        floor = state.floors[k]
        if floor is None:
            floor = plan.slice_close(k) - mid
        samples.append((completion - mid, floor, float(admitted)))

    p99_bound = math.nan
    if shedding is not None:
        p99_bound = shedding.p99_bound(plan.slice_width)
    elif batch_policy is not None:
        p99_bound = batch_policy.p99_bound(batch_interval)
    controller = crash_log.get("controller")

    result = StreamingRunResult(
        engine=engine, arrival_kind=plan.kind,
        offered_rate=plan.offered_rate, duration=plan.duration,
        nodes=nodes, seed=seed, batch_interval=batch_interval,
        checkpoint_interval=checkpoint_interval,
        plan_digest=plan.digest(), total_records=plan.total_records,
        processed_records=processed, samples=samples,
        watermarks=list(state.watermarks),
        checkpoints=state.checkpoints, makespan=makespan,
        drain_seconds=drain, stable=stable,
        crash_at=(schedule[0] if schedule else None),
        crashed=crashed, replayed_records=state.replayed_records,
        recovery_seconds=recovery,
        sim_events=cluster.sim.steps_executed,
        crash_schedule=list(schedule), crashes=crashes,
        restarts=len(crash_log["restarts"]), job_failed=job_failed,
        failed_at=crash_log["failed_at"],
        downtime_seconds=state.downtime,
        dropped_records=sum(state.dropped), lost_records=lost,
        shed_events=len(state.shed_events),
        rollbacks=list(state.rollbacks),
        restart_strategy=strategy.payload(),
        policy=(shedding.payload() if shedding is not None
                else batch_policy.payload() if batch_policy is not None
                else None),
        batch_intervals=(list(controller.intervals)
                         if controller is not None else []),
        p99_bound=p99_bound)

    if checker is not None:
        checker.audit_cluster(cluster)
        checker.audit_streaming(result)
        checker.require_clean(f"streaming {engine}/{plan.kind}")

    return result

"""The cluster scheduler core: one shared cluster, many jobs.

:func:`run_tenancy` simulates a compiled :class:`TenancyPlan` of job
arrivals against one shared pool of nodes under a queue policy.  The
model is deliberately at *job* granularity: each job is a profiled
footprint (``width`` nodes wanted, ``service_seconds`` of work — see
:mod:`repro.scheduler.jobs`) and a job holding ``a <= width`` nodes
progresses at rate ``a / width`` service-seconds per second.  That
fluid-at-job-level model is what the differential tests pin:

* a lone job runs at rate exactly ``1.0`` (``a == width`` divides to
  the float ``1.0``), so its completion time is the profiled duration
  **bitwise** — single-job scheduler runs equal legacy direct runs;
* a FIFO queue with ``capacity_jobs=1`` completes jobs at the exact
  left-fold sum of their service times — the serial concatenation of
  individual runs;
* fair share over identical full-width jobs is processor sharing, so
  mean slowdown tracks the analytic M/G/1-PS ``1 / (1 - rho)``.

Everything is a deterministic event loop — arrivals, completions,
node crashes and revivals, in a fixed tie order — with no randomness
(the plan spent it at compile time) and no wall-clock reads, so a
tenancy result is digest-stable.

**Preemption** is a state transition, not a policy verb: when a
reallocation strips a *started* job to zero nodes, the core charges
the engine's loss model (mirroring :mod:`repro.faults`): Spark-style
lineage keeps completed task granules and re-executes only the
uncommitted one; Flink-0.10-style restart re-executes the whole job.
Shrinking a job without de-scheduling it costs no work — the fluid
rate just drops (executors idle, nothing is killed).  A crash on a
node assigned to a job charges the same loss and counts against the
job's restart budget (Flink's ``execution-retries`` default of 3;
Spark jobs survive unboundedly via lineage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.recovery import FlinkRestartPolicy
from ..validation.invariants import InvariantChecker
from .mix import CrashEvent, TenancyPlan
from .policies import QueueConfig

__all__ = ["AllocationSnapshot", "JobRecord", "TenancyResult",
           "jain_index", "run_tenancy"]

#: Tie order for same-instant events: machines return, machines die,
#: work arrives, work finishes — then one reallocation covers the batch.
_RANK_REVIVE, _RANK_CRASH, _RANK_ARRIVAL, _RANK_COMPLETION = 0, 1, 2, 3


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` in (0, 1]."""
    xs = [v for v in values if not math.isnan(v)]
    if not xs:
        return math.nan
    square_of_sum = sum(xs) ** 2
    sum_of_squares = sum(x * x for x in xs)
    if sum_of_squares <= 0:
        return math.nan
    return square_of_sum / (len(xs) * sum_of_squares)


@dataclass
class JobRecord:
    """One job's full scheduling history, as plain payload-able data."""

    index: int
    template: str
    engine: str
    workload: str
    queue: str
    priority: int
    width: int
    granules: int
    arrival: float
    service: float
    status: str = "active"      # terminal: completed | failed | rejected
    start: Optional[float] = None
    completion: Optional[float] = None
    end: Optional[float] = None
    wait: float = 0.0
    executed: float = 0.0
    wasted: float = 0.0
    preemptions: int = 0
    crashes: int = 0
    failure: Optional[str] = None
    #: Closed wait windows: (t0, t1, "queued" | "preempted").
    intervals: List[Tuple[float, float, str]] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        if self.status != "completed" or self.completion is None:
            return math.nan
        elapsed = self.completion - self.arrival
        return elapsed / self.service if self.service > 0 else math.nan

    def payload(self) -> Dict[str, Any]:
        return {
            "index": self.index, "template": self.template,
            "engine": self.engine, "workload": self.workload,
            "queue": self.queue, "priority": self.priority,
            "width": self.width, "granules": self.granules,
            "arrival": self.arrival, "service": self.service,
            "status": self.status, "start": self.start,
            "completion": self.completion, "end": self.end,
            "wait": self.wait, "executed": self.executed,
            "wasted": self.wasted, "preemptions": self.preemptions,
            "crashes": self.crashes, "failure": self.failure,
            "intervals": [[t0, t1, kind]
                          for t0, t1, kind in self.intervals],
        }


@dataclass
class AllocationSnapshot:
    """The allocation after one event batch (the audit's raw material)."""

    time: float
    cause: str
    capacity: int
    grants: Dict[int, int]
    eligible: Tuple[int, ...]
    queue_grants: Dict[str, int]

    def payload(self) -> Dict[str, Any]:
        return {
            "time": self.time, "cause": self.cause,
            "capacity": self.capacity,
            "grants": {str(k): v for k, v in sorted(self.grants.items())},
            "eligible": list(self.eligible),
            "queue_grants": dict(sorted(self.queue_grants.items())),
        }


@dataclass
class TenancyResult:
    """One tenancy run: per-job records + the allocation timeline."""

    policy: str
    nodes: int
    plan_digest: str
    records: List[JobRecord]
    snapshots: List[AllocationSnapshot]
    queue_quotas: Dict[str, Optional[int]]
    makespan: float
    busy_node_seconds: float
    events: int

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "completed")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.status == "rejected")

    def slowdowns(self) -> List[float]:
        """Per-job slowdowns in arrival order (completed jobs only)."""
        return [r.slowdown for r in self.records
                if r.status == "completed"]

    def waits(self) -> List[float]:
        """Per-job queue+preemption wait in arrival order (admitted)."""
        return [r.wait for r in self.records if r.status != "rejected"]

    def jain(self) -> float:
        return jain_index(self.slowdowns())

    def utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.busy_node_seconds / (self.nodes * self.makespan)

    def payload(self) -> Dict[str, Any]:
        return {
            "policy": self.policy, "nodes": self.nodes,
            "plan_digest": self.plan_digest,
            "records": [r.payload() for r in self.records],
            "snapshots": [s.payload() for s in self.snapshots],
            "queue_quotas": dict(sorted(self.queue_quotas.items())),
            "makespan": self.makespan,
            "busy_node_seconds": self.busy_node_seconds,
            "events": self.events,
        }


# ----------------------------------------------------------------------
# engine loss models (the repro.faults recovery semantics, at job grain)
# ----------------------------------------------------------------------
def _apply_loss(job: JobRecord) -> None:
    """Charge a de-schedule/crash to the job, engine-specifically."""
    progress = job.service - job.remaining  # type: ignore[attr-defined]
    if job.engine == "spark":
        # Lineage re-execution: completed granules survive, only the
        # uncommitted partial granule is recomputed.
        granule = job.service / job.granules
        committed = math.floor(progress / granule) * granule
    else:
        # Flink 0.10 full-pipeline restart: everything is recomputed.
        committed = 0.0
    lost = progress - committed
    job.wasted += lost
    job.remaining = job.service - committed  # type: ignore[attr-defined]


def _restart_budget(engine: str) -> Optional[int]:
    """De-schedules + crashes a job survives before it is failed."""
    if engine == "flink":
        return FlinkRestartPolicy().max_restarts
    return None  # spark: lineage re-execution, no job-level budget


# ----------------------------------------------------------------------
# the event loop
# ----------------------------------------------------------------------
def run_tenancy(plan: TenancyPlan, policy, services: Dict[str, float],
                nodes: int = 8,
                queues: Sequence[QueueConfig] = (),
                crashes: Sequence[CrashEvent] = (),
                restart_budget="engine",
                tracer=None,
                strict: bool = False) -> TenancyResult:
    """Simulate a tenancy plan on ``nodes`` shared nodes under ``policy``.

    ``services`` maps template names to profiled service seconds (see
    :func:`repro.scheduler.jobs.profile_templates`).  ``queues``
    configures quotas and admission; unnamed queues are unlimited.
    ``crashes`` is an absolute :data:`~repro.scheduler.mix.CrashEvent`
    schedule.  ``restart_budget`` is ``"engine"`` (Flink 3, Spark
    unlimited — the :mod:`repro.faults` defaults), ``None`` (unlimited)
    or an integer override.

    ``tracer`` records a run span, one ``job`` span per admitted job
    and a ``queued``/``preempted`` child span per wait window, so
    per-job wait time is attributable in the span tree.  In ``strict``
    mode the result is audited by
    :meth:`~repro.validation.invariants.InvariantChecker.audit_scheduling`
    before it is returned.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    queue_map = {qc.name: qc for qc in queues}
    for template in plan.templates:
        if template.name not in services:
            raise ValueError(
                f"no profiled service for template {template.name!r}")
        if template.width > nodes:
            raise ValueError(
                f"template {template.name!r} wants {template.width} "
                f"node(s) on a {nodes}-node cluster")

    jobs: List[JobRecord] = []
    for index, (at, tpl_index) in enumerate(plan.arrivals):
        template = plan.templates[tpl_index]
        job = JobRecord(
            index=index, template=template.name, engine=template.engine,
            workload=template.workload, queue=template.queue,
            priority=template.priority, width=template.width,
            granules=template.granules, arrival=at,
            service=float(services[template.name]), status="pending")
        job.remaining = job.service  # type: ignore[attr-defined]
        job.alloc = 0                # type: ignore[attr-defined]
        job.wait_open = None         # type: ignore[attr-defined]
        job.wait_kind = "queued"     # type: ignore[attr-defined]
        jobs.append(job)

    def budget_for(job: JobRecord) -> Optional[int]:
        if restart_budget == "engine":
            return _restart_budget(job.engine)
        return restart_budget

    # Fault timeline: crashes plus derived revivals, rank-ordered.
    fault_events: List[Tuple[float, int, int]] = []
    for at, node, restart_after in crashes:
        if not 0 <= node < nodes:
            raise ValueError(f"crash names node {node} of {nodes}")
        fault_events.append((at, _RANK_CRASH, node))
        if restart_after is not None:
            fault_events.append((at + restart_after, _RANK_REVIVE, node))
    fault_events.sort()

    alive = [True] * nodes
    assignment: List[Optional[int]] = [None] * nodes
    snapshots: List[AllocationSnapshot] = []
    now = 0.0
    busy = 0.0
    events = 0
    arr_i = 0
    fault_i = 0

    def release_nodes(job: JobRecord) -> None:
        for n in range(nodes):
            if assignment[n] == job.index:
                assignment[n] = None

    def close_wait(job: JobRecord, at: float) -> None:
        if job.wait_open is not None:          # type: ignore[attr-defined]
            t0 = job.wait_open                 # type: ignore[attr-defined]
            if at > t0:
                job.intervals.append((t0, at, job.wait_kind))  # type: ignore[attr-defined]
            job.wait_open = None               # type: ignore[attr-defined]

    def fail_job(job: JobRecord, reason: str) -> None:
        job.status = "failed"
        job.failure = reason
        job.end = now
        job.alloc = 0                          # type: ignore[attr-defined]
        close_wait(job, now)
        release_nodes(job)

    def reallocate(cause: str) -> None:
        charged: set = set()  # one preemption charge per job per batch
        while True:
            runnable = [j for j in jobs if j.status == "active"]
            capacity = sum(alive)
            grants, eligible, queue_grants = policy.allocate(
                runnable, capacity, queue_map)
            exhausted: List[JobRecord] = []
            for job in runnable:
                if grants.get(job.index, 0) == 0 and job.alloc > 0 \
                        and job.start is not None \
                        and job.index not in charged:  # type: ignore[attr-defined]
                    charged.add(job.index)
                    job.preemptions += 1
                    _apply_loss(job)
                    budget = budget_for(job)
                    if budget is not None and \
                            job.preemptions + job.crashes > budget:
                        exhausted.append(job)
            if exhausted:
                for job in exhausted:
                    fail_job(job, f"restart budget exhausted after "
                                  f"{job.preemptions} preemption(s) and "
                                  f"{job.crashes} crash(es)")
                continue  # redistribute the failed jobs' nodes
            break
        # Apply the grants: stable node assignment (keep held nodes,
        # release highest indices first, fill from the lowest free).
        for job in runnable:
            new = grants.get(job.index, 0)
            held = [n for n in range(nodes) if assignment[n] == job.index]
            for n in held[new:]:
                assignment[n] = None
        free = [n for n in range(nodes)
                if alive[n] and assignment[n] is None]
        for job in runnable:
            new = grants.get(job.index, 0)
            held = sum(1 for n in range(nodes)
                       if assignment[n] == job.index)
            while held < new:
                assignment[free.pop(0)] = job.index
                held += 1
            old = job.alloc                    # type: ignore[attr-defined]
            if old == 0 and new > 0:
                if job.start is None:
                    job.start = now
                close_wait(job, now)
            elif old > 0 and new == 0:
                job.wait_open = now            # type: ignore[attr-defined]
                job.wait_kind = "preempted"    # type: ignore[attr-defined]
            job.alloc = new                    # type: ignore[attr-defined]
        snapshots.append(AllocationSnapshot(
            time=now, cause=cause, capacity=sum(alive),
            grants=dict(grants), eligible=eligible,
            queue_grants=dict(queue_grants)))

    while True:
        t_arrival = (plan.arrivals[arr_i][0]
                     if arr_i < len(plan.arrivals) else math.inf)
        t_fault = (fault_events[fault_i][0]
                   if fault_i < len(fault_events) else math.inf)
        t_done = math.inf
        for job in jobs:
            if job.status == "active" and job.alloc > 0:  # type: ignore[attr-defined]
                rate = job.alloc / job.width   # type: ignore[attr-defined]
                t_done = min(t_done, now + job.remaining / rate)  # type: ignore[attr-defined]
        t_next = min(t_arrival, t_fault, t_done)
        if t_next == math.inf:
            break
        dt = t_next - now
        completions: List[JobRecord] = []
        for job in jobs:
            if job.status != "active":
                continue
            if job.alloc > 0:                  # type: ignore[attr-defined]
                rate = job.alloc / job.width   # type: ignore[attr-defined]
                busy += job.alloc * dt         # type: ignore[attr-defined]
                if now + job.remaining / rate == t_next:  # type: ignore[attr-defined]
                    # Exact completion: transfer the remainder verbatim
                    # so a lone job (rate 1.0) finishes at the profiled
                    # duration bitwise.
                    job.executed += job.remaining  # type: ignore[attr-defined]
                    job.remaining = 0.0        # type: ignore[attr-defined]
                    completions.append(job)
                else:
                    step = rate * dt
                    job.executed += step
                    job.remaining -= step      # type: ignore[attr-defined]
            else:
                job.wait += dt
        now = t_next

        causes = []
        while fault_i < len(fault_events) \
                and fault_events[fault_i][0] == t_next \
                and fault_events[fault_i][1] == _RANK_REVIVE:
            _t, _rank, node = fault_events[fault_i]
            fault_i += 1
            events += 1
            if not alive[node]:
                alive[node] = True
                causes.append("revive")
        while fault_i < len(fault_events) \
                and fault_events[fault_i][0] == t_next \
                and fault_events[fault_i][1] == _RANK_CRASH:
            _t, _rank, node = fault_events[fault_i]
            fault_i += 1
            events += 1
            if not alive[node]:
                continue  # already down: the crash is absorbed
            alive[node] = False
            causes.append("crash")
            victim_index = assignment[node]
            assignment[node] = None
            if victim_index is not None:
                victim = jobs[victim_index]
                victim.alloc -= 1              # type: ignore[attr-defined]
                victim.crashes += 1
                _apply_loss(victim)
                budget = budget_for(victim)
                if budget is not None and \
                        victim.preemptions + victim.crashes > budget:
                    fail_job(victim, f"restart budget exhausted after "
                                     f"{victim.preemptions} preemption(s) "
                                     f"and {victim.crashes} crash(es)")
                elif victim.alloc == 0:        # type: ignore[attr-defined]
                    victim.wait_open = now     # type: ignore[attr-defined]
                    victim.wait_kind = "preempted"  # type: ignore[attr-defined]
        while arr_i < len(plan.arrivals) \
                and plan.arrivals[arr_i][0] == t_next:
            job = jobs[arr_i]
            arr_i += 1
            events += 1
            causes.append("arrival")
            qc = queue_map.get(job.queue)
            if qc is not None and qc.max_jobs is not None:
                active_in_queue = sum(
                    1 for j in jobs
                    if j.queue == job.queue and j.status == "active")
                if active_in_queue >= qc.max_jobs:
                    job.status = "rejected"
                    job.end = now
                    job.failure = (f"admission: queue {job.queue!r} at "
                                   f"max_jobs={qc.max_jobs}")
                    continue
            job.status = "active"
            job.wait_open = now                # type: ignore[attr-defined]
            job.wait_kind = "queued"           # type: ignore[attr-defined]
        for job in completions:
            if job.status != "active":
                continue  # failed by a same-instant crash after finishing
            events += 1
            causes.append("completion")
            job.status = "completed"
            job.completion = now
            job.end = now
            job.alloc = 0                      # type: ignore[attr-defined]
            release_nodes(job)
        if causes:
            reallocate("+".join(sorted(set(causes))))

    # Anything still active is starved for good (e.g. every node dead
    # with no revival scheduled): no event can ever progress it.
    for job in jobs:
        if job.status == "active":
            fail_job(job, "starved: cluster capacity exhausted")
        elif job.status == "pending":
            job.status = "rejected"
            job.failure = "plan ended before arrival"

    terminal_times = [j.end for j in jobs if j.end is not None]
    makespan = max(terminal_times) if terminal_times else now

    result = TenancyResult(
        policy=getattr(policy, "name", type(policy).__name__),
        nodes=nodes, plan_digest=plan.digest(), records=jobs,
        snapshots=snapshots,
        queue_quotas={qc.name: qc.quota for qc in queues},
        makespan=makespan, busy_node_seconds=busy, events=events)

    if tracer is not None:
        _record_spans(tracer, result)
    if strict:
        checker = InvariantChecker()
        checker.audit_scheduling(result)
        checker.require_clean(
            f"tenancy/{result.policy} x{nodes} ({len(jobs)} job(s))")
    return result


def _record_spans(tracer, result: TenancyResult) -> None:
    """Record the run/job/queued/preempted span tree post-hoc.

    The tracer only receives timestamps the simulation already
    produced, so attaching one cannot change the result (the same
    clock-reads-only contract as the engine tracers).
    """
    run_span = tracer.begin("run", f"tenancy/{result.policy}", 0.0)
    for record in result.records:
        if record.status == "rejected":
            continue
        end = record.end if record.end is not None else result.makespan
        job_span = tracer.record(
            "job", f"{record.template}#{record.index}",
            record.arrival, end, parent=run_span,
            node=None, preemptions=float(record.preemptions),
            wait=record.wait, wasted=record.wasted)
        for t0, t1, kind in record.intervals:
            tracer.record(kind, f"{kind}:{record.template}#{record.index}",
                          t0, t1, parent=job_span)
    tracer.end(run_span, max(result.makespan, 0.0))

"""Runtime invariant checking for the cluster simulator.

An :class:`InvariantChecker` hooks into a running simulation at two
levels:

* **online** — as a kernel observer it checks causal event ordering on
  every heap pop, and as the fluid scheduler's ``checker`` it audits
  every max–min reallocation for fairness, work conservation and rate
  caps *at the moment the rates are computed*;
* **post-hoc** — after a run, :meth:`audit_cluster` verifies flow byte
  conservation against each capacity's throughput trace, bounded
  utilisation, memory-account balance and core-pool sanity, while
  :meth:`audit_engine` and :meth:`audit_frames` cover the framework
  memory models and the resampled monitoring panels.

Violations are *collected*, not raised, so one run reports everything
wrong with it; callers end with :meth:`require_clean`, which raises
:class:`InvariantViolation` listing every recorded problem.

The max–min fairness test uses the classical characterisation: an
allocation is max–min fair iff every flow is either at its own rate cap
or crosses a **saturated bottleneck** capacity on which its rate is
maximal.  Progressive filling (what :class:`~repro.cluster.fluid.
FluidScheduler` implements) provably produces such an allocation, so
any violation indicates a scheduler bug, not model noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.simulation import SimulationError
from ..cluster.trace import check_series_bounds

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
]


class InvariantViolation(SimulationError):
    """One or more simulator invariants were broken during a run."""

    def __init__(self, context: str, violations: List[str]) -> None:
        listing = "\n  - ".join(violations)
        super().__init__(
            f"{len(violations)} invariant violation(s) in {context}:\n"
            f"  - {listing}")
        self.context = context
        self.violations = list(violations)


class InvariantChecker:
    """Collects invariant violations from a simulated run.

    ``tolerance`` is a *relative* slack applied to every floating-point
    comparison; rate and byte comparisons additionally scale it by the
    magnitude of the quantities involved, so a violation always means a
    modelling error, never float noise.
    """

    #: Stop recording after this many violations (a broken allocator
    #: would otherwise produce one per event).
    MAX_RECORDED = 64

    def __init__(self, tolerance: float = 1e-6) -> None:
        self.tolerance = tolerance
        self.violations: List[str] = []
        self.suppressed = 0
        #: How many times each check ran (observability + tests).
        self.checks: Dict[str, int] = {
            "kernel_step": 0,
            "max_min": 0,
            "cluster_audit": 0,
            "engine_audit": 0,
            "frame_audit": 0,
            "fault_audit": 0,
            "streaming_audit": 0,
            "scheduling_audit": 0,
            "serving_audit": 0,
        }
        self._last_pop_time = 0.0

    # ------------------------------------------------------------------
    def _record(self, message: str) -> None:
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(message)
        else:
            self.suppressed += 1

    @property
    def clean(self) -> bool:
        return not self.violations and not self.suppressed

    def require_clean(self, context: str) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if not self.clean:
            violations = list(self.violations)
            if self.suppressed:
                violations.append(
                    f"... and {self.suppressed} further violation(s) "
                    f"suppressed")
            raise InvariantViolation(context, violations)

    # ------------------------------------------------------------------
    # online hooks
    # ------------------------------------------------------------------
    def attach(self, cluster) -> "InvariantChecker":
        """Wire this checker into a cluster's kernel and fluid scheduler."""
        cluster.sim.observers.append(self)
        cluster.fluid.checker = self
        return self

    def detach(self, cluster) -> None:
        if self in cluster.sim.observers:
            cluster.sim.observers.remove(self)
        if cluster.fluid.checker is self:
            cluster.fluid.checker = None

    def on_kernel_step(self, sim, time: float, event, pre_triggered: bool,
                       cancelled: bool) -> None:
        """Causal ordering: the clock never runs backwards, and a live
        event is dispatched exactly once."""
        self.checks["kernel_step"] += 1
        if time < self._last_pop_time:
            self._record(
                f"kernel: event at t={time} popped after t="
                f"{self._last_pop_time} (clock ran backwards)")
        self._last_pop_time = time
        if not cancelled and event.triggered:
            self._record(
                f"kernel: event {event!r} dispatched twice at t={time}")

    def check_max_min(self, scheduler, component) -> None:
        """Audit one freshly computed allocation over a component.

        Checks no oversubscribed capacity, then per flow: a non-negative
        rate, its rate cap, and the max–min characterisation (every flow
        is capped or bottlenecked at a saturated capacity where its rate
        is maximal — which also implies work conservation).  Every slack
        is ``tolerance * max(1, x)`` for the quantity ``x`` compared.

        A one-flow component whose capacities carry no other flow (what
        every uncontended solve produces) gets a scalar verdict: there
        the flow's rate is each capacity's aggregate and maximum, and
        the effective bandwidth is the nominal one, so the same
        comparisons need no container.  Anything but a clean verdict
        falls through to the general pass, which records the messages.
        """
        self.checks["max_min"] += 1
        tol = self.tolerance
        if len(component) == 1:
            (flow,) = component
            rate = flow.rate
            rate_slack = tol * (rate if rate > 1.0 else 1.0)
            clean = not rate < -rate_slack
            fair = False  # capped, or bottlenecked on some capacity
            rate_cap = flow.rate_cap
            if rate_cap is not None:
                cap_slack = tol * (rate_cap if rate_cap > 1.0 else 1.0)
                clean = clean and not rate > rate_cap + cap_slack
                fair = rate >= rate_cap - cap_slack
            # The lone flow's rate is the maximum on each capacity: a
            # clause that NaN and infinite rates still fail.
            maximal = rate >= rate - rate_slack
            if clean:
                for cap in flow.capacities:
                    members = cap.flows
                    if len(members) != 1 or flow not in members:
                        break
                    bw = cap.bandwidth
                    bw_slack = tol * (bw if bw > 1.0 else 1.0)
                    if rate > bw + bw_slack:
                        break  # oversubscribed
                    if maximal and rate >= bw - bw_slack:
                        fair = True
                else:
                    if fair:
                        return

        # The rate a flow needs on each capacity to count as bottlenecked
        # there (its maximum rate less the slack); None if not saturated.
        need = {}
        for flow in component:
            for cap in flow.capacities:
                if cap in need:
                    continue
                rates = [f.rate for f in cap.flows]
                total = sum(rates)
                n = len(rates)
                eff = cap.bandwidth
                if n > 1 and cap.contention_alpha != 0.0:
                    eff = eff / (1.0 + cap.contention_alpha * (n - 1))
                slack = tol * (eff if eff > 1.0 else 1.0)
                if total > eff + slack:
                    self._record(
                        f"fluid: capacity {cap.name} oversubscribed: "
                        f"{total} > effective bandwidth {eff}")
                if total >= eff - slack:
                    top = max(rates, default=0.0)
                    need[cap] = top - tol * (top if top > 1.0 else 1.0)
                else:
                    need[cap] = None

        for flow in component:
            rate = flow.rate
            if rate < -tol * (rate if rate > 1.0 else 1.0):
                self._record(f"fluid: flow #{flow.id} has negative rate "
                             f"{rate}")
                continue
            rate_cap = flow.rate_cap
            if rate_cap is not None:
                cap_slack = tol * (rate_cap if rate_cap > 1.0 else 1.0)
                if rate > rate_cap + cap_slack:
                    self._record(
                        f"fluid: flow #{flow.id} rate {rate} exceeds "
                        f"its cap {rate_cap}")
                if rate >= rate_cap - cap_slack:
                    continue  # frozen at its own cap: max-min satisfied
            for cap in flow.capacities:
                threshold = need[cap]
                if threshold is not None and rate >= threshold:
                    break
            else:
                self._record(
                    f"fluid: flow #{flow.id} (rate {rate}, cap "
                    f"{rate_cap}) is neither capped nor bottlenecked "
                    f"— allocation is not max-min fair / work-conserving")

    # ------------------------------------------------------------------
    # post-run audits
    # ------------------------------------------------------------------
    def audit_cluster(self, cluster) -> None:
        """Byte conservation, bounded traces and memory balance."""
        self.checks["cluster_audit"] += 1
        now = cluster.sim.now
        moved = cluster.fluid.moved_bytes_by_capacity()
        for node in cluster.nodes:
            for cap in (node.cpu, node.disk, node.nic_in, node.nic_out):
                integral = cap.throughput.integral(0.0, now) if now > 0 else 0.0
                expected = moved.get(cap.name, 0.0)
                scale = max(integral, expected, 1.0)
                # Completions may settle up to 1ns early (the wakeup
                # heap's coalescing window), each leaving < bandwidth*1e-9
                # bytes of slack; 4 KiB + 1e-6 relative covers any run.
                slack = max(4096.0, self.tolerance * scale)
                if abs(integral - expected) > slack:
                    self._record(
                        f"fluid: {cap.name} moved {expected} bytes but its "
                        f"throughput trace integrates to {integral} "
                        f"(byte conservation broken)")
                for problem in check_series_bounds(
                        cap.utilisation, f"{cap.name}.utilisation",
                        0.0, 100.0, tolerance=self.tolerance):
                    self._record(problem)
                for problem in check_series_bounds(
                        cap.throughput, f"{cap.name}.throughput",
                        0.0,
                        # Fault injection may leave the capacity degraded
                        # at audit time; earlier points were legitimately
                        # allocated at the undegraded bandwidth.
                        max(cap.bandwidth, getattr(cap, "bw_high_water",
                                                   cap.bandwidth)),
                        tolerance=self.tolerance):
                    self._record(problem)
            mem_tol = max(1.0, node.memory.peak * 1e-9)
            for problem in node.memory.audit(tolerance=mem_tol):
                self._record(f"memory: {problem}")

    def audit_engine(self, engine) -> None:
        """Audit a framework's memory model."""
        self.checks["engine_audit"] += 1
        memory = getattr(engine, "memory", None)
        if memory is not None and hasattr(memory, "audit"):
            for problem in memory.audit():
                self._record(f"engine memory: {problem}")

    def audit_result(self, result) -> None:
        """Structural sanity of a finished run's timeline."""
        if result.end < result.start:
            self._record(
                f"result: run ends at {result.end} before it starts at "
                f"{result.start}")
        for job in result.jobs:
            if job.end < job.start:
                self._record(
                    f"result: job {job.name!r} ends at {job.end} before "
                    f"it starts at {job.start}")

    def audit_faults(self, state, max_attempts: Optional[int] = None) -> None:
        """Audit a faulted run's bookkeeping.

        Checks the task-conservation ledger (every closed stage account
        balances: retries neither lose nor duplicate work, and attempt
        counts respect the retry policy), and that every degraded-
        capacity trace stays a sane fraction (0 < f <= 1) whose final
        value matches the capacity's current bandwidth relative to the
        node's healthy baseline.
        """
        self.checks["fault_audit"] += 1
        for problem in state.ledger.audit(tolerance=self.tolerance,
                                          max_attempts=max_attempts):
            self._record(f"faults: {problem}")
        for (node_index, resource), series in \
                sorted(state.capacity_traces.items()):
            name = f"node-{node_index:03d}.{resource}"
            for problem in check_series_bounds(
                    series, f"faults: {name}.capacity_fraction",
                    0.0, 1.0, tolerance=self.tolerance):
                self._record(problem)
            if series.last_value <= 0.0:
                self._record(
                    f"faults: {name} capacity fraction dropped to "
                    f"{series.last_value} (dead resources must keep a "
                    f"positive epsilon bandwidth)")
            node = state.cluster.node(node_index)
            baseline = node.baseline_bandwidth(resource)
            actual = node.capacity_for(resource).bandwidth
            expected = series.last_value * baseline
            if abs(actual - expected) > self.tolerance * max(1.0, baseline):
                self._record(
                    f"faults: {name} bandwidth is {actual} but the fault "
                    f"trace says it should be {expected} "
                    f"({series.last_value:.3g} of baseline {baseline})")

    def audit_streaming(self, result) -> None:
        """Audit a finished streaming run's accounting and timelines.

        Checks, in order: exact record conservation (``total ==
        processed + dropped + lost`` with ``lost`` only on a failed
        job), sample-weight/latency-floor sanity, watermark timeline
        ordering with value regressions allowed *only* at sanctioned
        restart-rollback times, restart/crash count balance, and —
        when a degradation policy promises one — a finite p99 within
        the policy's bound (plus crash downtime and one checkpoint
        interval of lineage replay per crash).
        """
        import math
        self.checks["streaming_audit"] += 1
        total = result.total_records
        accounted = (result.processed_records + result.dropped_records
                     + result.lost_records)
        if accounted != total:
            self._record(
                f"streaming: record conservation broken: "
                f"{result.processed_records} processed + "
                f"{result.dropped_records} dropped + "
                f"{result.lost_records} lost != {total} ingested")
        if result.lost_records > 0 and not result.job_failed:
            self._record(
                f"streaming: {result.lost_records} records lost but the "
                f"job did not fail (only a failed job may lose "
                f"admitted records)")
        weight_sum = sum(w for _l, _f, w in result.samples)
        if abs(weight_sum - result.processed_records) > 1e-6:
            self._record(
                f"streaming: sample weights sum to {weight_sum} but "
                f"{result.processed_records} records were processed")
        for latency, floor, weight in result.samples:
            if weight <= 0:
                self._record(
                    f"streaming: sample with non-positive weight {weight}")
                break
            if floor < -1e-9 or latency < floor - 1e-9:
                self._record(
                    f"streaming: latency {latency} below its "
                    f"architectural floor {floor}")
                break
        rollbacks = list(result.rollbacks)
        prev_t = -math.inf
        prev_wm = -math.inf
        for t, wm in result.watermarks:
            if t < prev_t - 1e-9:
                self._record(
                    f"streaming: watermark timeline runs backwards "
                    f"({prev_t} -> {t})")
                break
            if wm < prev_wm - 1e-9 and not any(
                    abs(t - rb) <= 1e-9 for rb in rollbacks):
                self._record(
                    f"streaming: watermark regressed {prev_wm} -> {wm} "
                    f"at t={t} outside any restart rollback")
                break
            prev_t, prev_wm = t, wm
        expected_restarts = (len(result.crashes)
                             - (1 if result.job_failed else 0))
        if result.restarts != expected_restarts:
            self._record(
                f"streaming: {result.restarts} restart(s) recorded for "
                f"{len(result.crashes)} crash(es) "
                f"(job_failed={result.job_failed})")
        if math.isfinite(result.p99_bound) and not result.job_failed:
            p99 = result.percentile(99)
            # Every crash can roll processing back by up to one
            # checkpoint interval of lineage replay, and the delays
            # compound for records caught in successive rollbacks, so
            # the crash allowance scales with the crash count.
            allowance = (result.p99_bound + result.downtime_seconds
                         + len(result.crashes) * result.checkpoint_interval)
            if not math.isfinite(p99) or p99 > allowance:
                self._record(
                    f"streaming: p99 latency {p99} exceeds the active "
                    f"policy's bound {result.p99_bound} "
                    f"(+{allowance - result.p99_bound:.3g} crash "
                    f"allowance)")

    def audit_serving(self, snapshot) -> None:
        """Audit a :class:`~repro.serve.ledger.ServingLedger` snapshot.

        The serving counterpart of :meth:`audit_streaming`'s record
        conservation: every request the service received must sit in
        exactly one terminal bucket, and the buckets must balance.

        Checks, in order: non-negative counters; **request
        conservation** (``received == admitted + rejected_invalid +
        rejected_slow`` and ``admitted == completed + shed + failed +
        in_flight``); shed/failed decompositions (``shed ==
        shed_queue_full + shed_breaker + shed_drain``, ``failed ==
        failed_deadline + failed_worker + failed_internal``); cache-hit
        completions and cache hits/misses/quarantines within their
        lookup totals (a quarantined entry must have counted as a
        miss, never a hit); breaker recoveries needing trips;
        **simulation-attempt conservation** (``sim_attempts == sim_ok +
        sim_crashed + sim_timeout + sim_error + sim_cancelled`` and
        every crash/timeout either retried or exhausted); and — after
        a drain (``draining=True``) — an empty house (``in_flight ==
        0``).
        """
        self.checks["serving_audit"] += 1
        s = dict(snapshot)
        for name, value in s.items():
            if isinstance(value, int) and name != "in_flight" and value < 0:
                self._record(f"serving: counter {name} is negative "
                             f"({value})")
        shed = (s["shed_queue_full"] + s["shed_breaker"]
                + s["shed_drain"])
        failed = (s["failed_deadline"] + s["failed_worker"]
                  + s["failed_internal"])
        if s.get("shed", shed) != shed:
            self._record(f"serving: shed total {s['shed']} != "
                         f"queue_full {s['shed_queue_full']} + breaker "
                         f"{s['shed_breaker']} + drain {s['shed_drain']}")
        if s.get("failed", failed) != failed:
            self._record(f"serving: failed total {s['failed']} != "
                         f"deadline {s['failed_deadline']} + worker "
                         f"{s['failed_worker']} + internal "
                         f"{s['failed_internal']}")
        if s["received"] != (s["admitted"] + s["rejected_invalid"]
                             + s["rejected_slow"]):
            self._record(
                f"serving: request conservation broken at admission: "
                f"{s['admitted']} admitted + {s['rejected_invalid']} "
                f"invalid + {s['rejected_slow']} slow != "
                f"{s['received']} received")
        if s["admitted"] != s["completed"] + shed + failed + s["in_flight"]:
            self._record(
                f"serving: request conservation broken after admission: "
                f"{s['completed']} completed + {shed} shed + {failed} "
                f"failed + {s['in_flight']} in flight != "
                f"{s['admitted']} admitted")
        if s["in_flight"] < 0:
            self._record(f"serving: in_flight gauge is negative "
                         f"({s['in_flight']})")
        if s["completed_cache_hits"] > s["completed"]:
            self._record(
                f"serving: {s['completed_cache_hits']} cache-hit "
                f"completions exceed {s['completed']} completions")
        if s["cache_hits"] + s["cache_misses"] != s["cache_lookups"]:
            self._record(
                f"serving: cache hits {s['cache_hits']} + misses "
                f"{s['cache_misses']} != lookups {s['cache_lookups']}")
        if s["cache_quarantined"] > s["cache_misses"]:
            self._record(
                f"serving: {s['cache_quarantined']} quarantined cache "
                f"entries exceed {s['cache_misses']} misses (a corrupt "
                f"entry must count as a miss, never a hit)")
        if s["breaker_recoveries"] > s["breaker_trips"]:
            self._record(
                f"serving: {s['breaker_recoveries']} breaker "
                f"recovery(ies) but only {s['breaker_trips']} trip(s)")
        accounted = (s["sim_ok"] + s["sim_crashed"] + s["sim_timeout"]
                     + s["sim_error"] + s["sim_cancelled"])
        if s["sim_attempts"] != accounted:
            self._record(
                f"serving: simulation attempt conservation broken: "
                f"{s['sim_ok']} ok + {s['sim_crashed']} crashed + "
                f"{s['sim_timeout']} timed out + {s['sim_error']} "
                f"errored + {s['sim_cancelled']} cancelled != "
                f"{s['sim_attempts']} attempts")
        if s["sim_retried"] + s["sim_exhausted"] != (s["sim_crashed"]
                                                     + s["sim_timeout"]):
            self._record(
                f"serving: every crashed/timed-out attempt must be "
                f"retried or exhausted: {s['sim_retried']} retried + "
                f"{s['sim_exhausted']} exhausted != {s['sim_crashed']} "
                f"crashed + {s['sim_timeout']} timed out")
        if s.get("draining") and s["in_flight"] != 0:
            self._record(
                f"serving: {s['in_flight']} request(s) still in flight "
                f"after the drain completed")

    def audit_scheduling(self, result) -> None:
        """Audit a finished tenancy run (:mod:`repro.scheduler`).

        Checks, in order: snapshot sanity (nondecreasing times, grants
        within width and alive capacity, per-queue totals consistent
        and never above quota), **work conservation** (capacity left
        idle only when every eligible job is already at width or its
        queue is at quota), **fair-share accuracy** (each queue and
        each job within one node of the exact fractional max–min
        share), the job **ledger** (completed + failed + rejected ==
        submitted, all statuses terminal), and per-job accounting
        (``executed == useful + wasted``, waste only with a recorded
        preemption or crash, slowdown >= 1, ordered timestamps).
        """
        import math
        self.checks["scheduling_audit"] += 1
        tol = self.tolerance
        records = {r.index: r for r in result.records}
        quotas = dict(result.queue_quotas)

        prev_time = -math.inf
        for snap in result.snapshots:
            at = f"t={snap.time:g} ({snap.cause})"
            if snap.time < prev_time - tol:
                self._record(f"scheduling: snapshot times run backwards "
                             f"({prev_time} -> {snap.time})")
            prev_time = snap.time
            if not 0 <= snap.capacity <= result.nodes:
                self._record(f"scheduling: {at}: capacity "
                             f"{snap.capacity} outside [0, {result.nodes}]")
            total = sum(snap.grants.values())
            if total > snap.capacity:
                self._record(f"scheduling: {at}: {total} node(s) granted "
                             f"on {snap.capacity} alive")
            queue_totals: Dict[str, int] = {}
            for index, grant in snap.grants.items():
                record = records.get(index)
                if record is None:
                    self._record(f"scheduling: {at}: grant for unknown "
                                 f"job #{index}")
                    continue
                if grant < 0 or grant > record.width:
                    self._record(
                        f"scheduling: {at}: job #{index} granted {grant} "
                        f"outside [0, width={record.width}]")
                queue_totals[record.queue] = \
                    queue_totals.get(record.queue, 0) + grant
            for queue in set(queue_totals) | set(snap.queue_grants):
                mine = queue_totals.get(queue, 0)
                theirs = snap.queue_grants.get(queue, 0)
                if mine != theirs:
                    self._record(
                        f"scheduling: {at}: queue {queue!r} grant total "
                        f"{theirs} disagrees with the job grants "
                        f"summing to {mine}")
            for queue, granted in snap.queue_grants.items():
                quota = quotas.get(queue)
                if quota is not None and granted > quota:
                    self._record(
                        f"scheduling: {at}: queue {queue!r} holds "
                        f"{granted} node(s) over its quota {quota}")
            if total < snap.capacity:
                for index in snap.eligible:
                    record = records.get(index)
                    if record is None:
                        continue
                    grant = snap.grants.get(index, 0)
                    if grant >= record.width:
                        continue
                    quota = quotas.get(record.queue)
                    at_quota = (quota is not None and
                                snap.queue_grants.get(record.queue, 0)
                                >= quota)
                    if not at_quota:
                        self._record(
                            f"scheduling: {at}: work conservation broken: "
                            f"{snap.capacity - total} node(s) idle while "
                            f"eligible job #{index} holds {grant} of "
                            f"width {record.width} and queue "
                            f"{record.queue!r} is under quota")
                        break
            if result.policy == "fair":
                self._audit_fair_snapshot(snap, records, quotas)

        terminal = {"completed", "failed", "rejected"}
        counts = {"completed": 0, "failed": 0, "rejected": 0}
        for record in result.records:
            if record.status not in terminal:
                self._record(f"scheduling: job #{record.index} ended the "
                             f"run in non-terminal state "
                             f"{record.status!r}")
                continue
            counts[record.status] += 1
        if sum(counts.values()) != result.submitted:
            self._record(
                f"scheduling: ledger broken: {counts['completed']} "
                f"completed + {counts['failed']} failed + "
                f"{counts['rejected']} rejected != {result.submitted} "
                f"submitted")

        for record in result.records:
            who = f"job #{record.index} ({record.template})"
            if record.executed < -tol or record.wasted < -tol:
                self._record(f"scheduling: {who} has negative accounting "
                             f"(executed={record.executed}, "
                             f"wasted={record.wasted})")
            if record.wasted > tol * max(1.0, record.service) and \
                    record.preemptions + record.crashes == 0:
                self._record(
                    f"scheduling: {who} wasted {record.wasted:.3g}s with "
                    f"no recorded preemption or crash")
            if record.status == "rejected":
                if record.start is not None or record.executed > tol:
                    self._record(f"scheduling: rejected {who} ran anyway")
                continue
            if record.status == "completed":
                scale = max(1.0, record.service + record.wasted)
                if record.completion is None:
                    self._record(f"scheduling: completed {who} has no "
                                 f"completion time")
                    continue
                if abs(record.executed
                       - (record.service + record.wasted)) > tol * scale:
                    self._record(
                        f"scheduling: {who} re-execution ledger broken: "
                        f"executed {record.executed:.6g} != service "
                        f"{record.service:.6g} + wasted "
                        f"{record.wasted:.6g}")
                if record.start is None or \
                        not (record.arrival - tol <= record.start
                             <= record.completion + tol):
                    self._record(
                        f"scheduling: {who} timestamps out of order "
                        f"(arrival={record.arrival}, "
                        f"start={record.start}, "
                        f"completion={record.completion})")
                elapsed = record.completion - record.arrival
                if elapsed < record.service - tol * max(1.0, record.service):
                    self._record(
                        f"scheduling: {who} finished in {elapsed:.6g}s, "
                        f"faster than its service time "
                        f"{record.service:.6g}s (slowdown < 1)")
                if record.wait > elapsed + tol:
                    self._record(f"scheduling: {who} waited "
                                 f"{record.wait:.6g}s of a "
                                 f"{elapsed:.6g}s lifetime")
            elif record.status == "failed" and not record.failure:
                self._record(f"scheduling: failed {who} carries no "
                             f"failure reason")

    def _audit_fair_snapshot(self, snap, records, quotas) -> None:
        """Fair policy: every queue and job within one node of its
        exact fractional max–min share."""
        from ..cluster.allocation import fractional_max_min
        tol = self.tolerance
        at = f"t={snap.time:g} ({snap.cause})"
        members: Dict[str, List] = {}
        for index in snap.eligible:
            record = records.get(index)
            if record is not None:
                members.setdefault(record.queue, []).append(record)
        names = sorted(members)
        demands = []
        for queue in names:
            want = sum(r.width for r in members[queue])
            quota = quotas.get(queue)
            demands.append(want if quota is None else min(want, quota))
        exact = fractional_max_min(demands, snap.capacity)
        for queue, share in zip(names, exact):
            granted = snap.queue_grants.get(queue, 0)
            if abs(granted - share) > 1.0 + tol:
                self._record(
                    f"scheduling: {at}: fair share broken across "
                    f"queues: {queue!r} holds {granted} node(s), exact "
                    f"share is {share:.3f}")
        for queue in names:
            jobs = sorted(members[queue],
                          key=lambda r: (r.arrival, r.index))
            inner = fractional_max_min(
                [r.width for r in jobs],
                snap.queue_grants.get(queue, 0))
            for record, share in zip(jobs, inner):
                granted = snap.grants.get(record.index, 0)
                if abs(granted - share) > 1.0 + tol:
                    self._record(
                        f"scheduling: {at}: fair share broken within "
                        f"queue {queue!r}: job #{record.index} holds "
                        f"{granted} node(s), exact share is "
                        f"{share:.3f}")

    def audit_frames(self, frames) -> None:
        """Physical bounds on resampled monitoring panels."""
        from ..monitoring.metrics import validate_frame
        self.checks["frame_audit"] += 1
        for frame in frames.values():
            for problem in validate_frame(frame, tolerance=self.tolerance):
                self._record(f"monitoring: {problem}")

    def __repr__(self) -> str:
        state = "clean" if self.clean else f"{len(self.violations)} violations"
        return f"InvariantChecker({state}, checks={self.checks})"

"""The fault-injected experiment entry point.

:func:`run_with_faults` deploys through the shared
:func:`repro.harness.runner.deploy` — fresh cluster, HDFS import,
engine deployment — then arms a fault plan on the deployment and runs
the workload with the engine's recovery machinery engaged:

* **spark** — a :class:`~repro.faults.recovery.SparkRecoveryRuntime`
  is installed on the engine; stages run fault-guarded and lost task
  shares are re-executed in-simulation;
* **flink** — any lost task fails the pipelined job; the harness
  quiesces the cluster, waits out the restart delay (and any crashed
  TaskManager's return), and re-submits, up to the restart policy's
  budget.

Relative plans are resolved against a fault-free baseline run with the
same seed, so ``NodeCrash(at=0.5, ...)`` always means "halfway through
the run this workload would otherwise have".  Strict mode attaches the
usual :class:`~repro.validation.InvariantChecker` *plus* the fault
audit (capacity rescaling bookkeeping and task-ledger conservation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config.presets import ExperimentConfig
from ..engines.common.result import EngineRunResult
from ..harness.faults import FaultRecoveryResult, run_with_failure
from ..harness.runner import Deployment, RunFailed, deploy, run_once
from ..validation.invariants import InvariantChecker
from ..workloads.base import Workload
from .injector import FaultInjector, FaultTimeline
from .plan import FaultPlan
from .recovery import (FlinkRestartPolicy, RetryPolicy,
                       SparkRecoveryRuntime, quiesce)
from .state import FaultState

__all__ = ["FaultedRunResult", "FaultComparison", "run_with_faults",
           "compare_with_analytic"]


@dataclass
class FaultedRunResult:
    """Outcome of one fault-injected run, with its recovery record."""

    engine: str
    workload: str
    nodes: int
    seed: int
    plan: FaultPlan                    # resolved (absolute times)
    baseline: EngineRunResult
    result: EngineRunResult
    timeline: FaultTimeline
    #: Flink full restarts: (failure_time, progress_lost) pairs.
    restarts: List[Tuple[float, float]] = field(default_factory=list)
    retried_units: float = 0.0
    retry_attempts: int = 0
    speculative_waste: float = 0.0
    capacity_traces: Dict[str, List[Tuple[float, float]]] = \
        field(default_factory=dict)
    ledger: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def success(self) -> bool:
        return self.result.success

    @property
    def baseline_duration(self) -> float:
        return self.baseline.duration

    @property
    def faulted_duration(self) -> float:
        """Wall-clock of the faulted run (finite even on failure)."""
        return self.result.end - self.result.start

    @property
    def recovery_overhead(self) -> float:
        """Extra seconds caused by the faults (NaN if the run died)."""
        if not self.success:
            return math.nan
        return self.faulted_duration - self.baseline_duration

    @property
    def overhead_fraction(self) -> float:
        if not self.success or self.baseline_duration <= 0:
            return math.nan
        return self.recovery_overhead / self.baseline_duration

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """Canonicalisable record for trace digests / golden replay."""
        return {
            "engine": self.engine,
            "workload": self.workload,
            "nodes": self.nodes,
            "seed": self.seed,
            "plan": self.plan.payload(),
            "success": self.success,
            "baseline_duration": self.baseline_duration,
            "faulted_duration": self.faulted_duration,
            "restarts": list(self.restarts),
            "retried_units": self.retried_units,
            "retry_attempts": self.retry_attempts,
            "speculative_waste": self.speculative_waste,
            "timeline": self.timeline.payload(),
            "capacity_traces": self.capacity_traces,
        }

    def describe(self) -> str:
        if not self.success:
            return (f"{self.engine}/{self.workload} x{self.nodes}: FAILED "
                    f"under faults after {self.faulted_duration:.1f}s "
                    f"({self.result.failure})")
        extra = []
        if self.retry_attempts:
            extra.append(f"{self.retry_attempts} task re-execution(s)")
        if self.restarts:
            extra.append(f"{len(self.restarts)} job restart(s)")
        detail = f" [{', '.join(extra)}]" if extra else ""
        return (f"{self.engine}/{self.workload} x{self.nodes}: "
                f"{self.faulted_duration:.1f}s vs {self.baseline_duration:.1f}s "
                f"baseline (+{100 * self.overhead_fraction:.0f}%){detail}")


def _flink_job_with_restarts(deployment: Deployment, state: FaultState,
                             timeline: FaultTimeline,
                             policy: FlinkRestartPolicy,
                             restarts: List[Tuple[float, float]],
                             plan_job) -> EngineRunResult:
    """Run one Flink job, restarting the whole pipeline on lost tasks."""
    engine, cluster = deployment.engine, deployment.cluster
    attempt = 0
    first_start: Optional[float] = None
    while True:
        attempt_start = cluster.now
        result = engine.run(plan_job)
        if first_start is None:
            first_start = result.start
        # The job's wall clock spans every attempt, not just the last
        # one — lost progress is the whole point of the restart model.
        result.start = first_start
        if result.success or result.failure_kind != "fault":
            return result
        failure_time = cluster.now
        torn_down = quiesce(cluster, state, result.failure or "task lost")
        attempt += 1
        if attempt > policy.max_restarts:
            timeline.record(failure_time, "job_abandoned", -1,
                            f"execution-retries budget ({policy.max_restarts}) "
                            f"exhausted")
            return result
        restarts.append((failure_time, failure_time - attempt_start))
        timeline.record(failure_time, "job_failure", -1,
                        f"pipeline lost {failure_time - attempt_start:.1f}s "
                        f"of progress; {torn_down} task(s)/flow(s) torn down")
        target = cluster.now + policy.restart_delay
        dead = state.dead_indices()
        if dead:
            revival = state.latest_revival(dead)
            if revival is None:
                timeline.record(failure_time, "job_abandoned", dead[0],
                                "crashed TaskManager never re-registers: "
                                "insufficient task slots to redeploy")
                result.failure = (f"{result.failure} (node(s) {dead} lost "
                                  f"for good: cannot redeploy the pipeline)")
                return result
            target = max(target, revival)
        cluster.sim.run(until=target)
        timeline.record(cluster.now, "job_restart", -1,
                        f"re-submitting (attempt {attempt}/"
                        f"{policy.max_restarts})")


def run_with_faults(engine_name: str, workload: Workload,
                    config: ExperimentConfig, plan: FaultPlan,
                    seed: int = 0,
                    retry_policy: Optional[RetryPolicy] = None,
                    restart_policy: Optional[FlinkRestartPolicy] = None,
                    strict: bool = False,
                    baseline: Optional[EngineRunResult] = None
                    ) -> FaultedRunResult:
    """Run a workload with faults injected into the simulation.

    ``baseline`` lets callers sweeping several plans over one scenario
    reuse a single fault-free run instead of re-running it per plan.
    """
    if baseline is None:
        baseline = run_once(engine_name, workload, config, seed=seed,
                            strict=strict)
    if not baseline.success:
        raise RunFailed(
            f"fault-free baseline failed ({baseline.failure}); pick a "
            f"configuration that succeeds before injecting faults")
    resolved = plan.resolve(baseline.duration)

    checker = InvariantChecker() if strict else None
    # Only the strict audits read the faulted cluster's traces.
    deployment = deploy(engine_name, workload, config, seed=seed,
                        trace_detail="off" if checker is None else "full")
    cluster = deployment.cluster
    state = FaultState(cluster)
    cluster.fault_state = state
    if checker is not None:
        checker.attach(cluster)
    timeline = FaultTimeline()
    injector = FaultInjector(cluster, resolved, state, timeline)
    injector.arm()

    restarts: List[Tuple[float, float]] = []
    run_job = None
    if engine_name == "spark":
        deployment.engine.recovery = SparkRecoveryRuntime(
            cluster, state, timeline, retry_policy)
    else:
        restart_policy = restart_policy or FlinkRestartPolicy()
        restart_policy.validate()
        run_job = functools.partial(_flink_job_with_restarts, deployment,
                                    state, timeline, restart_policy,
                                    restarts)
    merged = deployment.run(workload, run_job)

    ledger = state.ledger
    faulted = FaultedRunResult(
        engine=engine_name, workload=workload.name, nodes=config.nodes,
        seed=seed, plan=resolved, baseline=baseline, result=merged,
        timeline=timeline, restarts=restarts,
        retried_units=ledger.total_retried,
        retry_attempts=ledger.total_attempts,
        speculative_waste=ledger.total_speculative_waste,
        capacity_traces=state.capacity_payload(),
        ledger=ledger.payload())

    if checker is not None:
        max_attempts = None
        if engine_name == "spark":
            max_attempts = (retry_policy or RetryPolicy()).max_retries
        checker.audit_faults(state, max_attempts=max_attempts)
        deployment.audit(
            checker, merged,
            f"faulted {engine_name}/{workload.name} x{config.nodes} "
            f"seed={seed}")
    return faulted


# ----------------------------------------------------------------------
# differential check: simulated recovery vs the analytic estimate
# ----------------------------------------------------------------------
@dataclass
class FaultComparison:
    """Simulated vs analytic recovery cost for a single node crash."""

    simulated: FaultedRunResult
    analytic: FaultRecoveryResult

    @property
    def simulated_total(self) -> float:
        return self.simulated.faulted_duration

    @property
    def analytic_total(self) -> float:
        return self.analytic.total_seconds

    @property
    def relative_gap(self) -> float:
        """(simulated - analytic) / analytic."""
        if self.analytic_total <= 0:
            return math.nan
        return (self.simulated_total - self.analytic_total) / \
            self.analytic_total

    def describe(self) -> str:
        return (f"{self.simulated.engine}/{self.simulated.workload}: "
                f"simulated {self.simulated_total:.1f}s vs analytic "
                f"{self.analytic_total:.1f}s "
                f"({100 * self.relative_gap:+.1f}%)")


def compare_with_analytic(engine_name: str, workload: Workload,
                          config: ExperimentConfig,
                          fail_at_fraction: float = 0.5,
                          node: int = 0, seed: int = 0,
                          strict: bool = False) -> FaultComparison:
    """Run the single-crash scenario both ways.

    The simulated side uses process-kill semantics
    (``restart_after=0``: work and local outputs are lost, the machine
    rejoins immediately) and zero scheduling delays, matching the
    assumptions of the analytic model, which knows nothing of backoff
    or restart delays.  The documented agreement tolerance lives in the
    differential tests (``tests/faults/``).
    """
    plan = FaultPlan.single_crash(fail_at_fraction, node=node,
                                  restart_after=0.0)
    simulated = run_with_faults(
        engine_name, workload, config, plan, seed=seed,
        retry_policy=RetryPolicy(backoff=0.0),
        restart_policy=FlinkRestartPolicy(restart_delay=0.0),
        strict=strict)
    analytic = run_with_failure(engine_name, workload, config,
                                fail_at_fraction=fail_at_fraction,
                                seed=seed)
    return FaultComparison(simulated=simulated, analytic=analytic)

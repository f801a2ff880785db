"""Experiment runner: the paper's per-experiment cycle (§V).

"For every experiment we follow the same cycle.  We install Hadoop
(HDFS) and we configure a standalone setup of Flink and Spark.  We
import the analyzed dataset and we execute on average 5 runs for each
experiment.  For each run we measure the time necessary to finish the
execution excluding the time to start and stop the cluster ... We make
sure to clear the OS buffer cache and temporary generated data or logs
before a new execution starts."

:func:`deploy` is that cycle's deployment step, and the only one in
the package: a fresh simulated cluster (fresh cluster == cleared
caches), HDFS with the dataset imported, and the standalone engine.
:meth:`Deployment.run` executes the workload's jobs and
:meth:`Deployment.audit` checks the finished run.  Plain, faulted
(:func:`repro.faults.run.run_with_faults`), what-if
(:func:`repro.core.whatif.what_if`) and ``repro explain`` runs all
deploy through it.  :func:`run_once` performs one plain run;
:func:`run_trials` repeats it with distinct seeds and aggregates
mean/std, which is what every figure plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..cluster.node import GRID5000_PARAVANCE, HardwareSpec
from ..cluster.topology import Cluster
from ..config.presets import ExperimentConfig
from ..engines.common.operators import LogicalPlan
from ..engines.common.result import EngineRunResult
from ..engines.flink.engine import FlinkEngine
from ..engines.spark.engine import SparkEngine
from ..hdfs.filesystem import HDFS
from ..observability import (CriticalPath, SpanAttribution, SpanTracer,
                             SpanTree, attribute_spans,
                             extract_critical_path)
from ..validation.invariants import InvariantChecker
from ..workloads.base import Workload

__all__ = ["Deployment", "RunFailed", "TrialStats", "TracedRun", "deploy",
           "run_once", "run_traced", "run_trials"]


class RunFailed(RuntimeError):
    """A simulated run failed (Table VII's out-of-memory, say), so there
    is nothing to correlate, trace or inject faults into.  The message
    carries the run's failure."""


def _merge(merged: Optional[EngineRunResult], result: EngineRunResult,
           workload_name: str) -> EngineRunResult:
    """Fold one job's result into the workload's run so far."""
    if merged is None:
        result.workload = workload_name
        return result
    merged.jobs.extend(result.jobs)
    merged.end = result.end
    merged.stage_windows.extend(result.stage_windows)
    for key, value in result.metrics.items():
        merged.metrics[key] = merged.metrics.get(key, 0.0) + value
    if not result.success:
        merged.success = False
        merged.failure = result.failure
        merged.failure_kind = result.failure_kind
    return merged


@dataclass
class Deployment:
    """One standalone deployment: cluster + HDFS (dataset imported) +
    engine.  Built by :func:`deploy`."""

    engine_name: str
    cluster: Cluster
    hdfs: HDFS
    engine: object

    def run(self, workload: Workload,
            run_job: Optional[Callable[[LogicalPlan], EngineRunResult]] = None
            ) -> EngineRunResult:
        """Run the workload's jobs in order, stopping at the first that
        fails; returns their merged result.  ``run_job`` replaces
        ``engine.run`` for each job (the faulted Flink restart loop)."""
        run_job = run_job or self.engine.run
        merged: Optional[EngineRunResult] = None
        for plan in workload.jobs(self.engine_name):
            result = run_job(plan)
            merged = _merge(merged, result, workload.name)
            if not result.success:
                break
        assert merged is not None
        merged.sim_events = self.cluster.sim.steps_executed
        return merged

    def audit(self, checker: InvariantChecker, result: EngineRunResult,
              context: str) -> None:
        """The post-run audit: cluster, engine and result, then raise
        on any violation and detach ``checker``."""
        checker.audit_cluster(self.cluster)
        checker.audit_engine(self.engine)
        checker.audit_result(result)
        checker.require_clean(context)
        checker.detach(self.cluster)


def deploy(engine_name: str, workload: Workload, config: ExperimentConfig,
           seed: int = 0, spec: HardwareSpec = GRID5000_PARAVANCE,
           trace_detail: str = "full") -> Deployment:
    """A fresh cluster with HDFS, the workload's dataset imported, and
    the named engine deployed on it."""
    cluster = Cluster(config.nodes, spec=spec, seed=seed,
                      trace_detail=trace_detail)
    hdfs = HDFS(cluster, block_size=config.hdfs_block_size)
    for path, size in workload.input_files():
        hdfs.create_file(path, size)
    if engine_name == "spark":
        engine = SparkEngine(cluster, hdfs, config.spark)
    elif engine_name == "flink":
        engine = FlinkEngine(cluster, hdfs, config.flink)
    else:
        raise ValueError(f"unknown engine {engine_name!r}")
    return Deployment(engine_name, cluster, hdfs, engine)


@dataclass
class TrialStats:
    """Mean/std over repeated runs — one figure data point."""

    engine: str
    workload: str
    nodes: int
    durations: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.durations) + len(self.failures)

    @property
    def success(self) -> bool:
        return bool(self.durations) and not self.failures

    @property
    def mean(self) -> float:
        if not self.durations:
            return math.nan
        return float(np.mean(self.durations))

    @property
    def std(self) -> float:
        if len(self.durations) < 2:
            return 0.0
        return float(np.std(self.durations, ddof=1))

    def describe(self) -> str:
        if not self.success:
            return (f"{self.engine:5s} {self.workload} x{self.nodes}: FAILED "
                    f"({self.failures[0] if self.failures else 'no runs'})")
        return (f"{self.engine:5s} {self.workload} x{self.nodes}: "
                f"{self.mean:8.1f}s +/- {self.std:.1f}")


def run_once(engine_name: str, workload: Workload, config: ExperimentConfig,
             seed: int = 0, keep_deployment: bool = False,
             strict: bool = False,
             tracer: Optional[SpanTracer] = None) -> EngineRunResult:
    """Deploy, import the dataset, run every job of the workload.

    ``strict`` attaches an :class:`~repro.validation.InvariantChecker`
    to the deployment: the kernel and fluid scheduler are audited online
    and the whole cluster post-run; any violation raises
    :class:`~repro.validation.InvariantViolation`.

    ``tracer`` attaches a :class:`~repro.observability.SpanTracer` to
    the deployment: the engines record their run/job/stage/operator/
    task windows into it (purely from clock reads, so the simulation
    itself is bit-identical with or without one).  The root ``run``
    span covers exactly the execution window — HDFS import is outside
    it, matching how the paper measures.  On a *failed* run the span
    stack is left as the failure found it; use :func:`run_traced` for a
    checked entry point.

    Resource traces are recorded only when something can read them:
    the strict audits, span attribution, or a caller that gets the
    cluster through ``keep_deployment`` (the monitoring panels).  The
    fluid solve never reads a trace, so the result is the same.
    """
    checker = InvariantChecker() if strict else None
    record = checker is not None or tracer is not None or keep_deployment
    deployment = deploy(engine_name, workload, config, seed=seed,
                        trace_detail="full" if record else "off")
    cluster = deployment.cluster
    if checker is not None:
        checker.attach(cluster)
    cluster.tracer = tracer
    run_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "run", f"{engine_name}/{workload.name}", cluster.now)
    result = deployment.run(workload)
    if tracer is not None and result.success:
        # Closing at result.end makes root duration == result duration
        # exactly (a property test pins this).
        tracer.end(run_span, result.end)
    if checker is not None:
        deployment.audit(
            checker, result,
            f"{engine_name}/{workload.name} x{config.nodes} seed={seed}")
    if keep_deployment:
        result.metrics["_deployment"] = deployment  # type: ignore[assignment]
    return result


@dataclass
class TracedRun:
    """One traced execution: result + span tree + derived analyses.

    Plain data end to end (spans, path segments and attributions are
    dataclasses of scalars), so traced runs pickle across the parallel
    harness and merge in submission order bit-identically.
    """

    result: EngineRunResult
    tree: SpanTree
    critical_path: CriticalPath
    attribution: Dict[int, SpanAttribution]

    def to_payload(self) -> Dict[str, object]:
        """Digest-friendly payload (see :mod:`repro.validation.digest`)."""
        return {
            "engine": self.result.engine,
            "workload": self.result.workload,
            "nodes": self.result.nodes,
            "duration": self.result.duration,
            "spans": self.tree.to_payload(),
            "critical_path": self.critical_path.to_payload(),
            "attribution": [self.attribution[sid].to_payload()
                            for sid in sorted(self.attribution)],
        }


def run_traced(engine_name: str, workload: Workload,
               config: ExperimentConfig, seed: int = 0,
               strict: bool = False) -> TracedRun:
    """Run once with a span tracer attached and analyse the tree.

    Returns a :class:`TracedRun` bundling the span tree, its critical
    path and per-span resource attribution.  Module-level and
    picklable throughout, so ``parallel_map(run_traced, ...)`` fans
    traced runs across processes.  Raises :class:`RunFailed` on failed
    runs — a failure aborts mid-tree and there is nothing coherent to
    analyse.
    """
    tracer = SpanTracer()
    result = run_once(engine_name, workload, config, seed=seed,
                      keep_deployment=True, strict=strict, tracer=tracer)
    deployment: Deployment = result.metrics.pop("_deployment")
    if not result.success:
        raise RunFailed(f"run failed, cannot trace: {result.failure}")
    tree = tracer.tree()
    return TracedRun(
        result=result, tree=tree,
        critical_path=extract_critical_path(tree),
        attribution=attribute_spans(deployment.cluster, tree))


def run_correlated(engine_name: str, workload: Workload,
                   config: ExperimentConfig, seed: int = 0,
                   step: float = 1.0, strict: bool = False,
                   collect_spans: bool = False):
    """Run once and join the result with its resource traces.

    Returns a :class:`~repro.core.correlate.CorrelatedRun` — the unit
    the paper's resource figures are drawn from.  In strict mode the
    resampled panels are bounds-checked on top of the run audits.
    With ``collect_spans`` the run is additionally traced and the
    :class:`TracedRun` lands on the returned run's ``trace`` field, so
    figure-level comparisons can cite the dominant resource per stage.
    """
    from ..core.correlate import correlate  # local import: avoid cycle
    tracer = SpanTracer() if collect_spans else None
    result = run_once(engine_name, workload, config, seed=seed,
                      keep_deployment=True, strict=strict, tracer=tracer)
    deployment: Deployment = result.metrics.pop("_deployment")
    if not result.success:
        raise RunFailed(f"run failed, cannot correlate: {result.failure}")
    run = correlate(deployment.cluster, result, step=step)
    if strict:
        checker = InvariantChecker()
        checker.audit_frames(run.frames)
        checker.require_clean(
            f"{engine_name}/{workload.name} x{config.nodes} frames")
    if tracer is not None:
        tree = tracer.tree()
        run.trace = TracedRun(
            result=result, tree=tree,
            critical_path=extract_critical_path(tree),
            attribution=attribute_spans(deployment.cluster, tree))
    return run


def run_trials(engine_name: str, workload: Workload,
               config: ExperimentConfig, trials: int = 3,
               base_seed: int = 0, strict: bool = False
               ) -> TrialStats:
    """Repeat :func:`run_once` with fresh deployments and varied seeds."""
    stats = TrialStats(engine=engine_name, workload=workload.name,
                       nodes=config.nodes)
    for t in range(trials):
        result = run_once(engine_name, workload, config,
                          seed=base_seed + 1000 * t, strict=strict)
        if result.success:
            stats.durations.append(result.duration)
        else:
            stats.failures.append(result.failure or "unknown")
    return stats

"""Experiment runner: the paper's per-experiment cycle (§V).

"For every experiment we follow the same cycle.  We install Hadoop
(HDFS) and we configure a standalone setup of Flink and Spark.  We
import the analyzed dataset and we execute on average 5 runs for each
experiment.  For each run we measure the time necessary to finish the
execution excluding the time to start and stop the cluster ... We make
sure to clear the OS buffer cache and temporary generated data or logs
before a new execution starts."

:func:`run_once` performs one such run on a freshly deployed simulated
cluster (fresh cluster == cleared caches); :func:`run_trials` repeats
it with distinct seeds and aggregates mean/std, which is what every
figure plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster.topology import Cluster
from ..config.presets import ExperimentConfig
from ..engines.common.result import EngineRunResult
from ..engines.flink.engine import FlinkEngine
from ..engines.spark.engine import SparkEngine
from ..hdfs.filesystem import HDFS
from ..observability import (CriticalPath, SpanAttribution, SpanTracer,
                             SpanTree, attribute_spans,
                             extract_critical_path)
from ..validation.invariants import InvariantChecker, strict_enabled
from ..workloads.base import Workload

__all__ = ["Deployment", "TrialStats", "TracedRun", "run_once",
           "run_traced", "run_trials"]


@dataclass
class Deployment:
    """One standalone deployment: cluster + HDFS + engine + traces."""

    cluster: Cluster
    hdfs: HDFS
    engine: object
    result: EngineRunResult


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
             strict: Optional[bool] = None,
             trace_detail: str = "full",
             tracer: Optional[SpanTracer] = None) -> EngineRunResult:
    """Deploy, import the dataset, run every job of the workload.

    ``strict`` attaches an :class:`~repro.validation.InvariantChecker`
    to the deployment: the kernel and fluid scheduler are audited online
    and the whole cluster post-run; any violation raises
    :class:`~repro.validation.InvariantViolation`.  ``None`` defers to
    :func:`repro.validation.set_strict_default`.

    ``trace_detail`` tunes resource tracing (see
    :data:`repro.cluster.fluid.TRACE_DETAIL_MODES`); callers that only
    need durations can pass ``"off"`` to skip trace appends.  Strict
    runs force ``"full"`` — the audits integrate the throughput traces.

    ``tracer`` attaches a :class:`~repro.observability.SpanTracer` to
    the deployment: the engines record their run/job/stage/operator/
    task windows into it (purely from clock reads, so the simulation
    itself is bit-identical with or without one).  The root ``run``
    span covers exactly the execution window — HDFS import is outside
    it, matching how the paper measures.  Tracing forces
    ``trace_detail="full"`` because attribution integrates the
    capacity traces.  On a *failed* run the span stack is left as the
    failure found it; use :func:`run_traced` for a checked entry point.
    """
    checker = InvariantChecker() if strict_enabled(strict) else None
    if checker is not None or tracer is not None:
        trace_detail = "full"
    cluster = Cluster(config.nodes, seed=seed, trace_detail=trace_detail)
    if checker is not None:
        checker.attach(cluster)
    if tracer is not None:
        cluster.tracer = tracer
        cluster.fluid.flow_hook = tracer.on_flow_complete
    hdfs = HDFS(cluster, block_size=config.hdfs_block_size, seed=seed)
    for path, size in workload.input_files():
        hdfs.create_file(path, size)
    if engine_name == "spark":
        engine = SparkEngine(cluster, hdfs, config.spark)
    elif engine_name == "flink":
        engine = FlinkEngine(cluster, hdfs, config.flink)
    else:
        raise ValueError(f"unknown engine {engine_name!r}")

    run_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "run", f"{engine_name}/{workload.name}", cluster.now)
    merged: Optional[EngineRunResult] = None
    for plan in workload.jobs(engine_name):
        result = engine.run(plan)
        if merged is None:
            merged = result
            merged.workload = workload.name
        else:
            merged.jobs.extend(result.jobs)
            merged.end = result.end
            merged.stage_windows.extend(result.stage_windows)
            for key, value in result.metrics.items():
                merged.metrics[key] = merged.metrics.get(key, 0.0) + value
            if not result.success:
                merged.success = False
                merged.failure = result.failure
        if not result.success:
            break
    assert merged is not None
    merged.sim_events = cluster.sim.steps_executed
    if tracer is not None and merged.success:
        # Closing at merged.end makes root duration == result duration
        # exactly (a property test pins this).
        tracer.end(run_span, merged.end)
    if checker is not None:
        checker.audit_cluster(cluster)
        checker.audit_engine(engine)
        checker.audit_result(merged)
        checker.require_clean(
            f"{engine_name}/{workload.name} x{config.nodes} seed={seed}")
        checker.detach(cluster)
    if keep_deployment:
        merged.metrics["_deployment"] = Deployment(  # type: ignore[assignment]
            cluster=cluster, hdfs=hdfs, engine=engine, result=merged)
    return merged


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
               strict: Optional[bool] = None,
               record_flows: bool = False) -> TracedRun:
    """Run once with a span tracer attached and analyse the tree.

    Returns a :class:`TracedRun` bundling the span tree, its critical
    path and per-span resource attribution.  Module-level and
    picklable throughout, so ``parallel_map(run_traced, ...)`` fans
    traced runs across processes.  Raises on failed runs — a failure
    aborts mid-tree and there is nothing coherent to analyse.
    """
    tracer = SpanTracer(record_flows=record_flows)
    result = run_once(engine_name, workload, config, seed=seed,
                      keep_deployment=True, strict=strict, tracer=tracer)
    deployment: Deployment = result.metrics.pop("_deployment")
    if not result.success:
        raise RuntimeError(f"run failed, cannot trace: {result.failure}")
    tree = tracer.tree()
    return TracedRun(
        result=result, tree=tree,
        critical_path=extract_critical_path(tree),
        attribution=attribute_spans(deployment.cluster, tree))


def run_correlated(engine_name: str, workload: Workload,
                   config: ExperimentConfig, seed: int = 0,
                   step: float = 1.0, strict: Optional[bool] = None,
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
        raise RuntimeError(f"run failed, cannot correlate: {result.failure}")
    run = correlate(deployment.cluster, result, step=step)
    if strict_enabled(strict):
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
               base_seed: int = 0, strict: Optional[bool] = None
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

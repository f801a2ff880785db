"""Failure-recovery analysis (extension of the paper's §VIII remark).

"The pipelined execution brings important benefits to Flink ...  There
are several issues related to the pipeline fault tolerance, but Flink
is currently working in this direction [FLINK-2250]."

This module quantifies that trade-off for a single node failure at a
chosen progress point, using each engine's 2015-era recovery story:

* **Spark** — lineage + materialised shuffle files: completed stages
  survive on the other nodes; recovery re-runs the interrupted stage
  and recomputes the failed node's share (1/N) of earlier stage
  outputs that feed it;
* **Flink 0.10** — the pipelined job graph has no intermediate
  materialisation: a task failure restarts the whole job.

Both estimates are computed from the *actual* stage/span structure of
a baseline simulated run, so staged jobs with many barriers and
pipelined single-window jobs are each charged faithfully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..config.presets import ExperimentConfig
from ..engines.common.result import EngineRunResult
from ..workloads.base import Workload
from .runner import RunFailed, run_once

__all__ = ["FaultRecoveryResult", "analytic_total", "run_with_failure"]


@dataclass
class FaultRecoveryResult:
    """Estimated end-to-end time with one node failing mid-run."""

    engine: str
    workload: str
    nodes: int
    fail_at_seconds: float
    baseline_seconds: float
    total_seconds: float

    @property
    def recovery_overhead(self) -> float:
        """Extra time caused by the failure (seconds)."""
        return self.total_seconds - self.baseline_seconds

    @property
    def overhead_fraction(self) -> float:
        if self.baseline_seconds <= 0:
            return math.nan
        return self.recovery_overhead / self.baseline_seconds

    def describe(self) -> str:
        return (f"{self.engine}/{self.workload}: node failure at "
                f"{self.fail_at_seconds:.0f}s -> total "
                f"{self.total_seconds:.0f}s "
                f"(+{100 * self.overhead_fraction:.0f}% over "
                f"{self.baseline_seconds:.0f}s)")


def _stage_windows(result: EngineRunResult) -> List[tuple]:
    """(start, end) windows of the barriered units, in time order."""
    if result.stage_windows:
        return sorted(result.stage_windows)
    spans = sorted(result.spans, key=lambda s: s.start)
    return [(s.start, s.end) for s in spans]


def _spark_recovery(result: EngineRunResult, fail_at: float,
                    nodes: int) -> float:
    """Time to finish after a failure at ``fail_at`` (absolute).

    Task-level re-execution: only the failed node's tasks of the
    interrupted stage re-run (its 1/N share, redistributed), and the
    failed node's share of *completed* stage outputs (shuffle files /
    cached blocks) is recomputed from lineage.
    """
    windows = _stage_windows(result)
    n = max(nodes, 1)
    remaining_after = result.end - fail_at
    completed = 0.0
    rerun_lost_tasks = 0.0
    for s, e in windows:
        if e <= fail_at:
            # A stage ending exactly at the failure has materialised its
            # outputs: it is completed, never also charged as in-flight.
            completed += e - s
        elif s <= fail_at:
            # Every window open at the failure loses the failed node's
            # share of its progress — span-fallback windows can overlap,
            # so this must charge all of them, not just the first.
            rerun_lost_tasks += (fail_at - s) / n
    recompute = completed / n
    return remaining_after + rerun_lost_tasks + recompute


def analytic_total(engine: str, baseline: EngineRunResult,
                   fail_at_fraction: float, nodes: int) -> float:
    """Estimated total seconds given an already-run baseline."""
    T = baseline.duration
    fail_at = baseline.start + fail_at_fraction * T
    if engine == "flink":
        # No materialised intermediates in the 0.10 pipeline: restart.
        return fail_at_fraction * T + T
    if engine == "spark":
        return (fail_at_fraction * T +
                _spark_recovery(baseline, fail_at, nodes))
    raise ValueError(f"unknown engine {engine!r}")


def run_with_failure(engine: str, workload: Workload,
                     config: ExperimentConfig,
                     fail_at_fraction: float = 0.5,
                     seed: int = 0) -> FaultRecoveryResult:
    """Estimate total time with one node failing mid-run."""
    if not 0.0 < fail_at_fraction < 1.0:
        raise ValueError("fail_at_fraction must be in (0, 1)")
    baseline = run_once(engine, workload, config, seed=seed)
    if not baseline.success:
        raise RunFailed(f"baseline failed: {baseline.failure}")
    T = baseline.duration
    total = analytic_total(engine, baseline, fail_at_fraction, config.nodes)
    return FaultRecoveryResult(
        engine=engine, workload=workload.name, nodes=config.nodes,
        fail_at_seconds=fail_at_fraction * T, baseline_seconds=T,
        total_seconds=total)

"""Resilience sweeps: slowdown / availability versus fault rate.

The paper measured fault-free runs; its §II architecture comparison
(Spark lineage re-execution vs Flink 0.10 full-pipeline restart) only
*matters* when nodes actually fail.  A resilience sweep quantifies
that: for each engine and workload it raises the per-node fault rate
and records

* **slowdown** — faulted duration / fault-free baseline duration, and
* **availability** — the fraction of trials that still completed
  (a run "dies" when the restart budget or retry budget is exhausted,
  an OOM is not retryable, or the fault-free baseline itself fails),

producing the slowdown-vs-rate and availability-vs-rate curves of
``fig19``.  Every cell is deterministic: the stochastic model compiles
to a seeded :class:`~repro.faults.plan.FaultPlan` before any
simulation runs, so the whole figure is digest-pinned and
bit-identical at any ``--jobs`` value.

The campaign layer is *itself* resilient: cells run through
:func:`~repro.harness.campaign.run_campaign` (per-trial timeout,
bounded retry, graceful degradation — a crashed or hung worker fails
only its own cell, recorded as an explicit gap), and a
:class:`~repro.harness.checkpoint.CheckpointStore` journals every
finished cell so a killed campaign resumes with ``--resume`` and
reproduces the uninterrupted digests exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config.presets import (ExperimentConfig, GiB, kmeans_preset,
                              small_graph_preset, terasort_preset,
                              wordcount_grep_preset)
from ..harness.campaign import cell_delay, run_campaign
from ..harness.checkpoint import CheckpointStore
from ..harness.parallel import TaskFailure
from ..workloads import (ConnectedComponents, Grep, KMeans, PageRank,
                         TeraSort, WordCount)
from ..workloads.base import Workload
from ..workloads.datagen.graphs import SMALL_GRAPH
from .stochastic import StochasticFaultModel

__all__ = ["ResilienceCell", "ResilienceCurve", "ResilienceFigure",
           "default_workloads", "resilience_sweep"]

ENGINES = ("flink", "spark")

#: Prefix of a cell's ``failure`` when its fault-free run failed, so
#: no faulted run was made.
BASELINE_FAILED = "fault-free baseline failed: "


def default_workloads(nodes: int = 8
                      ) -> List[Tuple[str, Workload, ExperimentConfig]]:
    """The paper's six workloads at resilience-sweep scale.

    Small enough that a full two-engine, multi-rate campaign runs in
    CI; large enough that every workload keeps its multi-stage /
    iterative structure (the thing recovery cost depends on).
    """
    graph_cfg = small_graph_preset(nodes)
    return [
        ("wordcount", WordCount(total_bytes=nodes * 4 * GiB),
         wordcount_grep_preset(nodes)),
        ("grep", Grep(total_bytes=nodes * 4 * GiB),
         wordcount_grep_preset(nodes)),
        ("terasort",
         TeraSort(nodes * 2 * GiB,
                  num_partitions=terasort_preset(
                      nodes).flink.default_parallelism),
         terasort_preset(nodes)),
        ("kmeans", KMeans(total_bytes=2 * nodes * GiB, iterations=5),
         kmeans_preset(nodes)),
        ("pagerank",
         PageRank(SMALL_GRAPH, iterations=5,
                  edge_partitions=graph_cfg.spark.edge_partitions),
         graph_cfg),
        ("connected-components",
         ConnectedComponents(SMALL_GRAPH, iterations=5,
                             edge_partitions=graph_cfg.spark.edge_partitions),
         graph_cfg),
    ]


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
@dataclass
class ResilienceCell:
    """One data point: engine x workload x fault rate x trial."""

    engine: str
    workload: str
    nodes: int
    rate: float
    trial: int
    seed: int
    plan_digest: str = ""
    plan_events: int = 0
    success: bool = False
    baseline_seconds: float = math.nan
    faulted_seconds: float = math.nan
    retries: int = 0
    restarts: int = 0
    crashes: int = 0
    failure: Optional[str] = None
    #: Harness-level gap: the cell's worker crashed, hung or raised —
    #: nothing was simulated, so the curves must not treat it as an
    #: engine failure.
    gap: bool = False
    gap_detail: Optional[str] = None

    @property
    def slowdown(self) -> float:
        if not self.success or self.baseline_seconds <= 0:
            return math.nan
        return self.faulted_seconds / self.baseline_seconds


def _cell_task(engine: str, workload: Workload, config: ExperimentConfig,
               workload_name: str, rate: float, trial: int, seed: int,
               stragglers: int, strict: bool) -> Dict[str, Any]:
    """Run one resilience cell; module-level and JSON-in/out so it fans
    across worker processes and journals into a checkpoint store."""
    from ..faults import FlinkRestartPolicy, RetryPolicy, run_with_faults
    from ..harness.runner import run_once
    cell_delay()
    model = StochasticFaultModel.from_rate(rate).with_(
        stragglers=stragglers)
    plan = model.compile(seed, config.nodes)
    baseline = run_once(engine, workload, config, seed=seed, strict=strict)
    cell = ResilienceCell(
        engine=engine, workload=workload_name, nodes=config.nodes,
        rate=rate, trial=trial, seed=seed, plan_digest=plan.digest(),
        plan_events=len(plan.events))
    if not baseline.success:
        # Simulated, and fails the same way on every attempt: an engine
        # failure of the cell, not a gap for --resume to fill.
        cell.failure = f"{BASELINE_FAILED}{baseline.failure}"
        return asdict(cell)
    cell.baseline_seconds = baseline.duration
    faulted = run_with_faults(
        engine, workload, config, plan, seed=seed,
        retry_policy=RetryPolicy(), restart_policy=FlinkRestartPolicy(),
        strict=strict, baseline=baseline)
    cell.success = faulted.success
    cell.faulted_seconds = faulted.faulted_duration
    cell.retries = faulted.retry_attempts
    cell.restarts = len(faulted.restarts)
    cell.crashes = len(faulted.timeline.of_kind("node_crash"))
    cell.failure = faulted.result.failure
    return asdict(cell)


# ----------------------------------------------------------------------
# curves
# ----------------------------------------------------------------------
@dataclass
class ResilienceCurve:
    """Slowdown / availability versus fault rate for one engine+workload."""

    engine: str
    workload: str
    rates: List[float]
    #: Mean slowdown over the trials that completed, per rate (NaN when
    #: none did).
    slowdowns: List[float]
    #: Fraction of *simulated* trials that completed, per rate (gaps —
    #: harness failures — are excluded from the denominator).
    availability: List[float]

    def describe(self) -> str:
        points = []
        for rate, slow, avail in zip(self.rates, self.slowdowns,
                                     self.availability):
            s = "-" if math.isnan(slow) else f"{slow:.2f}x"
            points.append(f"rate {rate:g}: {s} @{100 * avail:.0f}%")
        return (f"{self.engine:5s} {self.workload:20s} "
                f"{'; '.join(points)}")


@dataclass
class ResilienceFigure:
    """The fig19 artefact: cells plus explicit campaign gaps."""

    figure_id: str
    title: str
    nodes: int
    rates: List[float]
    trials: int
    cells: List[ResilienceCell]
    #: Harness-level failures (worker crash / hang / exception), one
    #: per unfinished cell — the campaign's explicit gap report.
    gaps: List[ResilienceCell] = field(default_factory=list)

    def curves(self) -> List[ResilienceCurve]:
        groups: Dict[Tuple[str, str], List[ResilienceCell]] = {}
        order: List[Tuple[str, str]] = []
        for cell in self.cells:
            key = (cell.engine, cell.workload)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell)
        out = []
        for engine, workload in order:
            cells = groups[(engine, workload)]
            slowdowns, availability = [], []
            for rate in self.rates:
                at_rate = [c for c in cells if c.rate == rate and not c.gap]
                ok = [c.slowdown for c in at_rate if c.success]
                slowdowns.append(sum(ok) / len(ok) if ok else math.nan)
                availability.append(
                    len(ok) / len(at_rate) if at_rate else math.nan)
            out.append(ResilienceCurve(
                engine=engine, workload=workload, rates=list(self.rates),
                slowdowns=slowdowns, availability=availability))
        return out

    def describe(self) -> str:
        lines = [self.title]
        lines.extend(f"  {curve.describe()}" for curve in self.curves())
        baseline_failures = {
            (c.engine, c.workload): c.failure for c in self.cells
            if c.failure is not None and c.failure.startswith(BASELINE_FAILED)}
        lines.extend(f"  {engine}/{workload}: {failure}"
                     for (engine, workload), failure
                     in baseline_failures.items())
        if self.gaps:
            lines.append(f"  GAPS: {len(self.gaps)} cell(s) not simulated "
                         f"(harness failures):")
            lines.extend(f"    {g.engine}/{g.workload} rate={g.rate:g} "
                         f"trial={g.trial}: {g.gap_detail}"
                         for g in self.gaps)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def resilience_sweep(
        workloads: Optional[Sequence[Tuple[str, Workload,
                                           ExperimentConfig]]] = None,
        engines: Sequence[str] = ENGINES,
        rates: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
        trials: int = 1, nodes: int = 8, seed: int = 0,
        stragglers: int = 0,
        strict: bool = False, jobs: Optional[int] = None,
        timeout: Optional[float] = None, retries: int = 1,
        checkpoint: Optional[CheckpointStore] = None,
        figure_id: str = "fig19") -> ResilienceFigure:
    """Run the full resilience campaign and assemble the figure.

    One cell per (workload, engine, rate, trial), all independent and
    deterministic, run through :func:`~repro.harness.campaign.
    run_campaign`: a cell whose worker raises, or crashes or exceeds
    ``timeout`` more than ``retries`` times, is reported as an explicit
    gap — the campaign always completes.  ``checkpoint``
    journals finished cells; pass a resumed store to continue a killed
    campaign (gap cells are *not* journaled, so they are re-attempted
    on resume).
    """
    if workloads is None:
        workloads = default_workloads(nodes)
    cells = []
    for name, workload, config in workloads:
        for engine in engines:
            for rate in rates:
                for trial in range(trials):
                    cell_seed = seed + 1000 * trial
                    cells.append(({
                        "figure_id": figure_id, "engine": engine,
                        "workload": name, "rate": rate, "trial": trial,
                        "seed": cell_seed, "nodes": nodes,
                        "stragglers": stragglers,
                    }, (engine, workload, config, name, rate, trial,
                        cell_seed, stragglers, strict)))
    results = run_campaign(_cell_task, cells, checkpoint, jobs=jobs,
                           timeout=timeout, retries=retries)
    figure_cells = [
        ResilienceCell(**result)
        if not isinstance(result, TaskFailure) else ResilienceCell(
            engine=key["engine"], workload=key["workload"], nodes=nodes,
            rate=key["rate"], trial=key["trial"], seed=key["seed"],
            gap=True, gap_detail=result.describe())
        for (key, _args), result in zip(cells, results)]
    return ResilienceFigure(
        figure_id=figure_id,
        title=(f"Resilience under sustained fault rates ({nodes} nodes, "
               f"rates per node per run)"),
        nodes=nodes, rates=list(rates), trials=trials, cells=figure_cells,
        gaps=[cell for cell in figure_cells if cell.gap])


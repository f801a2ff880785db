"""The experiment registry: one entry per figure/table of the paper.

Each ``fig*``/``tab*`` function reproduces the corresponding artefact:
it runs the published workload at the published scales and
configurations on both engines and returns the series/frames/statuses
the paper plots.  The benchmarks call these and assert the paper's
qualitative claims; EXPERIMENTS.md records the numbers.

All experiments honour ``trials`` (the paper averaged 5 runs) and a
``seed`` for determinism.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config.presets import (ExperimentConfig, kmeans_preset,
                              large_graph_preset, medium_graph_preset,
                              small_graph_preset, terasort_preset,
                              wordcount_grep_preset)
from ..core.correlate import CorrelatedRun
from ..core.scalability import ScalingSeries
from ..workloads import (ConnectedComponents, Grep, KMeans, PageRank,
                         TeraSort, WordCount)
from ..workloads.base import Workload
from ..validation.invariants import strict_enabled
from ..workloads.datagen.graphs import (LARGE_GRAPH, MEDIUM_GRAPH,
                                        SMALL_GRAPH, GraphDatasetModel)
from .campaign import run_campaign
from .parallel import TaskFailure, parallel_map
from .runner import TrialStats, run_correlated, run_trials

__all__ = [
    "ScalingFigure", "ResourceFigure", "LargeGraphCell",
    "fig01_wordcount_weak", "fig02_wordcount_strong",
    "fig03_wordcount_resources", "fig04_grep_weak", "fig05_grep_strong",
    "fig06_grep_resources", "fig07_terasort_weak", "fig08_terasort_strong",
    "fig09_terasort_resources", "fig10_kmeans_resources",
    "fig11_kmeans_scaling", "fig12_pagerank_small", "fig13_pagerank_medium",
    "fig14_cc_small", "fig15_cc_medium", "fig16_pagerank_resources",
    "fig17_cc_resources", "tab07_large_graph",
    "FaultCell", "FaultFigure", "fig18_fault_recovery",
    "fig19_resilience", "fig20_streaming_latency",
    "fig21_streaming_recovery",
    "fig22_degradation",
    "fig23_tenancy",
]

GiB = float(2**30)
TiB = float(2**40)
ENGINES = ("flink", "spark")


@dataclass
class ScalingFigure:
    """An execution-time figure: one ScalingSeries per engine."""

    figure_id: str
    title: str
    series: Dict[str, ScalingSeries]
    #: x-axis values as published (node counts or GB/node).
    xs: List[float]
    trials_raw: Dict[str, List[TrialStats]] = field(default_factory=dict)

    def flink(self) -> ScalingSeries:
        return self.series["flink"]

    def spark(self) -> ScalingSeries:
        return self.series["spark"]


@dataclass
class ResourceFigure:
    """A resource-usage figure: one correlated run per engine."""

    figure_id: str
    title: str
    runs: Dict[str, CorrelatedRun]

    def flink(self) -> CorrelatedRun:
        return self.runs["flink"]

    def spark(self) -> CorrelatedRun:
        return self.runs["spark"]

    def stage_attribution(self, kinds: Sequence[str] = ("stage",)
                          ) -> Dict[str, List[Dict[str, object]]]:
        """Dominant resource per stage span, per engine.

        Requires the figure to have been built with ``spans=True``;
        this is the "cite the dominant resource per stage" hook the
        cross-engine comparisons use (e.g. Word Count's disk/CPU-bound
        map versus Page Rank's network-bound shuffle supersteps).
        """
        out: Dict[str, List[Dict[str, object]]] = {}
        for engine, run in self.runs.items():
            trace = getattr(run, "trace", None)
            if trace is None:
                raise ValueError(
                    f"figure {self.figure_id} was built without "
                    f"spans=True; no attribution for {engine!r}")
            rows: List[Dict[str, object]] = []
            for span in trace.tree:
                if span.kind not in kinds:
                    continue
                attr = trace.attribution.get(span.id)
                rows.append({
                    "name": span.name, "key": span.key,
                    "start": span.start, "end": span.end,
                    "iteration": span.iteration,
                    "dominant": (attr.dominant_resources()
                                 if attr is not None else ["idle"]),
                })
            out[engine] = rows
        return out


def _trials_task(engine: str, workload: Workload, config: ExperimentConfig,
                 trials: int, seed: int, strict: bool) -> Dict[str, object]:
    """One scaling data point as its journal payload (a campaign cell)."""
    return asdict(run_trials(engine, workload, config, trials, seed, strict))


def _scaling(figure_id: str, title: str, xs: Sequence[float],
             make_workload: Callable[[float], Workload],
             make_config: Callable[[float], ExperimentConfig],
             trials: int, seed: int,
             strict: Optional[bool] = None,
             jobs: Optional[int] = None,
             checkpoint=None) -> ScalingFigure:
    # Every (engine, x) data point is an independent deterministic batch
    # of trials; materialise the workload/config here (the lambdas do
    # not cross process boundaries) and fan out.  Results come back in
    # cell order, so the figure is identical at any job count, and a
    # journaled point resumes as the very TrialStats it was computed as.
    strict_flag = strict_enabled(strict)
    cells = [({"figure_id": figure_id, "engine": engine, "x": float(x),
               "trials": trials, "seed": seed},
              (engine, make_workload(x), make_config(x), trials, seed,
               strict_flag))
             for engine in ENGINES for x in xs]
    payloads = run_campaign(_trials_task, cells, checkpoint, jobs=jobs)
    for (key, _args), payload in zip(cells, payloads):
        if isinstance(payload, TaskFailure):
            raise RuntimeError(f"{figure_id} cell {key} failed: "
                               f"{payload.describe()}")
    flat = [TrialStats(**payload) for payload in payloads]
    series: Dict[str, ScalingSeries] = {}
    raw: Dict[str, List[TrialStats]] = {}
    for i, engine in enumerate(ENGINES):
        stats = flat[i * len(xs):(i + 1) * len(xs)]
        raw[engine] = stats
        series[engine] = ScalingSeries(
            engine=engine,
            nodes=[int(x) for x in xs],
            means=[s.mean for s in stats],
            stds=[s.std for s in stats])
    return ScalingFigure(figure_id=figure_id, title=title, series=series,
                         xs=list(xs), trials_raw=raw)


def _resources(figure_id: str, title: str, workload: Workload,
               config: ExperimentConfig, seed: int,
               strict: Optional[bool] = None,
               jobs: Optional[int] = None,
               spans: bool = False) -> ResourceFigure:
    strict_flag = strict_enabled(strict)
    tasks = [(engine, workload, config, seed, 1.0, strict_flag, spans)
             for engine in ENGINES]
    results = parallel_map(run_correlated, tasks, jobs=jobs)
    runs = dict(zip(ENGINES, results))
    return ResourceFigure(figure_id=figure_id, title=title, runs=runs)


# ----------------------------------------------------------------------
# Word Count (Figs. 1-3)
# ----------------------------------------------------------------------
def fig01_wordcount_weak(trials: int = 3, seed: int = 0,
                         nodes: Sequence[int] = (2, 4, 8, 16, 32),
                         strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    """Word Count, fixed 24 GB per node."""
    return _scaling(
        "fig01", "Word Count - fixed problem size per node (24GB)",
        nodes,
        lambda n: WordCount(total_bytes=n * 24 * GiB),
        lambda n: wordcount_grep_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig02_wordcount_strong(trials: int = 3, seed: int = 0,
                           gb_per_node: Sequence[int] = (24, 27, 30, 33),
                           nodes: int = 16,
                           strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    """Word Count, 16 nodes, growing datasets."""
    fig = _scaling(
        "fig02", "Word Count - 16 nodes, different datasets",
        gb_per_node,
        lambda gb: WordCount(total_bytes=nodes * gb * GiB),
        lambda gb: wordcount_grep_preset(nodes),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)
    return fig


def fig03_wordcount_resources(seed: int = 0, nodes: int = 32,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    """Word Count resource usage, 32 nodes, 768 GB."""
    return _resources("fig03",
                      "Word Count resource usage (32 nodes, 768 GB)",
                      WordCount(total_bytes=nodes * 24 * GiB),
                      wordcount_grep_preset(nodes), seed, strict=strict, jobs=jobs,
                      spans=spans)


# ----------------------------------------------------------------------
# Grep (Figs. 4-6)
# ----------------------------------------------------------------------
def fig04_grep_weak(trials: int = 3, seed: int = 0,
                    nodes: Sequence[int] = (2, 4, 8, 16, 32),
                    strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig04", "Grep - fixed problem size per node (24GB)",
        nodes,
        lambda n: Grep(total_bytes=n * 24 * GiB),
        lambda n: wordcount_grep_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig05_grep_strong(trials: int = 3, seed: int = 0,
                      gb_per_node: Sequence[int] = (24, 27, 30, 33),
                      nodes: int = 16,
                      strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig05", "Grep - 16 nodes, different datasets",
        gb_per_node,
        lambda gb: Grep(total_bytes=nodes * gb * GiB),
        lambda gb: wordcount_grep_preset(nodes),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig06_grep_resources(seed: int = 0, nodes: int = 32,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    return _resources("fig06", "Grep resource usage (32 nodes, 768 GB)",
                      Grep(total_bytes=nodes * 24 * GiB),
                      wordcount_grep_preset(nodes), seed, strict=strict, jobs=jobs,
                      spans=spans)


# ----------------------------------------------------------------------
# Tera Sort (Figs. 7-9)
# ----------------------------------------------------------------------
def _terasort(nodes: int, total_bytes: float) -> TeraSort:
    preset = terasort_preset(nodes)
    return TeraSort(total_bytes,
                    num_partitions=preset.flink.default_parallelism)


def fig07_terasort_weak(trials: int = 3, seed: int = 0,
                        nodes: Sequence[int] = (17, 34, 63),
                        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig07", "Tera Sort - fixed problem size per node (32 GB)",
        nodes,
        lambda n: _terasort(int(n), n * 32 * GiB),
        lambda n: terasort_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig08_terasort_strong(trials: int = 3, seed: int = 0,
                          nodes: Sequence[int] = (55, 73, 97),
                          strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig08", "Tera Sort - adding nodes, same dataset (3.5TB)",
        nodes,
        lambda n: _terasort(int(n), 3.5 * TiB),
        lambda n: terasort_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig09_terasort_resources(seed: int = 0, nodes: int = 55,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    return _resources("fig09",
                      "Tera Sort resource usage (55 nodes, 3.5 TB)",
                      _terasort(nodes, 3.5 * TiB),
                      terasort_preset(nodes), seed, strict=strict, jobs=jobs,
                      spans=spans)


# ----------------------------------------------------------------------
# K-Means (Figs. 10-11)
# ----------------------------------------------------------------------
def fig10_kmeans_resources(seed: int = 0, nodes: int = 24,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    return _resources(
        "fig10", "K-Means resource usage (24 nodes, 10 iterations)",
        KMeans(total_bytes=51 * GiB, iterations=10),
        kmeans_preset(nodes), seed, strict=strict, jobs=jobs, spans=spans)


def fig11_kmeans_scaling(trials: int = 3, seed: int = 0,
                         nodes: Sequence[int] = (8, 14, 20, 24),
                         strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig11", "K-Means - increasing cluster size, same dataset",
        nodes,
        lambda n: KMeans(total_bytes=51 * GiB, iterations=10),
        lambda n: kmeans_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


# ----------------------------------------------------------------------
# Graphs (Figs. 12-17, Table VII)
# ----------------------------------------------------------------------
def _pagerank(graph: GraphDatasetModel, cfg: ExperimentConfig,
              iterations: int) -> PageRank:
    return PageRank(graph, iterations=iterations,
                    edge_partitions=cfg.spark.edge_partitions)


def _cc(graph: GraphDatasetModel, cfg: ExperimentConfig,
        iterations: int) -> ConnectedComponents:
    return ConnectedComponents(graph, iterations=iterations,
                               edge_partitions=cfg.spark.edge_partitions)


def fig12_pagerank_small(trials: int = 3, seed: int = 0,
                         nodes: Sequence[int] = (8, 14, 20, 27),
                         strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig12", "Page Rank - Small Graph (increasing cluster size)",
        nodes,
        lambda n: _pagerank(SMALL_GRAPH, small_graph_preset(int(n)), 20),
        lambda n: small_graph_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig13_pagerank_medium(trials: int = 3, seed: int = 0,
                          nodes: Sequence[int] = (24, 27, 34, 55),
                          strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig13", "Page Rank - Medium Graph (increasing cluster size)",
        nodes,
        lambda n: _pagerank(MEDIUM_GRAPH, medium_graph_preset(int(n)), 20),
        lambda n: medium_graph_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig14_cc_small(trials: int = 3, seed: int = 0,
                   nodes: Sequence[int] = (8, 14, 20, 27),
                   strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig14", "Connected Components - Small Graph",
        nodes,
        lambda n: _cc(SMALL_GRAPH, small_graph_preset(int(n)), 23),
        lambda n: small_graph_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig15_cc_medium(trials: int = 3, seed: int = 0,
                    nodes: Sequence[int] = (27, 34, 55),
                    strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        checkpoint=None) -> ScalingFigure:
    return _scaling(
        "fig15", "Connected Components - Medium Graph",
        nodes,
        lambda n: _cc(MEDIUM_GRAPH, medium_graph_preset(int(n)), 23),
        lambda n: medium_graph_preset(int(n)),
        trials, seed, strict=strict, jobs=jobs, checkpoint=checkpoint)


def fig16_pagerank_resources(seed: int = 0, nodes: int = 27,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    cfg = small_graph_preset(nodes)
    return _resources("fig16",
                      "Page Rank resource usage (27 nodes, Small Graph)",
                      _pagerank(SMALL_GRAPH, cfg, 20), cfg, seed, strict=strict, jobs=jobs,
                      spans=spans)


def fig17_cc_resources(seed: int = 0, nodes: int = 27,
        strict: Optional[bool] = None,
        jobs: Optional[int] = None,
        spans: bool = False) -> ResourceFigure:
    cfg = medium_graph_preset(nodes)
    return _resources("fig17",
                      "CC resource usage (27 nodes, Medium Graph)",
                      _cc(MEDIUM_GRAPH, cfg, 23), cfg, seed, strict=strict, jobs=jobs,
                      spans=spans)


# ----------------------------------------------------------------------
# Table VII — Large graph
# ----------------------------------------------------------------------
@dataclass
class LargeGraphCell:
    """One Table VII cell: engine x workload x nodes."""

    engine: str
    workload: str
    nodes: int
    success: bool
    load_seconds: float = math.nan
    iter_seconds: float = math.nan
    failure: Optional[str] = None

    @property
    def total(self) -> float:
        return self.load_seconds + self.iter_seconds


def tab07_large_graph(seed: int = 0,
                      node_counts: Sequence[int] = (27, 44, 97),
                      double_edge_partitions: bool = True,
                      strict: Optional[bool] = None,
                      jobs: Optional[int] = None) -> List[LargeGraphCell]:
    """Run the Table VII grid; Flink's load includes the vertex count."""
    from .runner import run_once
    strict_flag = strict_enabled(strict)
    labels: List[Tuple[str, str, int]] = []
    tasks = []
    for nodes in node_counts:
        cfg = large_graph_preset(nodes,
                                 double_edge_partitions=double_edge_partitions)
        workloads = [
            ("PR", _pagerank(LARGE_GRAPH, cfg, 5)),
            ("CC", _cc(LARGE_GRAPH, cfg, 10)),
        ]
        for name, workload in workloads:
            for engine in ENGINES:
                labels.append((engine, name, nodes))
                tasks.append((engine, workload, cfg, seed, False,
                              strict_flag))
    results = parallel_map(run_once, tasks, jobs=jobs)
    cells: List[LargeGraphCell] = []
    for (engine, name, nodes), result in zip(labels, results):
        if not result.success:
            cells.append(LargeGraphCell(
                engine=engine, workload=name, nodes=nodes,
                success=False, failure=result.failure))
            continue
        load, iters = _split_load_iter(result)
        cells.append(LargeGraphCell(
            engine=engine, workload=name, nodes=nodes, success=True,
            load_seconds=load, iter_seconds=iters))
    return cells


def _split_load_iter(result) -> Tuple[float, float]:
    """Split a run into Load vs Iter the way Table VII reports it."""
    load = 0.0
    iters = 0.0
    for job in result.jobs:
        if job.name in ("load", "count-vertices"):
            load += job.duration
        elif job.name == "iterations":
            iters += job.duration
        else:
            # Flink's single pipelined job: split at the iteration-head
            # span; its load stage includes the vertices count.
            head = next((s for s in job.spans
                         if s.key in ("B", "W")), None)
            if head is None:
                load += job.duration
            else:
                load += head.start - job.start
                iters += job.end - head.start
    return load, iters


# ----------------------------------------------------------------------
# Fig. 18 (extension) — failure recovery overhead
# ----------------------------------------------------------------------
@dataclass
class FaultCell:
    """One recovery data point: engine x workload x failure point."""

    engine: str
    workload: str
    nodes: int
    fail_at_fraction: float
    success: bool
    baseline_seconds: float = math.nan
    simulated_seconds: float = math.nan
    analytic_seconds: float = math.nan
    retries: int = 0
    restarts: int = 0
    failure: Optional[str] = None
    #: Kernel events behind this data point.  The shared fault-free
    #: baseline is charged to the *first* cell of its task, so summing
    #: ``sim_events`` over a figure gives the campaign total exactly.
    #: (``fault_payload`` enumerates its fields, so this one stays out
    #: of the golden digests.)
    sim_events: Optional[int] = None

    @property
    def simulated_overhead(self) -> float:
        return self.simulated_seconds - self.baseline_seconds

    @property
    def analytic_overhead(self) -> float:
        return self.analytic_seconds - self.baseline_seconds


@dataclass
class FaultFigure:
    """Recovery-overhead figure: simulated vs analytic estimates."""

    figure_id: str
    title: str
    cells: List[FaultCell]

    def of_engine(self, engine: str) -> List[FaultCell]:
        return [c for c in self.cells if c.engine == engine]


def _fault_cells_task(engine: str, workload: Workload,
                      cfg: ExperimentConfig, nodes: int,
                      fractions: Sequence[float], seed: int,
                      strict: bool) -> List[FaultCell]:
    """One fig18 unit of work: a baseline plus its crash runs.

    The crash runs reuse the baseline, so this is the smallest
    independently parallelisable piece of the figure.
    """
    from ..faults import FaultPlan, FlinkRestartPolicy, RetryPolicy, \
        run_with_faults
    from .faults import analytic_total
    from .runner import run_once
    baseline = run_once(engine, workload, cfg, seed=seed, strict=strict)
    cells: List[FaultCell] = []
    pending_events = baseline.sim_events or 0
    for fraction in fractions:
        if not baseline.success:
            cells.append(FaultCell(
                engine=engine, workload=workload.name, nodes=nodes,
                fail_at_fraction=fraction, success=False,
                failure=baseline.failure,
                sim_events=pending_events or None))
            pending_events = 0
            continue
        plan = FaultPlan.single_crash(fraction, node=1,
                                      restart_after=0.0)
        faulted = run_with_faults(
            engine, workload, cfg, plan, seed=seed,
            retry_policy=RetryPolicy(backoff=0.0),
            restart_policy=FlinkRestartPolicy(restart_delay=0.0),
            strict=strict, baseline=baseline)
        cells.append(FaultCell(
            engine=engine, workload=workload.name, nodes=nodes,
            fail_at_fraction=fraction, success=faulted.success,
            baseline_seconds=faulted.baseline_duration,
            simulated_seconds=faulted.faulted_duration,
            analytic_seconds=analytic_total(
                engine, baseline, fraction, cfg.nodes),
            retries=faulted.retry_attempts,
            restarts=len(faulted.restarts),
            failure=faulted.result.failure,
            sim_events=pending_events + (faulted.result.sim_events or 0)))
        pending_events = 0
    return cells


def fig18_fault_recovery(seed: int = 0, nodes: int = 4,
                         fractions: Sequence[float] = (0.25, 0.5, 0.75),
                         strict: Optional[bool] = None,
                         jobs: Optional[int] = None) -> FaultFigure:
    """Single-node crash recovery sweep (extension of §VIII).

    For each engine and workload, one fault-free baseline is run, then
    one in-simulation crash-and-recover run per failure point (process
    kill: the machine rejoins immediately, its task state is lost), and
    the analytic lineage/restart estimate over the same baseline.
    Spark pays stage-level re-execution; Flink 0.10 restarts the whole
    pipeline, so its overhead grows with the failure point.
    """
    strict_flag = strict_enabled(strict)
    workloads = [
        (WordCount(total_bytes=nodes * 4 * GiB), wordcount_grep_preset(nodes)),
        (_terasort(nodes, nodes * 2 * GiB), terasort_preset(nodes)),
    ]
    tasks = [(engine, workload, cfg, nodes, tuple(fractions), seed,
              strict_flag)
             for workload, cfg in workloads for engine in ENGINES]
    cell_groups = parallel_map(_fault_cells_task, tasks, jobs=jobs)
    cells: List[FaultCell] = [c for group in cell_groups for c in group]
    return FaultFigure(
        "fig18", f"Failure recovery overhead ({nodes} nodes, "
        f"single node crash)", cells)


# ----------------------------------------------------------------------
# Fig. 19 (extension) — resilience under sustained fault rates
# ----------------------------------------------------------------------
def fig19_resilience(seed: int = 0, nodes: int = 8,
                     rates: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
                     trials: int = 1, stragglers: int = 0,
                     workload_names: Optional[Sequence[str]] = None,
                     strict: Optional[bool] = None,
                     jobs: Optional[int] = None,
                     timeout: Optional[float] = None,
                     checkpoint=None):
    """Slowdown/availability-vs-fault-rate curves (extension of §VIII).

    For each engine and each of the six workloads, a seeded stochastic
    fault process (per-node Poisson/MTTF arrivals, see
    :mod:`repro.resilience.stochastic`) is compiled into a
    deterministic plan per rate and injected into the simulation;
    the curves report the mean slowdown over completed trials and the
    fraction of trials that completed at all.  Deterministic per seed
    and bit-identical at any job count; pass ``checkpoint`` (a
    :class:`~repro.harness.checkpoint.CheckpointStore`) to journal
    cells and resume a killed campaign.
    """
    from ..resilience.sweep import default_workloads, resilience_sweep
    workloads = default_workloads(nodes)
    if workload_names is not None:
        wanted = set(workload_names)
        unknown = wanted - {name for name, _w, _c in workloads}
        if unknown:
            raise ValueError(f"unknown workload(s) {sorted(unknown)}")
        workloads = [w for w in workloads if w[0] in wanted]
    return resilience_sweep(
        workloads=workloads, rates=rates, trials=trials, nodes=nodes,
        seed=seed, stragglers=stragglers, strict=strict, jobs=jobs,
        timeout=timeout, checkpoint=checkpoint, figure_id="fig19")


# ----------------------------------------------------------------------
# Fig. 20 / Fig. 21 (extension) — executed streaming engines
# ----------------------------------------------------------------------
def fig20_streaming_latency(seed: int = 0, nodes: int = 8,
                            load_fractions: Optional[Sequence[float]] = None,
                            arrival_kinds: Optional[Sequence[str]] = None,
                            duration: Optional[float] = None,
                            strict: Optional[bool] = None,
                            jobs: Optional[int] = None,
                            timeout: Optional[float] = None,
                            checkpoint=None):
    """Latency percentiles vs offered load for the executed streaming
    engines (the §VIII future-work question, answered by execution).

    Each cell runs one engine under one compiled arrival plan (steady
    Poisson or bursty MMPP) at a fraction of that engine's analytic
    capacity on the fluid kernel; see :mod:`repro.streaming.engines`.
    Deterministic per seed and bit-identical at any job count; pass
    ``checkpoint`` to journal cells and resume a killed campaign.
    """
    from ..streaming.sweep import (ARRIVAL_KINDS, DEFAULT_DURATION,
                                   DEFAULT_LOAD_FRACTIONS, streaming_sweep)
    return streaming_sweep(
        figure_id="fig20",
        arrival_kinds=(tuple(arrival_kinds) if arrival_kinds is not None
                       else ARRIVAL_KINDS),
        load_fractions=(tuple(load_fractions) if load_fractions is not None
                        else DEFAULT_LOAD_FRACTIONS),
        nodes=nodes, seed=seed,
        duration=duration if duration is not None else DEFAULT_DURATION,
        strict=strict, jobs=jobs, timeout=timeout, checkpoint=checkpoint)


def fig21_streaming_recovery(seed: int = 0, nodes: int = 8,
                             checkpoint_intervals: Optional[
                                 Sequence[float]] = None,
                             crash_at: Optional[float] = None,
                             duration: Optional[float] = None,
                             strict: Optional[bool] = None,
                             jobs: Optional[int] = None,
                             timeout: Optional[float] = None,
                             checkpoint=None):
    """Recovery time after a node crash vs checkpoint interval.

    Both streaming engines run at half capacity under Poisson arrivals;
    a crash kills the pipeline mid-run and the engine replays from its
    last checkpoint (Flink: barrier snapshot; Spark: lineage since the
    last RDD checkpoint).  Longer intervals mean more replay, so
    recovery time grows with the interval.
    """
    from ..streaming.sweep import (DEFAULT_CHECKPOINT_INTERVALS,
                                   DEFAULT_DURATION, FIG21_CRASH_AT,
                                   FIG21_LOAD_FRACTION, streaming_sweep)
    return streaming_sweep(
        figure_id="fig21",
        load_fractions=(FIG21_LOAD_FRACTION,),
        checkpoint_intervals=(tuple(checkpoint_intervals)
                              if checkpoint_intervals is not None
                              else DEFAULT_CHECKPOINT_INTERVALS),
        crash_at=crash_at if crash_at is not None else FIG21_CRASH_AT,
        nodes=nodes, seed=seed,
        duration=duration if duration is not None else DEFAULT_DURATION,
        strict=strict, jobs=jobs, timeout=timeout, checkpoint=checkpoint)


def fig22_degradation(seed: int = 0, nodes: int = 8,
                      load_multiples: Optional[Sequence[float]] = None,
                      fault_rates: Optional[Sequence[float]] = None,
                      policies: Optional[Sequence[str]] = None,
                      duration: Optional[float] = None,
                      strict: Optional[bool] = None,
                      jobs: Optional[int] = None,
                      timeout: Optional[float] = None,
                      checkpoint=None):
    """Overload survival: goodput, loss fraction, p99 latency and
    availability vs offered load x fault rate x degradation policy.

    Each cell runs one engine under Poisson arrivals at a *multiple*
    of its stability boundary, with a crash schedule compiled from the
    stochastic fault model (common random numbers across engines and
    policies).  The ``"none"`` policy is the fixed-delay,
    never-shedding baseline whose latency diverges above 1.0x; the
    ``"degrade"`` policy (backoff restarts + shedding / adaptive
    batching) keeps p99 within the policy's bound at a measured loss
    fraction.  Deterministic per seed and bit-identical at any job
    count; pass ``checkpoint`` to journal cells and resume.
    """
    from ..streaming.sweep import (DEFAULT_DURATION, DEFAULT_FAULT_RATES,
                                   DEFAULT_LOAD_MULTIPLES,
                                   degradation_sweep)
    return degradation_sweep(
        figure_id="fig22",
        load_multiples=(tuple(load_multiples)
                        if load_multiples is not None
                        else DEFAULT_LOAD_MULTIPLES),
        fault_rates=(tuple(fault_rates) if fault_rates is not None
                     else DEFAULT_FAULT_RATES),
        policies=(tuple(policies) if policies is not None
                  else ("none", "degrade")),
        nodes=nodes, seed=seed,
        duration=duration if duration is not None else DEFAULT_DURATION,
        strict=strict, jobs=jobs, timeout=timeout, checkpoint=checkpoint)


# ----------------------------------------------------------------------
# Fig. 23 (extension) — multi-tenant cluster scheduling
# ----------------------------------------------------------------------
def fig23_tenancy(seed: int = 0, nodes: int = 8,
                  policies: Optional[Sequence[str]] = None,
                  loads: Optional[Sequence[float]] = None,
                  trials: int = 1,
                  jobs_target: Optional[int] = None,
                  crash_rate: float = 0.0,
                  strict: Optional[bool] = None,
                  jobs: Optional[int] = None,
                  timeout: Optional[float] = None,
                  checkpoint=None):
    """Multi-tenant scheduling: per-policy job slowdown, queue wait vs
    utilization, and Jain fairness vs offered load.

    The paper ran one job per cluster; this figure shares one cluster
    between a seeded Poisson mix of jobs (both engines, two queues)
    admitted under FIFO, fair-share or capacity scheduling with
    engine-faithful preemption loss (Spark lineage vs Flink restart —
    see :mod:`repro.scheduler`).  Deterministic per seed and
    bit-identical at any job count; pass ``checkpoint`` to journal
    cells and resume a killed campaign.
    """
    from ..scheduler.sweep import (DEFAULT_JOBS_TARGET, DEFAULT_LOADS,
                                   DEFAULT_POLICIES, tenancy_sweep)
    return tenancy_sweep(
        policies=(tuple(policies) if policies is not None
                  else DEFAULT_POLICIES),
        loads=tuple(loads) if loads is not None else DEFAULT_LOADS,
        trials=trials, nodes=nodes, seed=seed,
        jobs_target=(jobs_target if jobs_target is not None
                     else DEFAULT_JOBS_TARGET),
        crash_rate=crash_rate, strict=strict, jobs=jobs,
        timeout=timeout, checkpoint=checkpoint, figure_id="fig23")

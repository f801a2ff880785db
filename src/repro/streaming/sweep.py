"""Streaming campaigns: the fig20/fig21/fig22 artefacts.

Three figures answer the §VIII question quantitatively on the executed
engines (:mod:`repro.streaming.engines`):

* **fig20** — latency percentiles versus offered load, both engines,
  steady Poisson *and* bursty MMPP arrivals.  The continuous-operator
  engine holds sub-second percentiles until its capacity; the
  micro-batch engine pays the residual batch wait everywhere and
  destabilises earlier under bursts.
* **fig21** — recovery time after a node crash versus checkpoint
  interval.  Longer intervals mean more replay (Flink: from the last
  barrier; Spark: lineage since the last RDD checkpoint), so recovery
  time grows with the interval on both engines.
* **fig22** — overload survival: goodput, loss fraction, p99 latency
  and availability versus offered load (1.0x-2.0x the stability
  boundary) x fault rate x degradation policy, per engine.  The
  ``"none"`` policy is the PR 6 baseline (fixed-delay restarts, no
  shedding): above 1x its latency diverges with the run length.  The
  ``"degrade"`` policy (:func:`~repro.streaming.policies.
  resolve_policy`: backoff restarts plus probabilistic shedding on the
  continuous engine / PID-adaptive batching on the micro-batch engine)
  keeps p99 within the policy's pinned bound at the measured cost of a
  loss fraction.  Crash schedules come from PR 5's
  :class:`~repro.resilience.stochastic.StochasticFaultModel` with
  common random numbers: the same seed x fault rate gives every
  engine x policy the identical crash sequence.

Every cell is deterministic (arrival randomness is compiled into an
:class:`~repro.streaming.arrivals.ArrivalPlan` before any simulation),
and the campaigns run through :func:`~repro.harness.campaign.
run_campaign`, like every journaled experiment: cells fan out with
explicit gap reporting, and a :class:`~repro.harness.checkpoint.
CheckpointStore` journals finished cells so a SIGKILLed campaign
resumes bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..harness.campaign import cell_delay, run_campaign
from ..harness.checkpoint import CheckpointStore
from ..harness.parallel import TaskFailure
from .arrivals import ARRIVAL_KINDS, make_arrivals, slice_count
from .engines import STREAMING_ENGINES, run_streaming
from .model import StreamingWorkloadModel, max_stable_throughput

__all__ = ["StreamingCell", "StreamingFigure", "streaming_sweep",
           "DEFAULT_LOAD_FRACTIONS", "DEFAULT_CHECKPOINT_INTERVALS",
           "FIG21_LOAD_FRACTION", "FIG21_CRASH_AT", "DEFAULT_DURATION",
           "DegradeCell", "degradation_sweep", "DEFAULT_LOAD_MULTIPLES",
           "DEFAULT_FAULT_RATES"]

#: fig20 x-axis: offered load as a fraction of each engine's own
#: analytic ``max_stable_throughput`` (so both engines are compared at
#: the same *relative* pressure).
DEFAULT_LOAD_FRACTIONS = (0.3, 0.6, 0.8, 0.95)

#: fig21 x-axis.  Chosen so no two intervals share their last
#: checkpoint boundary before the crash at ``FIG21_CRASH_AT`` — the
#: replay volume, and hence recovery time, differs at every point.
DEFAULT_CHECKPOINT_INTERVALS = (1.5, 3.0, 6.0, 12.0)

#: fig21 runs at half capacity: enough headroom that even the longest
#: checkpoint interval catches back up within the run.
FIG21_LOAD_FRACTION = 0.5
FIG21_CRASH_AT = 23.0

DEFAULT_DURATION = 40.0

#: fig22 x-axis: offered load as a *multiple* of each engine's
#: stability boundary — everything at or above 1.0 overloads the
#: baseline.
DEFAULT_LOAD_MULTIPLES = (1.0, 1.25, 1.5, 2.0)

#: fig22 fault axis: expected crashes per node over the run's relative
#: window (PR 5's :class:`StochasticFaultModel` ``crash_rate``); 0.0 is
#: the overload-only story, the positive rate adds repeated crashes.
DEFAULT_FAULT_RATES = (0.0, 0.5)


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
@dataclass
class StreamingCell:
    """One data point: engine x arrival process x load (fig20) or
    engine x checkpoint interval (fig21)."""

    engine: str
    arrival_kind: str
    load_fraction: float
    checkpoint_interval: float
    nodes: int
    seed: int
    duration: float
    batch_interval: float
    crash_at: Optional[float] = None
    offered_rate: float = math.nan     # realised mean of the plan
    plan_digest: str = ""
    total_records: int = 0
    processed_records: int = 0
    p50: float = math.nan
    p95: float = math.nan
    p99: float = math.nan
    mean_latency: float = math.nan
    stable: bool = False
    drain_seconds: float = math.nan
    checkpoints: int = 0
    makespan: float = math.nan
    crashed: bool = False
    replayed_records: int = 0
    recovery_seconds: float = math.nan
    sim_events: int = 0
    #: Harness-level gap: the cell's worker crashed, hung or raised —
    #: nothing was simulated.
    gap: bool = False
    gap_detail: Optional[str] = None

    def describe(self) -> str:
        head = (f"{self.engine:5s} {self.arrival_kind:7s} "
                f"load {self.load_fraction:.2f} ck {self.checkpoint_interval:g}s")
        if self.gap:
            return f"{head}: GAP ({self.gap_detail})"
        if not self.stable:
            return f"{head}: UNSTABLE (drain {self.drain_seconds:.1f}s)"
        parts = [f"p50 {1000 * self.p50:.0f} ms",
                 f"p99 {1000 * self.p99:.0f} ms"]
        if self.crashed:
            rec = ("never" if math.isnan(self.recovery_seconds)
                   else f"{self.recovery_seconds:.1f}s")
            parts.append(f"recovered {rec} "
                         f"(replayed {self.replayed_records:,d})")
        return f"{head}: " + ", ".join(parts)


def _cell_task(engine: str, kind: str, load_fraction: float,
               checkpoint_interval: float, nodes: int, seed: int,
               duration: float, batch_interval: float,
               crash_at: Optional[float], strict: bool) -> Dict[str, Any]:
    """Run one streaming cell; module-level and JSON-in/out so it fans
    across worker processes and journals into a checkpoint store."""
    cell_delay()
    model = StreamingWorkloadModel()
    capacity = max_stable_throughput(model, nodes, engine,
                                     batch_interval=batch_interval)
    arrivals = make_arrivals(kind, load_fraction * capacity)
    result = run_streaming(
        engine, arrivals, duration=duration, nodes=nodes, model=model,
        seed=seed, batch_interval=batch_interval,
        checkpoint_interval=checkpoint_interval,
        crash_times=() if crash_at is None else (crash_at,), strict=strict)
    cell = StreamingCell(
        engine=engine, arrival_kind=kind, load_fraction=load_fraction,
        checkpoint_interval=checkpoint_interval, nodes=nodes, seed=seed,
        duration=duration, batch_interval=batch_interval,
        crash_at=crash_at, offered_rate=result.offered_rate,
        plan_digest=result.plan_digest,
        total_records=result.total_records,
        processed_records=result.processed_records,
        p50=result.percentile(50), p95=result.percentile(95),
        p99=result.percentile(99), mean_latency=result.mean_latency,
        stable=result.stable, drain_seconds=result.drain_seconds,
        checkpoints=result.checkpoints, makespan=result.makespan,
        crashed=result.crashed,
        replayed_records=result.replayed_records,
        recovery_seconds=result.recovery_seconds,
        sim_events=result.sim_events)
    return asdict(cell)


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------
@dataclass
class StreamingFigure:
    """A fig20, fig21 or fig22 artefact: cells plus explicit campaign
    gaps (:class:`StreamingCell` for fig20/fig21, :class:`DegradeCell`
    for fig22)."""

    figure_id: str
    title: str
    nodes: int
    duration: float
    cells: List[Union[StreamingCell, DegradeCell]]
    gaps: List[Union[StreamingCell, DegradeCell]] = field(
        default_factory=list)

    def describe(self) -> str:
        lines = [self.title]
        lines.extend(f"  {cell.describe()}" for cell in self.cells)
        if self.gaps:
            lines.append(f"  GAPS: {len(self.gaps)} cell(s) not simulated "
                         f"(harness failures)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def _decode(cell_type, key: Dict[str, Any], result: Any):
    """One campaign result as a cell: its journal payload decoded, or a
    gap for a cell that could not finish.  Every key field but
    ``figure_id`` is a cell field, so the gap keeps the cell's identity."""
    if isinstance(result, TaskFailure):
        identity = {k: v for k, v in key.items() if k != "figure_id"}
        return cell_type(**identity, gap=True, gap_detail=result.describe())
    return cell_type(**result)


def streaming_sweep(
        figure_id: str = "fig20",
        engines: Sequence[str] = STREAMING_ENGINES,
        arrival_kinds: Sequence[str] = ARRIVAL_KINDS,
        load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
        checkpoint_intervals: Optional[Sequence[float]] = None,
        nodes: int = 8, seed: int = 0, duration: float = DEFAULT_DURATION,
        batch_interval: float = 1.0,
        crash_at: Optional[float] = None,
        strict: bool = False, jobs: Optional[int] = None,
        timeout: Optional[float] = None, retries: int = 1,
        checkpoint: Optional[CheckpointStore] = None) -> StreamingFigure:
    """Run a streaming campaign and assemble the figure.

    Two shapes, selected by ``figure_id``-style arguments:

    * latency sweep (fig20): one cell per engine x arrival kind x load
      fraction, at a fixed checkpoint interval;
    * recovery sweep (fig21): pass ``checkpoint_intervals`` and
      ``crash_at`` — one cell per engine x interval, at a fixed load
      fraction (the first entry of ``load_fractions``) with Poisson
      arrivals.

    Cells are independent and deterministic, run through
    :func:`~repro.harness.campaign.run_campaign`; a cell whose worker
    raises, or crashes or exceeds ``timeout`` past its retries, is
    reported as an explicit gap.  ``checkpoint`` journals finished
    cells for kill-and-resume.  A ``duration`` that is not a whole
    number of ingest slices, or a recovery sweep without ``crash_at``,
    raises ``ValueError`` before any cell runs.
    """
    slice_count(duration)
    labels: List[Tuple[str, str, float, float]] = []
    if checkpoint_intervals is not None:
        if crash_at is None:
            raise ValueError("the recovery sweep needs crash_at")
        fraction = load_fractions[0]
        for engine in engines:
            for interval in checkpoint_intervals:
                labels.append((engine, "poisson", fraction, interval))
        title = (f"Recovery time vs checkpoint interval "
                 f"({nodes} nodes, load {fraction:.0%} of capacity, "
                 f"crash at {crash_at:g}s)")
    else:
        default_ckpt = 10.0
        for engine in engines:
            for kind in arrival_kinds:
                for fraction in load_fractions:
                    labels.append((engine, kind, fraction, default_ckpt))
        title = (f"Latency percentiles vs offered load "
                 f"({nodes} nodes, {duration:g}s campaigns)")

    cells = [({
        "figure_id": figure_id, "engine": engine, "arrival_kind": kind,
        "load_fraction": fraction, "checkpoint_interval": interval,
        "nodes": nodes, "seed": seed, "duration": duration,
        "batch_interval": batch_interval, "crash_at": crash_at,
    }, (engine, kind, fraction, interval, nodes, seed, duration,
        batch_interval, crash_at, strict))
        for engine, kind, fraction, interval in labels]
    results = run_campaign(_cell_task, cells, checkpoint, jobs=jobs,
                           timeout=timeout, retries=retries)
    figure_cells = [_decode(StreamingCell, key, result)
                    for (key, _args), result in zip(cells, results)]
    return StreamingFigure(
        figure_id=figure_id, title=title, nodes=nodes, duration=duration,
        cells=figure_cells, gaps=[c for c in figure_cells if c.gap])


# ----------------------------------------------------------------------
# fig22: the degradation campaign
# ----------------------------------------------------------------------
@dataclass
class DegradeCell:
    """One fig22 data point: engine x load multiple x fault rate x
    degradation policy."""

    engine: str
    load_multiple: float
    fault_rate: float
    policy: str                        # "none" | "degrade"
    nodes: int
    seed: int
    duration: float
    batch_interval: float
    offered_rate: float = math.nan
    plan_digest: str = ""
    crash_schedule: List[float] = field(default_factory=list)
    total_records: int = 0
    processed_records: int = 0
    dropped_records: int = 0
    lost_records: int = 0
    goodput: float = math.nan
    loss_fraction: float = math.nan
    p50: float = math.nan
    p99: float = math.nan
    p99_bound: float = math.nan
    availability: float = math.nan
    crashes: int = 0
    restarts: int = 0
    job_failed: bool = False
    stable: bool = False
    makespan: float = math.nan
    downtime_seconds: float = math.nan
    shed_events: int = 0
    recovery_seconds: float = math.nan
    sim_events: int = 0
    gap: bool = False
    gap_detail: Optional[str] = None

    def describe(self) -> str:
        head = (f"{self.engine:5s} {self.load_multiple:.2f}x "
                f"faults {self.fault_rate:g} {self.policy:7s}")
        if self.gap:
            return f"{head}: GAP ({self.gap_detail})"
        if self.job_failed:
            return (f"{head}: JOB FAILED after {self.restarts} "
                    f"restart(s), availability {self.availability:.0%}")
        parts = [f"goodput {self.goodput:,.0f} rec/s",
                 f"loss {self.loss_fraction:.1%}",
                 f"p99 {self.p99:.2f}s",
                 f"avail {self.availability:.0%}"]
        if not self.stable:
            parts.append(f"UNSTABLE (drained to {self.makespan:.0f}s)")
        if self.crashes:
            parts.append(f"{self.crashes} crash(es)")
        return f"{head}: " + ", ".join(parts)


def _degrade_task(engine: str, load_multiple: float, fault_rate: float,
                  policy: str, nodes: int, seed: int, duration: float,
                  batch_interval: float,
                  strict: bool) -> Dict[str, Any]:
    """Run one fig22 cell (module-level, JSON-in/out for run_campaign)."""
    from .policies import compile_crash_schedule, resolve_policy
    cell_delay()
    model = StreamingWorkloadModel()
    capacity = max_stable_throughput(model, nodes, engine,
                                     batch_interval=batch_interval)
    arrivals = make_arrivals("poisson", load_multiple * capacity)
    # Common random numbers: the schedule depends only on
    # (seed, nodes, duration, fault_rate), so every engine x policy at
    # a given fault rate faces the identical crash sequence.
    schedule = compile_crash_schedule(seed, nodes, duration, fault_rate)
    strategy, shedding, batch_policy = resolve_policy(engine, policy)
    result = run_streaming(
        engine, arrivals, duration=duration, nodes=nodes, model=model,
        seed=seed, batch_interval=batch_interval,
        checkpoint_interval=10.0, crash_times=schedule,
        restart_strategy=strategy, shedding=shedding,
        batch_policy=batch_policy, strict=strict)
    cell = DegradeCell(
        engine=engine, load_multiple=load_multiple,
        fault_rate=fault_rate, policy=policy, nodes=nodes, seed=seed,
        duration=duration, batch_interval=batch_interval,
        offered_rate=result.offered_rate,
        plan_digest=result.plan_digest,
        crash_schedule=list(result.crash_schedule),
        total_records=result.total_records,
        processed_records=result.processed_records,
        dropped_records=result.dropped_records,
        lost_records=result.lost_records, goodput=result.goodput,
        loss_fraction=result.loss_fraction,
        p50=result.percentile(50), p99=result.percentile(99),
        p99_bound=result.p99_bound, availability=result.availability,
        crashes=len(result.crashes), restarts=result.restarts,
        job_failed=result.job_failed, stable=result.stable,
        makespan=result.makespan,
        downtime_seconds=result.downtime_seconds,
        shed_events=result.shed_events,
        recovery_seconds=result.recovery_seconds,
        sim_events=result.sim_events)
    return asdict(cell)


def degradation_sweep(
        figure_id: str = "fig22",
        engines: Sequence[str] = STREAMING_ENGINES,
        load_multiples: Sequence[float] = DEFAULT_LOAD_MULTIPLES,
        fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
        policies: Sequence[str] = ("none", "degrade"),
        nodes: int = 8, seed: int = 0,
        duration: float = DEFAULT_DURATION,
        batch_interval: float = 1.0,
        strict: bool = False, jobs: Optional[int] = None,
        timeout: Optional[float] = None, retries: int = 1,
        checkpoint: Optional[CheckpointStore] = None
) -> StreamingFigure:
    """Run the fig22 degradation campaign and assemble the figure.

    One cell per engine x load multiple x fault rate x policy, run like
    :func:`streaming_sweep`'s (gaps, retries, checkpoint journaling,
    bit-identical at any ``jobs``), and refuses a ``duration`` that is
    not a whole number of ingest slices before any cell runs.
    """
    slice_count(duration)
    title = (f"Overload survival: goodput/loss/p99/availability vs "
             f"load multiple x fault rate x policy "
             f"({nodes} nodes, {duration:g}s campaigns)")
    cells = [({
        "figure_id": figure_id, "engine": engine,
        "load_multiple": multiple, "fault_rate": rate, "policy": policy,
        "nodes": nodes, "seed": seed, "duration": duration,
        "batch_interval": batch_interval,
    }, (engine, multiple, rate, policy, nodes, seed, duration,
        batch_interval, strict))
        for engine in engines for multiple in load_multiples
        for rate in fault_rates for policy in policies]
    results = run_campaign(_degrade_task, cells, checkpoint, jobs=jobs,
                           timeout=timeout, retries=retries)
    figure_cells = [_decode(DegradeCell, key, result)
                    for (key, _args), result in zip(cells, results)]
    return StreamingFigure(
        figure_id=figure_id, title=title, nodes=nodes, duration=duration,
        cells=figure_cells, gaps=[c for c in figure_cells if c.gap])


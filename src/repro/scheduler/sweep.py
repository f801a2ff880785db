"""Tenancy sweeps: job slowdown / fairness versus offered load.

The paper ran one job at a time on a dedicated cluster; real Spark and
Flink deployments share one cluster between tenants behind a queueing
scheduler, and the performance story then includes *waiting* — the
figure-23 family quantifies it per policy:

* **job-slowdown distribution** — completion elapsed / service time
  per job (>= 1 by construction; the queueing-theory "slowdown");
* **queue wait versus utilization** — how much of the slowdown is
  spent holding zero nodes;
* **fairness (Jain's index) versus load** — how evenly the slowdowns
  spread across jobs under each policy.

One cell per (policy, load, trial).  A cell compiles a seeded
:class:`~repro.scheduler.mix.WorkloadMix` arrival plan (common random
numbers: the seed depends on the trial only, so every policy faces the
byte-identical arrival sequence) and runs it through
:func:`~repro.scheduler.core.run_tenancy` on profiled job footprints.
The profiling runs happen **once, in the campaign parent**, so workers
stay cheap and every cell shares the same services map.

Cells run through :func:`~repro.harness.campaign.run_campaign`, the
campaign primitive every journaled experiment shares: fault-contained
fan-out with explicit gaps, :class:`~repro.harness.checkpoint.
CheckpointStore` journaling for ``--resume``, and digest-pinned results
bit-identical at any ``--jobs``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..harness.campaign import run_campaign
from ..harness.checkpoint import CheckpointStore
from ..harness.parallel import TaskFailure
from ..validation.invariants import strict_enabled
from .core import run_tenancy
from .jobs import JobTemplate, profile_templates
from .mix import WorkloadMix, compile_crash_plan
from .policies import POLICY_NAMES, QueueConfig, make_policy

__all__ = ["TenancyCell", "TenancyFigure", "default_queues",
           "default_templates", "tenancy_sweep"]

#: Test hook: wall-clock seconds to sleep per cell (stretches campaign
#: wall time for the kill-and-resume tests without touching any
#: simulated value).
ENV_DELAY = "REPRO_TENANCY_DELAY"

DEFAULT_LOADS = (0.3, 0.6, 0.9)
DEFAULT_POLICIES = POLICY_NAMES
DEFAULT_JOBS_TARGET = 12


def default_templates(nodes: int = 8) -> Tuple[JobTemplate, ...]:
    """The default tenant mix: two queues, both engines, four shapes.

    Production jobs (short scans, priority 1) contend with batch jobs
    (sort + iterative ML, priority 0); each wants half the cluster, so
    at moderate load the policies genuinely disagree about who waits.
    """
    width = max(2, nodes // 2)
    return (
        JobTemplate(name="wc-spark", engine="spark", workload="wordcount",
                    width=width, queue="prod", priority=1),
        JobTemplate(name="grep-flink", engine="flink", workload="grep",
                    width=width, queue="prod", priority=1),
        JobTemplate(name="sort-flink", engine="flink", workload="terasort",
                    width=width, queue="batch", priority=0),
        JobTemplate(name="kmeans-spark", engine="spark", workload="kmeans",
                    width=width, queue="batch", priority=0),
    )


def default_queues(nodes: int = 8) -> Tuple[QueueConfig, ...]:
    """Default queue config: prod unlimited, batch capped at 3/4 of the
    cluster so production work always has a guaranteed foothold."""
    return (QueueConfig("prod"),
            QueueConfig("batch", quota=max(1, nodes * 3 // 4)))


def mean_job_work(templates: Sequence[JobTemplate],
                  services: Dict[str, float],
                  weights: Optional[Sequence[float]] = None) -> float:
    """Expected node-seconds per arriving job (sets the load scale)."""
    if weights is None:
        weights = [1.0] * len(templates)
    total_w = sum(weights)
    return sum(w * services[t.name] * t.width
               for t, w in zip(templates, weights)) / total_w


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
@dataclass
class TenancyCell:
    """One data point: policy x offered load x trial."""

    policy: str
    load: float
    trial: int
    seed: int
    nodes: int
    plan_digest: str = ""
    arrival_rate: float = math.nan
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    preemptions: int = 0
    crashes: int = 0
    #: Per-completed-job slowdowns / per-admitted-job waits, arrival
    #: order — the raw material of the CDF and wait-vs-util panels.
    slowdowns: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    jain: float = math.nan
    utilization: float = math.nan
    makespan: float = math.nan
    events: int = 0
    #: Harness-level gap: the cell's worker crashed, hung or raised —
    #: nothing was simulated.
    gap: bool = False
    gap_detail: Optional[str] = None

    @property
    def mean_slowdown(self) -> float:
        return (sum(self.slowdowns) / len(self.slowdowns)
                if self.slowdowns else math.nan)

    @property
    def mean_wait(self) -> float:
        return sum(self.waits) / len(self.waits) if self.waits else math.nan

    def payload(self) -> Dict[str, Any]:
        return {
            "policy": self.policy, "load": self.load, "trial": self.trial,
            "seed": self.seed, "nodes": self.nodes,
            "plan_digest": self.plan_digest,
            "arrival_rate": self.arrival_rate,
            "submitted": self.submitted, "completed": self.completed,
            "failed": self.failed, "rejected": self.rejected,
            "preemptions": self.preemptions, "crashes": self.crashes,
            "slowdowns": list(self.slowdowns), "waits": list(self.waits),
            "jain": self.jain, "utilization": self.utilization,
            "makespan": self.makespan, "events": self.events,
            "gap": self.gap, "gap_detail": self.gap_detail,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "TenancyCell":
        return TenancyCell(**payload)


def _cell_task(policy_name: str, load: float, trial: int, cell_seed: int,
               nodes: int, templates_payload: List[Dict[str, Any]],
               queues_payload: List[Dict[str, Any]],
               services: Dict[str, float], crash_rate: float,
               jobs_target: int, strict: bool) -> Dict[str, Any]:
    """Run one tenancy cell; module-level and JSON-in/out so it fans
    across worker processes and journals into a checkpoint store."""
    delay = float(os.environ.get(ENV_DELAY, "0") or 0)
    if delay > 0:
        time.sleep(delay)
    templates = tuple(JobTemplate(**p) for p in templates_payload)
    queues = tuple(QueueConfig(**p) for p in queues_payload)
    work = mean_job_work(templates, services)
    arrival_rate = load * nodes / work
    horizon = jobs_target / arrival_rate
    mix = WorkloadMix(templates=templates, arrival_rate=arrival_rate,
                      horizon=horizon)
    plan = mix.compile(cell_seed)
    crashes = compile_crash_plan(cell_seed + 1, nodes, crash_rate, horizon)
    result = run_tenancy(plan, make_policy(policy_name), services,
                         nodes=nodes, queues=queues, crashes=crashes,
                         strict=strict)
    cell = TenancyCell(
        policy=policy_name, load=load, trial=trial, seed=cell_seed,
        nodes=nodes, plan_digest=plan.digest(),
        arrival_rate=arrival_rate,
        submitted=result.submitted, completed=result.completed,
        failed=result.failed, rejected=result.rejected,
        preemptions=sum(r.preemptions for r in result.records),
        crashes=sum(r.crashes for r in result.records),
        slowdowns=result.slowdowns(), waits=result.waits(),
        jain=result.jain(), utilization=result.utilization(),
        makespan=result.makespan, events=result.events)
    return cell.payload()


# ----------------------------------------------------------------------
# the figure
# ----------------------------------------------------------------------
def _percentile(values: Sequence[float], q: float) -> float:
    xs = sorted(v for v in values if not math.isnan(v))
    if not xs:
        return math.nan
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class TenancyFigure:
    """The fig23 artefact: cells plus explicit campaign gaps."""

    figure_id: str
    title: str
    nodes: int
    loads: List[float]
    policies: List[str]
    trials: int
    cells: List[TenancyCell]
    gaps: List[TenancyCell] = field(default_factory=list)

    def at(self, policy: str, load: float) -> List[TenancyCell]:
        return [c for c in self.cells
                if c.policy == policy and c.load == load and not c.gap]

    def describe(self) -> str:
        lines = [self.title]
        for policy in self.policies:
            points = []
            for load in self.loads:
                cells = self.at(policy, load)
                slowdowns = [s for c in cells for s in c.slowdowns]
                waits = [w for c in cells for w in c.waits]
                utils = [c.utilization for c in cells
                         if not math.isnan(c.utilization)]
                jains = [c.jain for c in cells if not math.isnan(c.jain)]
                if not slowdowns:
                    points.append(f"load {load:g}: -")
                    continue
                mean = sum(slowdowns) / len(slowdowns)
                p95 = _percentile(slowdowns, 0.95)
                wait = sum(waits) / len(waits) if waits else math.nan
                util = sum(utils) / len(utils) if utils else math.nan
                jain = sum(jains) / len(jains) if jains else math.nan
                points.append(
                    f"load {load:g}: {mean:.2f}x (p95 {p95:.2f}x) "
                    f"wait {wait:.1f}s util {100 * util:.0f}% "
                    f"J={jain:.3f}")
            lines.append(f"  {policy:9s} {'; '.join(points)}")
        dropped = sum(c.failed + c.rejected for c in self.cells
                      if not c.gap)
        if dropped:
            lines.append(f"  {dropped} job(s) failed or rejected across "
                         f"the campaign (explicit, audited)")
        if self.gaps:
            lines.append(f"  GAPS: {len(self.gaps)} cell(s) not simulated "
                         f"(harness failures):")
            lines.extend(f"    {g.policy} load={g.load:g} "
                         f"trial={g.trial}: {g.gap_detail}"
                         for g in self.gaps)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def tenancy_sweep(
        policies: Sequence[str] = DEFAULT_POLICIES,
        loads: Sequence[float] = DEFAULT_LOADS,
        trials: int = 1, nodes: int = 8, seed: int = 0,
        jobs_target: int = DEFAULT_JOBS_TARGET,
        crash_rate: float = 0.0,
        templates: Optional[Sequence[JobTemplate]] = None,
        queues: Optional[Sequence[QueueConfig]] = None,
        strict: Optional[bool] = None, jobs: Optional[int] = None,
        timeout: Optional[float] = None, retries: int = 1,
        checkpoint: Optional[CheckpointStore] = None,
        figure_id: str = "fig23") -> TenancyFigure:
    """Run the full tenancy campaign and assemble the figure.

    One cell per (policy, load, trial).  ``load`` is offered load as a
    fraction of cluster capacity (arrival rate x mean job node-seconds
    / nodes); ``jobs_target`` sets the expected arrivals per cell, so
    the arrival horizon shrinks as load grows.  ``crash_rate`` > 0 adds
    compiled mid-campaign node crashes (expected crashes per node per
    horizon).  Cells run through :func:`~repro.harness.campaign.
    run_campaign` with explicit gaps and checkpoint journaling.
    """
    if templates is None:
        templates = default_templates(nodes)
    if queues is None:
        queues = default_queues(nodes)
    for policy in policies:
        make_policy(policy)  # fail fast on unknown names
    strict_flag = strict_enabled(strict)
    profiles = profile_templates(templates, seed=seed, strict=strict_flag)
    services = {name: p.service_seconds for name, p in profiles.items()}

    templates_payload = [t.payload() for t in templates]
    queues_payload = [q.payload() for q in queues]
    cells = []
    for policy in policies:
        for load in loads:
            for trial in range(trials):
                # Common random numbers: the seed ignores the policy,
                # so every policy faces identical arrival plans.
                cell_seed = seed + 1000 * trial
                cells.append(({
                    "figure_id": figure_id, "policy": policy, "load": load,
                    "trial": trial, "seed": cell_seed, "nodes": nodes,
                    "crash_rate": crash_rate, "jobs_target": jobs_target,
                    "templates": templates_payload,
                    "queues": queues_payload,
                }, (policy, load, trial, cell_seed, nodes, templates_payload,
                    queues_payload, services, crash_rate, jobs_target,
                    strict_flag)))
    results = run_campaign(_cell_task, cells, checkpoint, jobs=jobs,
                           timeout=timeout, retries=retries)
    figure_cells = [
        TenancyCell.from_payload(result)
        if not isinstance(result, TaskFailure) else TenancyCell(
            policy=key["policy"], load=key["load"], trial=key["trial"],
            seed=key["seed"], nodes=nodes, gap=True,
            gap_detail=result.describe())
        for (key, _args), result in zip(cells, results)]
    return TenancyFigure(
        figure_id=figure_id,
        title=(f"Multi-tenant scheduling under offered load ({nodes} "
               f"nodes, {len(templates)} job template(s), "
               f"~{jobs_target} job(s)/cell)"),
        nodes=nodes, loads=list(loads), policies=list(policies),
        trials=trials, cells=figure_cells,
        gaps=[cell for cell in figure_cells if cell.gap])


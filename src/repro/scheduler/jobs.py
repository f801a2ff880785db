"""Schedulable job units: templates, profiles and per-job records.

The cluster scheduler does not re-simulate every engine run inside the
shared cluster — it *profiles* each distinct job template once through
the legacy single-tenant path (:func:`repro.harness.runner.run_once`)
and then schedules the profiled footprint: a job that wants ``width``
nodes for ``service_seconds`` of execution.  Two consequences, both
pinned by tests:

* a single job admitted through the scheduler is **bitwise identical**
  to today's direct run — the profile *is* the direct run, and a lone
  job on an otherwise-empty cluster runs at rate exactly 1.0, so its
  completion time equals the profiled duration to the last bit;
* concurrent jobs interact through a deterministic fluid sharing model
  at job granularity (allocation/width of full speed), which is what
  lets the differential tests compare fair-share against the analytic
  M/G/1 processor-sharing slowdown.

Profiles are produced at the resilience-sweep workload scale
(:func:`repro.resilience.sweep.default_workloads`), so the campaign
reuses the exact workload constructions PR 5 pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

__all__ = ["JobProfile", "JobTemplate", "profile_templates"]


@dataclass(frozen=True)
class JobTemplate:
    """One admissible job shape: what arrives when the mix fires.

    ``name`` identifies the template in plans, services maps and span
    labels; ``workload`` must be one of the paper's six workload names
    (it selects the profiled construction).  ``granules`` is the
    preemption quantum count — Spark-style preemption re-executes only
    the uncommitted granule, Flink-style restart re-executes all of
    them (see :mod:`repro.scheduler.core`).
    """

    name: str
    engine: str
    workload: str
    width: int
    queue: str = "default"
    priority: int = 0
    granules: int = 8

    def __post_init__(self) -> None:
        if self.engine not in ("spark", "flink"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.granules < 1:
            raise ValueError(f"granules must be >= 1, got {self.granules}")

    def payload(self) -> Dict[str, Any]:
        return {
            "name": self.name, "engine": self.engine,
            "workload": self.workload, "width": self.width,
            "queue": self.queue, "priority": self.priority,
            "granules": self.granules,
        }


@dataclass(frozen=True)
class JobProfile:
    """The measured single-tenant footprint of one template."""

    template: str
    service_seconds: float
    #: Kernel events of the profiling run (bench accounting).
    sim_events: int = 0


def profile_templates(templates: Sequence[JobTemplate], seed: int = 0,
                      strict: bool = False) -> Dict[str, JobProfile]:
    """Measure every template's service time via the legacy path.

    Each distinct template runs once, alone, on a fresh ``width``-node
    cluster through :func:`repro.harness.runner.run_once` — exactly the
    run a user would get without the scheduler.  Deterministic per
    seed, so profiling in the campaign parent and re-profiling after a
    resume produce identical services.
    """
    from ..harness.runner import run_once
    from ..resilience.sweep import default_workloads
    profiles: Dict[str, JobProfile] = {}
    catalogs: Dict[int, Dict[str, tuple]] = {}
    for template in templates:
        if template.name in profiles:
            continue
        catalog = catalogs.get(template.width)
        if catalog is None:
            catalog = {name: (workload, config) for name, workload, config
                       in default_workloads(template.width)}
            catalogs[template.width] = catalog
        if template.workload not in catalog:
            raise ValueError(
                f"template {template.name!r} names unknown workload "
                f"{template.workload!r}; one of {sorted(catalog)}")
        workload, config = catalog[template.workload]
        result = run_once(template.engine, workload, config, seed=seed,
                          strict=strict)
        if not result.success:
            raise RuntimeError(
                f"profiling run failed for {template.name!r}: "
                f"{result.failure}")
        profiles[template.name] = JobProfile(
            template=template.name, service_seconds=result.duration,
            sim_events=result.sim_events or 0)
    return profiles

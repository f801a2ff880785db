"""Multi-tenant cluster scheduling: queues, policies, preemption.

The package layers a deterministic job-level scheduler over the
single-tenant engine simulations:

* :mod:`~repro.scheduler.jobs` — job templates, profiled through the
  legacy single-run path so a lone scheduled job is bitwise identical
  to a direct run;
* :mod:`~repro.scheduler.mix` — seedable Poisson workload mixes,
  compiled to frozen digest-pinned arrival plans (randomness spent at
  compile time);
* :mod:`~repro.scheduler.policies` — FIFO, fair-share and capacity
  queue policies with quotas and admission control;
* :mod:`~repro.scheduler.core` — the event loop: fluid job progress,
  engine-specific preemption loss (Spark lineage vs Flink restart),
  node crashes, restart budgets, span recording;
* :mod:`~repro.scheduler.sweep` — the ``fig23`` tenancy campaign
  (slowdown CDF, wait vs utilization, Jain fairness vs load).
"""

from .core import (AllocationSnapshot, JobRecord, TenancyResult,
                   jain_index, run_tenancy)
from .jobs import JobProfile, JobTemplate, profile_templates
from .mix import (CrashEvent, TenancyPlan, WorkloadMix,
                  compile_crash_plan, simultaneous_plan)
from .policies import (POLICY_NAMES, CapacityPolicy, FairSharePolicy,
                       FifoPolicy, QueueConfig, make_policy)
from .sweep import (DEFAULT_JOBS_TARGET, DEFAULT_LOADS, DEFAULT_POLICIES,
                    TenancyCell, TenancyFigure, default_queues,
                    default_templates, tenancy_sweep)

__all__ = [
    "AllocationSnapshot", "CapacityPolicy", "CrashEvent",
    "DEFAULT_JOBS_TARGET", "DEFAULT_LOADS", "DEFAULT_POLICIES",
    "FairSharePolicy", "FifoPolicy", "JobProfile", "JobRecord",
    "JobTemplate", "POLICY_NAMES", "QueueConfig", "TenancyCell",
    "TenancyFigure", "TenancyPlan", "TenancyResult", "WorkloadMix",
    "compile_crash_plan", "default_queues", "default_templates",
    "jain_index", "make_policy", "profile_templates", "run_tenancy",
    "simultaneous_plan", "tenancy_sweep",
]

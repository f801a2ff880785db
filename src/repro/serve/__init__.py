"""``repro.serve``: the fault-tolerant capacity-advisor service.

The paper's configuration rules (:mod:`repro.config.advisor`) and the
deterministic simulator, turned into the thing an operator would
actually deploy: a long-running service answering "what is the smallest
cluster × engine × configuration that meets this SLO?" — and built to
survive the failures a long-running service actually meets: worker
crashes, overload bursts, corrupt cached state, slow clients, and its
own shutdown.  See ``docs/serving.md``.
"""

from .breaker import CircuitBreaker
from .cache import DigestCache
from .ledger import ServingLedger
from .planner import (CapacityQuery, PlanError, candidate_descriptors,
                      candidate_digest, evaluate_candidate,
                      plan_capacity_async, plan_capacity_sync)
from .pool import (AsyncWorkerPool, PoolError, TaskCrashed, TaskFailed,
                   TaskTimedOut)
from .service import AdvisorService

__all__ = [
    "AdvisorService", "AsyncWorkerPool", "CapacityQuery",
    "CircuitBreaker", "DigestCache", "PlanError", "PoolError",
    "ServingLedger", "TaskCrashed", "TaskFailed", "TaskTimedOut",
    "candidate_descriptors", "candidate_digest", "evaluate_candidate",
    "plan_capacity_async", "plan_capacity_sync",
]

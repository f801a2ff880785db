"""Stochastic resilience engine (builds on :mod:`repro.faults`).

PR 2 gave the simulator deterministic single-event fault injection;
this package adds what sustained operation actually looks like:

* :mod:`repro.resilience.stochastic` — per-node Poisson (MTTF) fault
  arrivals and persistent stragglers, compiled by seed into ordinary
  deterministic :class:`~repro.faults.plan.FaultPlan` data;
* :mod:`repro.resilience.sweep` — the resilience campaign: slowdown
  and availability versus per-node fault rate, for both engines across
  the six workloads (``fig19``), run under the crash-safe harness
  (checkpointed cells, per-trial timeouts, bounded retries, explicit
  gaps instead of campaign aborts).

See ``docs/resilience.md`` for the model and the resume semantics.
"""

from .stochastic import StochasticFaultModel, straggler_plan
from .sweep import (ResilienceCell, ResilienceCurve, ResilienceFigure,
                    default_workloads, resilience_sweep)

__all__ = [
    "ResilienceCell",
    "ResilienceCurve",
    "ResilienceFigure",
    "StochasticFaultModel",
    "default_workloads",
    "resilience_sweep",
    "straggler_plan",
]

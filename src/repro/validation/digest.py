"""Canonical trace digests: the determinism claim, made checkable.

A digest is a SHA-256 over a *canonical serialisation* of a run's
observable outputs: trial durations for the scaling figures, the full
resampled metric panels plus run metrics for the resource figures, and
the Load/Iter cell grid for Table VII.  Canonicalisation rules:

* floats are rendered with :func:`repr` — CPython's shortest-roundtrip
  formatting, deterministic across platforms and versions;
* NumPy scalars are converted to Python scalars first (their ``repr``
  changed between NumPy 1.x and 2.x);
* mapping keys are sorted; only JSON-ish types are accepted, so a typo'd
  payload fails loudly instead of hashing ``object.__repr__`` addresses.

Two same-seed runs must produce byte-identical canonical forms, hence
identical digests.  The replay harness (:mod:`repro.validation.replay`)
stores these digests under ``tests/golden/`` and re-checks them.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Any, Dict, List

import numpy as np

__all__ = [
    "canonical",
    "digest_payload",
    "scaling_payload",
    "resilience_payload",
    "resource_payload",
    "table_payload",
    "fault_payload",
    "trace_payload",
    "streaming_payload",
    "tenancy_payload",
]


def canonical(obj: Any) -> str:
    """Deterministic textual form of a JSON-ish payload."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{canonical(str(k))}:{canonical(v)}"
                        for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r}: digests accept only "
        f"None/bool/int/float/str/dict/list/tuple payloads")


def digest_payload(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical form."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# payload extractors for the harness result types
# ----------------------------------------------------------------------
def scaling_payload(fig) -> Dict[str, Any]:
    """Full observable output of a :class:`ScalingFigure`.

    Includes every trial's individual duration (not just mean/std), so
    a single divergent run changes the digest.
    """
    payload: Dict[str, Any] = {"figure_id": fig.figure_id, "xs": list(fig.xs)}
    series = {}
    for engine, s in fig.series.items():
        series[engine] = {"nodes": list(s.nodes), "means": list(s.means),
                          "stds": list(s.stds)}
    payload["series"] = series
    trials = {}
    for engine, stats_list in fig.trials_raw.items():
        trials[engine] = [
            {"nodes": st.nodes, "durations": list(st.durations),
             "failures": list(st.failures)}
            for st in stats_list
        ]
    payload["trials"] = trials
    return payload


def resource_payload(fig) -> Dict[str, Any]:
    """Full observable output of a :class:`ResourceFigure`: run timeline,
    accumulated metrics, and every resampled monitoring panel."""
    payload: Dict[str, Any] = {"figure_id": fig.figure_id, "runs": {}}
    for engine, run in fig.runs.items():
        result = run.result
        frames = {}
        for metric, frame in run.frames.items():
            frames[metric.value] = {
                "times": list(frame.times),
                "mean": list(frame.mean),
                "total": list(frame.total),
            }
        payload["runs"][engine] = {
            "duration": result.duration,
            "metrics": {k: v for k, v in sorted(result.metrics.items())
                        if isinstance(v, (int, float))},
            "jobs": [{"name": job.name, "start": job.start, "end": job.end}
                     for job in result.jobs],
            "frames": frames,
        }
    return payload


def fault_payload(fig) -> Dict[str, Any]:
    """Observable output of the Fig. 18 recovery-overhead sweep."""
    cells = []
    for cell in fig.cells:
        cells.append({
            "engine": cell.engine,
            "workload": cell.workload,
            "nodes": cell.nodes,
            "fail_at_fraction": cell.fail_at_fraction,
            "success": cell.success,
            "baseline_seconds": cell.baseline_seconds,
            "simulated_seconds": cell.simulated_seconds,
            "analytic_seconds": cell.analytic_seconds,
            "retries": cell.retries,
            "restarts": cell.restarts,
            "failure": cell.failure,
        })
    return {"figure_id": fig.figure_id, "cells": cells}


def resilience_payload(fig) -> Dict[str, Any]:
    """Observable output of the Fig. 19 resilience campaign.

    Every cell's payload is included — compiled plan digest, event
    count, durations, retry/restart counts — so a change to either the
    stochastic compiler or the fault-recovery engine changes the
    digest.  Gap cells (worker crash/timeout) are observable too: a
    campaign with holes must not hash like a complete one.
    """
    return {
        "figure_id": fig.figure_id,
        "nodes": fig.nodes,
        "rates": list(fig.rates),
        "trials": fig.trials,
        "cells": [asdict(cell) for cell in fig.cells],
    }


def streaming_payload(fig) -> Dict[str, Any]:
    """Observable output of a fig20/fig21/fig22 streaming campaign
    (a :class:`~repro.streaming.sweep.StreamingFigure`).

    Every cell's payload is included — compiled arrival-plan digest,
    latency percentiles, stability, checkpoint and recovery
    accounting — so a change to the arrival compiler, either engine,
    or the campaign layer changes the digest.  Gap cells are
    observable too.
    """
    return {
        "figure_id": fig.figure_id,
        "nodes": fig.nodes,
        "duration": fig.duration,
        "cells": [asdict(cell) for cell in fig.cells],
    }


def tenancy_payload(fig) -> Dict[str, Any]:
    """Observable output of the fig23 multi-tenancy campaign.

    Every cell's payload is included — compiled arrival-plan digest,
    per-job slowdowns and waits, fairness index, preemption and crash
    counts — so a change to the mix compiler, any queue policy, the
    preemption loss models or the campaign layer changes the digest.
    Gap cells are observable too.
    """
    return {
        "figure_id": fig.figure_id,
        "nodes": fig.nodes,
        "loads": list(fig.loads),
        "policies": list(fig.policies),
        "trials": fig.trials,
        "cells": [asdict(cell) for cell in fig.cells],
    }


def trace_payload(traced) -> Dict[str, Any]:
    """Observable output of a :class:`~repro.harness.runner.TracedRun`:
    the span tree, critical path and attribution, plus the Chrome-trace
    export built from them — so a change to either the recorded spans
    *or* the exporter's rendering changes the digest."""
    from ..observability import chrome_trace_payload  # local: avoid cycle
    return {
        "traced": traced.to_payload(),
        "chrome": chrome_trace_payload(traced.tree, traced.attribution),
    }


def table_payload(cells) -> List[Dict[str, Any]]:
    """Observable output of the Table VII grid."""
    rows = []
    for cell in cells:
        rows.append({
            "engine": cell.engine,
            "workload": cell.workload,
            "nodes": cell.nodes,
            "success": cell.success,
            "load_seconds": cell.load_seconds,
            "iter_seconds": cell.iter_seconds,
            "failure": cell.failure,
        })
    return rows

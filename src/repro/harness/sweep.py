"""Parameter sweeps: grid exploration of the configuration space.

The paper's §IV argument is that "for every workload, we found that
different parameter settings were necessary to provide an optimal
performance".  :func:`sweep` runs a workload under every combination of
config overrides and returns flat rows (dicts) ready for CSV export or
analysis — the tool a user needs to find their own optimum.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, TextIO

from ..config.presets import ExperimentConfig
from ..validation.invariants import strict_enabled
from ..workloads.base import Workload
from .campaign import run_campaign
from .parallel import TaskFailure
from .runner import run_once

__all__ = ["sweep", "sweep_rows_to_csv", "best_row"]


def _apply_overrides(config: ExperimentConfig,
                     overrides: Dict[str, object]) -> ExperimentConfig:
    """Apply ``spark.*`` / ``flink.*`` / top-level override keys."""
    spark = config.spark
    flink = config.flink
    top: Dict[str, object] = {}
    for key, value in overrides.items():
        if key.startswith("spark."):
            spark = spark.with_(**{key[6:]: value})
        elif key.startswith("flink."):
            flink = flink.with_(**{key[6:]: value})
        else:
            top[key] = value
    return ExperimentConfig(
        spark=spark, flink=flink,
        hdfs_block_size=top.get("hdfs_block_size",
                                config.hdfs_block_size),
        nodes=top.get("nodes", config.nodes))


def _combo_task(engine: str, workload: Workload, config: ExperimentConfig,
                overrides: Dict[str, object], trials: int, base_seed: int,
                strict: bool) -> Dict[str, object]:
    """Run every trial of one grid combination and build its row.

    All ``trials`` run even if one fails: a mid-sequence failure used to
    throw away the durations already measured, which made multi-trial
    sweeps report NaN for combinations that mostly worked.  The row now
    carries the mean over the completed trials plus ``completed_trials``
    so callers can judge how much evidence backs the number.  Sweeps
    only report durations, so tracing is off (strict runs re-enable it).
    """
    durations: List[float] = []
    failure: Optional[str] = None
    sim_events = 0
    for t in range(trials):
        result = run_once(engine, workload, config,
                          seed=base_seed + 1000 * t, strict=strict,
                          trace_detail="off")
        sim_events += result.sim_events or 0
        if result.success:
            durations.append(result.duration)
        elif failure is None:
            failure = result.failure or "unknown failure"
    row: Dict[str, object] = dict(overrides)
    row["engine"] = engine
    row["workload"] = workload.name
    row["completed_trials"] = len(durations)
    if durations:
        row["mean_seconds"] = sum(durations) / len(durations)
    else:
        row["mean_seconds"] = math.nan
    row["failure"] = failure or ""
    row["sim_events"] = sim_events
    return row


def sweep(engine: str, workload: Workload, base_config: ExperimentConfig,
          grid: Dict[str, Sequence], trials: int = 1,
          base_seed: int = 0, strict: Optional[bool] = None,
          jobs: Optional[int] = None,
          checkpoint=None) -> List[Dict[str, object]]:
    """Run the cartesian product of ``grid`` values.

    ``grid`` keys use dotted paths: ``"spark.default_parallelism"``,
    ``"flink.network_buffers"``, or top-level ``"hdfs_block_size"``.
    Returns one row per combination with the mean duration over the
    trials that completed (NaN plus a ``failure`` message when none
    did; ``completed_trials`` counts the successes behind each mean).

    ``jobs`` fans the combinations across worker processes (default
    ``$REPRO_JOBS`` or serial); every combination is an independent
    deterministic run, so the rows are identical either way.

    ``checkpoint`` (a :class:`~repro.harness.checkpoint.
    CheckpointStore`) journals every finished row as it completes;
    rerunning a killed sweep against the resumed store replays the
    journaled rows and computes only the missing combinations — the
    merged row list is bit-identical to an uninterrupted sweep.  A
    combination whose worker raises or crashes fails the sweep with a
    ``RuntimeError`` naming it, once every other combination has
    finished (and been journaled).
    """
    if not grid:
        raise ValueError("empty sweep grid")
    keys = list(grid)
    strict_flag = strict_enabled(strict)
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        config = _apply_overrides(base_config, overrides)
        cells.append(({"engine": engine, "workload": workload.name,
                       "overrides": overrides, "trials": trials,
                       "base_seed": base_seed},
                      (engine, workload, config, overrides, trials,
                       base_seed, strict_flag)))
    rows = run_campaign(_combo_task, cells, checkpoint, jobs=jobs)
    for (key, _args), row in zip(cells, rows):
        if isinstance(row, TaskFailure):
            raise RuntimeError(f"sweep cell {key} failed: "
                               f"{row.describe()}")
    return rows


def best_row(rows: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """The fastest successful combination."""
    candidates = [r for r in rows
                  if not math.isnan(float(r["mean_seconds"]))]
    if not candidates:
        raise ValueError("every sweep combination failed")
    return min(candidates, key=lambda r: float(r["mean_seconds"]))


def sweep_rows_to_csv(rows: Sequence[Dict[str, object]],
                      out: Optional[TextIO] = None) -> str:
    """Render sweep rows as CSV (stable column order).

    The CSV text is always returned; when ``out`` is given it is also
    written there.  (It used to be returned only for ``StringIO``
    targets — real file handles got ``""`` back, so callers that both
    saved and post-processed the text silently lost it.)
    """
    if not rows:
        return ""
    buf = io.StringIO()
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text

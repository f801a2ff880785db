"""The campaign primitive: journaled, fault-contained fan-out of cells.

Every experiment here is one loop over a grid of independent,
deterministic *cells* (workload x engine x configuration x scale
points): run each cell, then compare.  :func:`run_campaign` is that
loop's harness, shared by the scaling figures, :func:`~repro.harness.
sweep.sweep` and the fig19-fig23 campaigns:

* a cell whose result a :class:`~repro.harness.checkpoint.
  CheckpointStore` already holds is replayed from the journal and never
  reaches the cell function;
* the remaining cells fan out through :func:`~repro.harness.parallel.
  robust_map` (per-cell timeout, crash containment, crashes and
  timeouts retried);
* each result is journaled the moment it arrives, so a kill at any
  point keeps every finished cell;
* results come back in cell order, so a campaign is bit-identical at
  any job count and across any number of kill-and-resume cycles.

A cell is a ``(key, args)`` pair: ``args`` is the argument tuple of the
module-level cell function, and ``key`` is the JSON-ish payload whose
canonical digest names the cell in the journal.  Keys are digested only
when a store is given.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..validation.digest import digest_payload
from .checkpoint import CheckpointStore
from .parallel import robust_map

__all__ = ["run_campaign", "cell_delay", "ENV_CELL_DELAY"]

#: Test hook: wall-clock seconds each campaign cell sleeps before it
#: simulates.  It stretches a campaign's wall time for the
#: kill-and-resume tests without touching any simulated value.
ENV_CELL_DELAY = "REPRO_CELL_DELAY"


def cell_delay() -> None:
    """Sleep ``$REPRO_CELL_DELAY`` seconds; cell functions call it first."""
    delay = float(os.environ.get(ENV_CELL_DELAY, "0") or 0)
    if delay > 0:
        time.sleep(delay)


def run_campaign(fn: Callable[..., Any], cells: Iterable[Tuple[Any, Tuple]],
                 checkpoint: Optional[CheckpointStore] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 0) -> List[Any]:
    """Run ``fn(*args)`` for every ``(key, args)`` cell not yet journaled.

    Returns one entry per cell, in cell order: the cell's payload
    (replayed or fresh), or the :class:`~repro.harness.parallel.
    TaskFailure` of a cell that could not finish.  A failed cell is not
    journaled, so resuming the store retries it.  ``jobs``, ``timeout``
    and ``retries`` are :func:`robust_map`'s; it is called only when
    some cell is pending.  Payloads must be JSON-ish.
    """
    cells = list(cells)
    keys = ([digest_payload(key) for key, _args in cells]
            if checkpoint is not None else [])
    results: List[Any] = [None] * len(cells)
    pending: List[int] = []
    for i in range(len(cells)):
        if checkpoint is not None and keys[i] in checkpoint:
            results[i] = checkpoint.load(keys[i])
        else:
            pending.append(i)
    if not pending:
        return results

    def journal(pos: int, payload: Any) -> None:
        checkpoint.save(keys[pending[pos]], payload)

    fresh, failures = robust_map(
        fn, [cells[i][1] for i in pending], jobs=jobs, timeout=timeout,
        retries=retries,
        on_result=journal if checkpoint is not None else None)
    failed = {f.index: f for f in failures}
    for pos, i in enumerate(pending):
        results[i] = failed.get(pos, fresh[pos])
    return results

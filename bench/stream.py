"""The seeded request stream of the ``serve`` workload.

Every block of ten requests holds, in a seeded order, seven *repeats*,
two *cell* requests and one *cold* request:

* a repeat asks an earlier query again, chosen with Zipf-like
  popularity (the k-th distinct query has weight 1/k), so the service
  answers it from its answer cache;
* a cell request asks a new SLO for a workload and data scale already
  seen, so every candidate it needs is in the cell cache and it runs
  no simulation;
* a cold request asks a workload/data-scale pair never seen before,
  with an SLO no candidate meets, so the planner walks every cluster
  size and simulates every candidate in a fresh worker process.

Exact per-block counts (rather than independent draws) keep the class
mix, and therefore the cost of a run, the same for every seed.  The
seed only chooses orders, workloads, scales and SLOs.

Each request names the earlier request it depends on: a repeat waits
for the first asking of its query, a cell request for the cold request
that filled its cells.  The client sends a request only once that one
has completed, so two identical queries are never in flight together
and the work each request causes is fixed by the stream alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("wordcount", "grep", "terasort", "kmeans")
NODES_CANDIDATES = (2, 4, 8)
#: Data scales 0.0100, 0.0102, ..., 0.1000: 451 per workload, so a
#: stream holds 1804 cold requests before it runs out.
SCALES = tuple(round(0.01 + 0.0002 * i, 4) for i in range(451))
#: Below the shortest simulated duration of any candidate (about 12 s),
#: so a cold query is infeasible at every size and walks them all.
COLD_SLO = (1.0, 10.0)
CELL_SLO = (10.0, 450.0)
BLOCK = ("repeat",) * 7 + ("cell",) * 2 + ("cold",)


@dataclass(frozen=True)
class Request:
    index: int
    kind: str                #: "repeat" | "cell" | "cold"
    body: Dict[str, object]  #: the /v1/plan request body
    first: int               #: index of the first request with this body
    after: Optional[int]     #: request that must complete before this one


def _body(workload: str, scale: float, slo: float) -> Dict[str, object]:
    return {"workload": workload, "slo_seconds": slo,
            "nodes_candidates": list(NODES_CANDIDATES), "data_scale": scale}


def iter_stream(seed: int) -> Iterator[Request]:
    """The endless (until cold pairs run out) request stream for ``seed``."""
    rng = random.Random(seed)
    fresh = {w: rng.sample(SCALES, len(SCALES)) for w in WORKLOADS}
    cold_order: List[str] = []
    # Distinct queries in order of first asking, with their first index.
    queries: List[Tuple[Tuple[str, float, float], int]] = []
    cum_weights: List[float] = []
    seen_keys = set()
    pairs: List[Tuple[str, float, int]] = []  # (workload, scale, cold index)
    index = 0
    block_no = 0
    while True:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        if block_no == 0:
            # The very first request has nothing to repeat.
            kinds.remove("cold")
            kinds.insert(0, "cold")
        block_no += 1
        for kind in kinds:
            after: Optional[int]
            if kind == "repeat":
                (key, first), = rng.choices(queries, cum_weights=cum_weights)
                after = first
            else:
                if kind == "cold":
                    if not cold_order:
                        cold_order = rng.sample(WORKLOADS, len(WORKLOADS))
                    workload = cold_order.pop()
                    if not fresh[workload]:
                        return
                    scale = fresh[workload].pop()
                    slo = round(rng.uniform(*COLD_SLO), 1)
                    pairs.append((workload, scale, index))
                    after = None
                else:
                    workload, scale, after = rng.choice(pairs)
                    slo = round(rng.uniform(*CELL_SLO), 1)
                    while (workload, scale, slo) in seen_keys:
                        slo = round(rng.uniform(*CELL_SLO), 1)
                key = (workload, scale, slo)
                first = index
                seen_keys.add(key)
                queries.append((key, first))
                cum_weights.append((cum_weights[-1] if cum_weights else 0.0)
                                   + 1.0 / len(queries))
            yield Request(index=index, kind=kind, body=_body(*key),
                          first=first, after=after)
            index += 1

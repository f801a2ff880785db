"""Capacity planner: the advisor inverted into the operator's question.

The paper closes on configuration being the hard part ("efficient
executions strongly rely on complex parameter configurations"); Will et
al. (PAPERS.md) phrase the question operators actually ask: *when and
how to allocate for in-memory processing?*  This module answers it with
the pieces the repo already trusts: candidate configurations come from
the paper's presets, :mod:`repro.config.advisor` gates and repairs them
(§IV's rules as executable checks), and the deterministic simulator
prices each survivor.

A :class:`CapacityQuery` asks for the smallest cluster size × engine ×
configuration meeting a duration SLO for a workload.  The search walks
cluster sizes in ascending order; at each size it builds a candidate
set per engine:

* the paper's preset for that workload and size;
* advisor-driven variants — Kryo serialization for Spark (the §IV-D
  hint), plus a *repair* when the advisor flags the preset as fatal
  (double the edge partitions, match parallelism to task slots, raise
  the network-buffer pool — exactly the fixes the paper itself made);
* candidates the advisor still marks **fatal** are reported infeasible
  *without* burning a simulation — the rule checks are the pruning
  layer of the search.

Every candidate is a canonical descriptor; its digest keys the result
cache, and :func:`evaluate_candidate` is a module-level JSON-in/JSON-out
function so it fans out across the process-isolated workers of an
:class:`~repro.serve.pool.AsyncWorkerPool` and its result is exactly
reproducible: same descriptor, same payload, same digest — the property
the serving cache and the chaos harness's "identical answers across
crashes" check both rest on.  The service and ``repro plan`` share
one search, :func:`plan_capacity_async` over :func:`evaluate_on_pool`.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import (Any, Dict, List, Optional, Tuple, get_args,
                    get_type_hints)

from ..config.advisor import advise_flink, advise_spark
from ..config.parameters import ConfigError, FlinkConfig, SparkConfig
from ..config.presets import (CORES_PER_NODE, ExperimentConfig,
                              with_overrides)
from ..engines.common.serialization import Serializer
from ..harness.parallel import resolve_jobs
from ..validation.digest import digest_payload
from ..workloads.catalogue import WORKLOADS, build_config, build_workload
from .cache import DigestCache
from .pool import AsyncWorkerPool, TaskFailed

__all__ = ["PlanError", "CapacityQuery", "candidate_descriptors",
           "candidate_digest", "evaluate_candidate", "evaluate_on_pool",
           "plan_capacity_async", "plan_capacity_sync", "ENGINES"]

ENGINES = ("spark", "flink")
DEFAULT_NODES = (2, 4, 8, 16, 32)

#: Whitelisted override knobs per engine (descriptor -> config field).
SPARK_OVERRIDES = ("default_parallelism", "serializer",
                   "storage_fraction", "shuffle_fraction",
                   "edge_partitions", "executor_memory")
FLINK_OVERRIDES = ("default_parallelism", "network_buffers",
                   "task_slots", "taskmanager_memory")
#: The config field types an override value must have.
_FIELD_TYPES = {"spark": get_type_hints(SparkConfig),
                "flink": get_type_hints(FlinkConfig)}


class PlanError(ValueError):
    """A malformed capacity query (bad workload, SLO, nodes...)."""


@dataclass(frozen=True)
class CapacityQuery:
    """One capacity-planning question.

    ``slo_seconds`` is the makespan target; ``nodes_candidates`` the
    ascending cluster sizes to consider; ``data_scale`` shrinks the
    byte-sized workloads (wordcount/grep/terasort/kmeans) for what-if
    queries at reduced data volume (graph workloads keep their paper
    datasets — their size is the graph, not a byte count).
    """

    workload: str
    slo_seconds: float
    engines: Tuple[str, ...] = ENGINES
    nodes_candidates: Tuple[int, ...] = DEFAULT_NODES
    seed: int = 0
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise PlanError(f"unknown workload {self.workload!r}; "
                            f"expected one of {WORKLOADS}")
        if not (isinstance(self.slo_seconds, (int, float))
                and math.isfinite(self.slo_seconds)
                and self.slo_seconds > 0):
            raise PlanError(
                f"slo_seconds must be a positive finite number, got "
                f"{self.slo_seconds!r}")
        if not self.engines or any(e not in ENGINES
                                   for e in self.engines):
            raise PlanError(f"engines must be a non-empty subset of "
                            f"{ENGINES}, got {self.engines!r}")
        if not self.nodes_candidates or any(
                not isinstance(n, int) or n < 1
                for n in self.nodes_candidates):
            raise PlanError(f"nodes_candidates must be positive "
                            f"integers, got {self.nodes_candidates!r}")
        if not (isinstance(self.data_scale, (int, float))
                and 0 < self.data_scale <= 1.0):
            raise PlanError(f"data_scale must be in (0, 1], got "
                            f"{self.data_scale!r}")

    @classmethod
    def from_payload(cls, payload: Any) -> "CapacityQuery":
        """Build from an untrusted JSON body; :class:`PlanError` on
        anything malformed (the service maps it to a 400)."""
        if not isinstance(payload, dict):
            raise PlanError(f"query must be a JSON object, got "
                            f"{type(payload).__name__}")
        known = {"workload", "slo_seconds", "engines",
                 "nodes_candidates", "seed", "data_scale"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PlanError(f"unknown query field(s) {unknown}; "
                            f"expected a subset of {sorted(known)}")
        if "workload" not in payload or "slo_seconds" not in payload:
            raise PlanError("query needs at least 'workload' and "
                            "'slo_seconds'")
        kwargs: Dict[str, Any] = {
            "workload": payload["workload"],
            "slo_seconds": payload["slo_seconds"],
        }
        if "engines" in payload:
            engines = payload["engines"]
            if not isinstance(engines, (list, tuple)):
                raise PlanError("engines must be a list")
            kwargs["engines"] = tuple(engines)
        if "nodes_candidates" in payload:
            nodes = payload["nodes_candidates"]
            if not isinstance(nodes, (list, tuple)):
                raise PlanError("nodes_candidates must be a list")
            kwargs["nodes_candidates"] = tuple(nodes)
        if "seed" in payload:
            if not isinstance(payload["seed"], int):
                raise PlanError("seed must be an integer")
            kwargs["seed"] = payload["seed"]
        if "data_scale" in payload:
            kwargs["data_scale"] = payload["data_scale"]
        return cls(**kwargs)

    def payload(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "slo_seconds": float(self.slo_seconds),
            "engines": list(self.engines),
            "nodes_candidates": [int(n) for n in
                                 sorted(self.nodes_candidates)],
            "seed": self.seed,
            "data_scale": float(self.data_scale),
        }

    def digest(self) -> str:
        return digest_payload(self.payload())


# ----------------------------------------------------------------------
# configuration overrides
# ----------------------------------------------------------------------
def apply_overrides(config: ExperimentConfig, engine: str,
                    overrides: Dict[str, Any]) -> ExperimentConfig:
    """Apply a descriptor's whitelisted knob overrides to a preset."""
    allowed = SPARK_OVERRIDES if engine == "spark" else FLINK_OVERRIDES
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise PlanError(f"unknown {engine} override(s) {unknown}; "
                        f"allowed: {sorted(allowed)}")
    kw = dict(overrides)
    if "serializer" in kw:
        try:
            kw["serializer"] = Serializer(kw["serializer"])
        except ValueError:
            raise PlanError(
                f"unknown serializer {kw['serializer']!r}") from None
    for key, value in kw.items():
        hint = _FIELD_TYPES[engine][key]
        # An int is a float, and a bool is no number.
        kinds = (int, float) if hint is float else get_args(hint) or (hint,)
        if isinstance(value, bool) or not isinstance(value, kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise PlanError(f"{engine} override {key!r} must be {names}, "
                            f"got {value!r}")
    return with_overrides(config, {f"{engine}.{key}": value
                                   for key, value in kw.items()})


def _advise(engine: str, config: ExperimentConfig, nodes: int, plan):
    if engine == "spark":
        return advise_spark(config.spark, nodes, plan=plan)
    return advise_flink(config.flink, nodes, plan=plan)


def _advice_payload(advice) -> List[Dict[str, str]]:
    return [{"severity": a.severity, "parameter": a.parameter,
             "message": a.message, "paper_ref": a.paper_ref}
            for a in advice]


def _repair_overrides(engine: str, config: ExperimentConfig, nodes: int,
                      advice) -> Dict[str, Any]:
    """The paper's own fixes for the advisor's fatal findings."""
    fixes: Dict[str, Any] = {}
    for a in advice:
        if a.severity != "fatal":
            continue
        if engine == "spark" and "edge.partition" in a.parameter:
            current = (config.spark.edge_partitions
                       or nodes * CORES_PER_NODE)
            # "we doubled the number of edge partitions" (Table VII).
            fixes["edge_partitions"] = current * 2
        elif engine == "flink" and "parallelism" in a.parameter:
            # Match the slot budget (§VI-C's Table III note).
            fixes["default_parallelism"] = nodes * config.flink.task_slots
        elif engine == "flink" and "Buffers" in a.parameter:
            # "the paper had to raise flink.nw.buffers" (§IV-B).
            fixes["network_buffers"] = config.flink.network_buffers * 4
    return fixes


# ----------------------------------------------------------------------
# candidates
# ----------------------------------------------------------------------
def candidate_descriptors(query: CapacityQuery,
                          nodes: int) -> List[Dict[str, Any]]:
    """The deterministic candidate set for one cluster size."""
    descs: List[Dict[str, Any]] = []
    workload = build_workload(query.workload, nodes,
                              data_scale=query.data_scale)
    base_config = build_config(query.workload, nodes)
    for engine in query.engines:
        variants: List[Dict[str, Any]] = [{}]
        if engine == "spark":
            variants.append({"serializer": "kryo"})
        plan = workload.jobs(engine)[0]
        advice = _advise(engine, base_config, nodes, plan)
        repair = _repair_overrides(engine, base_config, nodes, advice)
        if repair:
            variants.append(repair)
        for overrides in variants:
            descs.append({
                "workload": query.workload,
                "engine": engine,
                "nodes": nodes,
                "seed": query.seed,
                "data_scale": float(query.data_scale),
                "overrides": {k: overrides[k] for k in
                              sorted(overrides)},
            })
    return descs


def candidate_digest(desc: Dict[str, Any]) -> str:
    return digest_payload(desc)


def evaluate_candidate(desc: Dict[str, Any]) -> Dict[str, Any]:
    """Price one candidate: advisor gate, then a deterministic run.

    Module-level and JSON-in/JSON-out, so it crosses process
    boundaries and its result digests canonically.  Never raises on a
    *candidate* problem — infeasibility is a result, not an error —
    but does raise on simulator bugs (which :func:`evaluate_on_pool`
    reports as a :func:`worker_failure` cell).
    """
    from ..harness.runner import run_once
    workload = build_workload(desc["workload"], desc["nodes"],
                              data_scale=desc.get("data_scale", 1.0))
    try:
        config = apply_overrides(build_config(desc["workload"],
                                              desc["nodes"]),
                                 desc["engine"], desc["overrides"])
    except (PlanError, ConfigError) as exc:
        return {"ok": False, "feasible": False,
                "reason": f"invalid-config: {exc}", "advice": [],
                "duration": None, "sim_events": 0}
    plan = workload.jobs(desc["engine"])[0]
    advice = _advise(desc["engine"], config, desc["nodes"], plan)
    advice_out = _advice_payload(advice)
    if any(a.severity == "fatal" for a in advice):
        return {"ok": False, "feasible": False,
                "reason": "fatal-advice", "advice": advice_out,
                "duration": None, "sim_events": 0}
    result = run_once(desc["engine"], workload, config, seed=desc["seed"])
    return {"ok": bool(result.success),
            "feasible": bool(result.success),
            "reason": None if result.success else
            f"run-failed: {result.failure}",
            "advice": advice_out,
            "duration": (float(result.duration) if result.success
                         else None),
            "sim_events": int(result.sim_events or 0)}


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
def synthesize_answer(query: CapacityQuery,
                      cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pick the smallest-nodes candidate meeting the SLO (ties: fastest,
    then engine name, then the shorter override set)."""
    meeting = [
        c for c in cells
        if c["result"].get("ok") and c["result"]["duration"] is not None
        and c["result"]["duration"] <= query.slo_seconds]
    if not meeting:
        evaluated = sum(1 for c in cells
                        if c["result"].get("duration") is not None)
        return {"feasible": False, "reason":
                (f"no candidate met the {query.slo_seconds:g}s SLO "
                 f"({evaluated} simulated, {len(cells)} considered up "
                 f"to {max(query.nodes_candidates)} nodes)")}
    best = min(meeting, key=lambda c: (
        c["candidate"]["nodes"], c["result"]["duration"],
        c["candidate"]["engine"],
        sorted(c["candidate"]["overrides"].items())))
    duration = best["result"]["duration"]
    return {
        "feasible": True,
        "engine": best["candidate"]["engine"],
        "nodes": best["candidate"]["nodes"],
        "overrides": best["candidate"]["overrides"],
        "duration": duration,
        "headroom_seconds": query.slo_seconds - duration,
        "candidate_digest": best["digest"],
    }


async def plan_capacity_async(query: CapacityQuery,
                              evaluate_many) -> Dict[str, Any]:
    """Walk cluster sizes ascending; stop at the first size that meets
    the SLO.  ``await evaluate_many(descs)`` returns one result per
    candidate; the walk itself is pure, so equal results give an equal
    answer digest.
    """
    cells: List[Dict[str, Any]] = []
    for nodes in sorted(set(query.nodes_candidates)):
        descs = candidate_descriptors(query, nodes)
        results = await evaluate_many(descs)
        if len(results) != len(descs):
            raise PlanError(
                f"evaluate_many returned {len(results)} results for "
                f"{len(descs)} candidates")
        level = [{"candidate": d, "digest": candidate_digest(d),
                  "result": r}
                 for d, r in zip(descs, results)]
        cells.extend(level)
        if any(c["result"].get("ok")
               and c["result"]["duration"] is not None
               and c["result"]["duration"] <= query.slo_seconds
               for c in level):
            break
    answer = synthesize_answer(query, cells)
    payload = {"query": query.payload(),
               "query_digest": query.digest(),
               "cells": cells, "answer": answer}
    payload["answer_digest"] = digest_payload(
        {"query": payload["query"], "cells": cells, "answer": answer})
    return payload


def worker_failure(exc: BaseException) -> Dict[str, Any]:
    """The result of a candidate whose evaluation raised in its worker:
    a failed cell, not a failed plan."""
    return {"ok": False, "feasible": False,
            "reason": f"worker-failure: {exc}", "advice": [],
            "duration": None, "sim_events": 0}


async def evaluate_on_pool(pool: AsyncWorkerPool,
                           descs: List[Dict[str, Any]],
                           cache: Optional[DigestCache] = None
                           ) -> List[Dict[str, Any]]:
    """Price candidates on ``pool``, through ``cache``'s ``cell:`` tier
    if given.  An in-task exception becomes a :func:`worker_failure`
    cell; a crash or timeout past the retries raises, but only once
    every sibling attempt has settled, so the ledger always balances.
    """
    keys = ["cell:" + candidate_digest(d) for d in descs]
    results: List[Any] = [cache.get(key) if cache is not None else None
                          for key in keys]
    pending = [i for i, r in enumerate(results) if r is None]

    async def one(i: int) -> Dict[str, Any]:
        tag = f"{descs[i]['engine']}@{descs[i]['nodes']}"
        try:
            return await pool.run(evaluate_candidate, (descs[i],), tag=tag)
        except TaskFailed as exc:
            return worker_failure(exc)

    fresh = await asyncio.gather(*(one(i) for i in pending),
                                 return_exceptions=True)
    for i, result in zip(pending, fresh):
        results[i] = result
        if cache is not None and not isinstance(result, BaseException):
            cache.put(keys[i], result)
    for result in fresh:
        if isinstance(result, BaseException):
            raise result
    return results


def plan_capacity_sync(query: CapacityQuery,
                       jobs: Optional[int] = None,
                       timeout: Optional[float] = None,
                       retries: int = 1) -> Dict[str, Any]:
    """One-shot planning (``repro plan``): the service's search on a
    private :class:`~repro.serve.pool.AsyncWorkerPool`.  A crash or
    timeout past ``retries`` raises the pool's ``TaskCrashed`` or
    ``TaskTimedOut``, where the service answers 500.
    """
    async def run() -> Dict[str, Any]:
        pool = AsyncWorkerPool(jobs=resolve_jobs(jobs),
                               task_timeout=timeout, retries=retries)
        try:
            return await plan_capacity_async(
                query, lambda descs: evaluate_on_pool(pool, descs))
        finally:
            await pool.close()

    return asyncio.run(run())

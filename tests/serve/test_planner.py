"""Capacity planner: validation, advisor gating, determinism."""

import asyncio
import os

import pytest

from repro.cli import main
from repro.serve import (CapacityQuery, PlanError, TaskCrashed,
                         candidate_descriptors, candidate_digest,
                         evaluate_candidate, plan_capacity_async,
                         plan_capacity_sync)
from repro.serve.planner import synthesize_answer

QUICK = dict(workload="wordcount", slo_seconds=200.0,
             nodes_candidates=(2, 4), data_scale=0.05)


async def serial(descs):
    return [evaluate_candidate(d) for d in descs]


# ----------------------------------------------------------------------
# query validation
# ----------------------------------------------------------------------
def test_rejects_unknown_workload():
    with pytest.raises(PlanError, match="unknown workload"):
        CapacityQuery(workload="mapreduce", slo_seconds=10.0)


@pytest.mark.parametrize("slo", [0.0, -1.0, float("nan"),
                                 float("inf"), "fast"])
def test_rejects_bad_slo(slo):
    with pytest.raises(PlanError, match="slo_seconds"):
        CapacityQuery(workload="grep", slo_seconds=slo)


def test_rejects_bad_engines_and_nodes():
    with pytest.raises(PlanError, match="engines"):
        CapacityQuery(workload="grep", slo_seconds=9.0,
                      engines=("hadoop",))
    with pytest.raises(PlanError, match="nodes_candidates"):
        CapacityQuery(workload="grep", slo_seconds=9.0,
                      nodes_candidates=(0,))
    with pytest.raises(PlanError, match="data_scale"):
        CapacityQuery(workload="grep", slo_seconds=9.0, data_scale=2.0)


def test_from_payload_rejects_unknown_fields():
    with pytest.raises(PlanError, match="unknown query field"):
        CapacityQuery.from_payload({"workload": "grep",
                                    "slo_seconds": 5.0,
                                    "turbo": True})
    with pytest.raises(PlanError, match="JSON object"):
        CapacityQuery.from_payload([1, 2])
    with pytest.raises(PlanError, match="workload"):
        CapacityQuery.from_payload({"slo_seconds": 5.0})


def test_payload_roundtrip_keeps_the_digest():
    query = CapacityQuery(**QUICK)
    clone = CapacityQuery.from_payload(query.payload())
    assert clone.digest() == query.digest()


# ----------------------------------------------------------------------
# candidates + advisor gate
# ----------------------------------------------------------------------
def test_candidates_are_deterministic_and_digest_stable():
    query = CapacityQuery(**QUICK)
    first = candidate_descriptors(query, 2)
    second = candidate_descriptors(query, 2)
    assert first == second
    assert [candidate_digest(d) for d in first] == \
        [candidate_digest(d) for d in second]
    engines = {d["engine"] for d in first}
    assert engines == {"spark", "flink"}
    # Spark always offers the Kryo variant the paper benchmarks.
    assert any(d["overrides"].get("serializer") == "kryo"
               for d in first)


def test_fatal_advice_gates_without_simulation():
    # The 2-node pagerank preset is fatal for Spark (edge partitions
    # overflow the heap budget) — the planner must say so without
    # burning a simulation, and include the advice that says why.
    query = CapacityQuery(workload="pagerank", slo_seconds=1e6,
                          engines=("spark",), nodes_candidates=(2,))
    descs = candidate_descriptors(query, 2)
    preset = next(d for d in descs if not d["overrides"])
    result = evaluate_candidate(preset)
    assert result["feasible"] is False
    assert result["reason"] == "fatal-advice"
    assert result["sim_events"] == 0, "fatal candidates must not simulate"
    assert any(a["severity"] == "fatal" for a in result["advice"])
    assert all(a["paper_ref"] for a in result["advice"])


def test_fatal_advice_spawns_a_repair_candidate():
    query = CapacityQuery(workload="pagerank", slo_seconds=1e6,
                          engines=("spark",), nodes_candidates=(2,))
    descs = candidate_descriptors(query, 2)
    repairs = [d for d in descs if "edge_partitions" in d["overrides"]]
    assert repairs, "a fatal preset must produce a repaired variant"


def test_invalid_override_is_a_result_not_a_crash():
    result = evaluate_candidate({
        "workload": "grep", "engine": "spark", "nodes": 2, "seed": 0,
        "data_scale": 0.05, "overrides": {"warp_drive": 11}})
    assert result["feasible"] is False
    assert "invalid-config" in result["reason"]


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
def test_search_stops_at_first_feasible_level():
    query = CapacityQuery(**QUICK)
    payload = asyncio.run(plan_capacity_async(query, serial))
    assert payload["answer"]["feasible"]
    assert payload["answer"]["nodes"] == 2
    assert {c["candidate"]["nodes"] for c in payload["cells"]} == {2}, (
        "meeting the SLO at 2 nodes must stop the walk before 4")


def test_infeasible_query_reports_why():
    query = CapacityQuery(workload="wordcount", slo_seconds=0.001,
                          nodes_candidates=(2,), data_scale=0.05)
    payload = asyncio.run(plan_capacity_async(query, serial))
    assert payload["answer"]["feasible"] is False
    assert "no candidate met" in payload["answer"]["reason"]


def test_answer_digest_is_reproducible():
    query = CapacityQuery(**QUICK)
    a = asyncio.run(plan_capacity_async(query, serial))
    b = asyncio.run(plan_capacity_async(query, serial))
    assert a["answer_digest"] == b["answer_digest"]
    assert a["query_digest"] == query.digest()


def test_pool_path_matches_serial():
    query = CapacityQuery(**QUICK)
    a = asyncio.run(plan_capacity_async(query, serial))
    b = plan_capacity_sync(query, jobs=2, timeout=120.0)
    assert b["answer_digest"] == a["answer_digest"], (
        "process-isolated evaluation must be digest-identical to "
        "serial evaluation")


# ----------------------------------------------------------------------
# a worker that dies past its retries fails the plan, as in the service
# ----------------------------------------------------------------------
def _crash_at_two_nodes(desc):
    """Kill the worker for every 2-node candidate (a real crash, not an
    exception); forked workers unpickle this by reference."""
    if desc["nodes"] == 2:
        os._exit(1)
    return evaluate_candidate(desc)


def test_crash_past_retries_fails_the_plan(monkeypatch):
    # Filing the crashed 2-node candidates as infeasible would answer
    # flink x 4 to a query whose answer is flink x 2.
    monkeypatch.setattr("repro.serve.planner.evaluate_candidate",
                        _crash_at_two_nodes)
    with pytest.raises(TaskCrashed, match="gave up after 2 attempt"):
        plan_capacity_sync(CapacityQuery(**QUICK), jobs=2, retries=1)


def test_plan_cli_crash_is_one_error_line_and_exit_1(monkeypatch, capsys):
    monkeypatch.setattr("repro.serve.planner.evaluate_candidate",
                        _crash_at_two_nodes)
    status = main(["plan", "--workload", "wordcount", "--slo", "200",
                   "--nodes-candidates", "2", "4", "--data-scale", "0.05",
                   "--jobs", "2"])
    captured = capsys.readouterr()
    assert status == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "answer:" not in captured.out


def test_synthesize_prefers_small_then_fast():
    query = CapacityQuery(workload="grep", slo_seconds=100.0)

    def cell(nodes, engine, duration, ok=True):
        candidate = {"workload": "grep", "engine": engine,
                     "nodes": nodes, "seed": 0, "data_scale": 1.0,
                     "overrides": {}}
        return {"candidate": candidate,
                "digest": candidate_digest(candidate),
                "result": {"ok": ok, "feasible": ok,
                           "duration": duration, "reason": None,
                           "advice": [], "sim_events": 1}}

    answer = synthesize_answer(query, [
        cell(4, "spark", 10.0),       # fast but bigger cluster
        cell(2, "spark", 90.0),
        cell(2, "flink", 40.0),       # smallest and fastest: winner
        cell(2, "flink", None, ok=False),
    ])
    assert (answer["nodes"], answer["engine"]) == (2, "flink")
    assert answer["headroom_seconds"] == pytest.approx(60.0)

"""Tests for the experiment lifecycle (deploy -> import -> run -> stats)."""

import math

import pytest

from repro.config.presets import wordcount_grep_preset
from repro.harness.runner import (TrialStats, run_correlated, run_once,
                                  run_trials)
from repro.workloads import Grep, WordCount

GiB = 2**30


def test_run_once_success():
    result = run_once("flink", WordCount(2 * 24 * GiB),
                      wordcount_grep_preset(2), seed=1)
    assert result.success
    assert result.workload == "wordcount"
    assert result.duration > 0


def test_run_once_unknown_engine():
    with pytest.raises(ValueError):
        run_once("hadoop", WordCount(GiB), wordcount_grep_preset(2))


def test_run_once_fresh_deployment_each_time():
    """Fresh cluster per run = the paper's cleared OS caches."""
    a = run_once("spark", Grep(2 * 24 * GiB), wordcount_grep_preset(2),
                 seed=1)
    b = run_once("spark", Grep(2 * 24 * GiB), wordcount_grep_preset(2),
                 seed=1)
    assert a.duration == pytest.approx(b.duration, rel=1e-12), \
        "same seed + fresh deployment must be deterministic"


def test_run_trials_statistics():
    stats = run_trials("flink", WordCount(2 * 24 * GiB),
                       wordcount_grep_preset(2), trials=3, base_seed=7)
    assert stats.trials == 3
    assert stats.success
    assert stats.std >= 0
    assert stats.mean > 0
    assert len(set(stats.durations)) > 1, "seeds must vary across trials"


def test_trialstats_failure_accounting():
    stats = TrialStats("flink", "wc", 4)
    stats.failures.append("OOM")
    assert not stats.success
    assert math.isnan(stats.mean)
    assert "FAILED" in stats.describe()


def test_run_correlated_returns_frames():
    run = run_correlated("spark", Grep(2 * 24 * GiB),
                         wordcount_grep_preset(2), seed=2)
    assert run.result.success
    assert run.frames
    assert run.spans


def test_multi_job_workloads_merge():
    """Flink Page Rank runs two jobs; the result must contain both."""
    from repro.config.presets import small_graph_preset
    from repro.workloads import PageRank
    from repro.workloads.datagen.graphs import SMALL_GRAPH
    result = run_once("flink",
                      PageRank(SMALL_GRAPH, iterations=3,
                               edge_partitions=8 * 16),
                      small_graph_preset(8), seed=1)
    assert result.success
    names = [j.name for j in result.jobs]
    assert "count-vertices" in names and "pagerank" in names


def test_merge_keeps_stage_windows_of_later_jobs():
    """Merging multi-plan results must keep every job's stage windows
    (the failure-recovery analysis charges lineage from them); it used
    to silently drop all windows after the first plan's."""
    from repro.engines.common.result import EngineRunResult
    from repro.harness.runner import _merge
    first = EngineRunResult(engine="spark", workload="x", nodes=2,
                            success=True, start=0.0, end=10.0,
                            stage_windows=[(0.0, 10.0)],
                            metrics={"shuffled": 1.0})
    second = EngineRunResult(engine="spark", workload="x", nodes=2,
                             success=True, start=10.0, end=25.0,
                             stage_windows=[(10.0, 20.0), (20.0, 25.0)],
                             metrics={"shuffled": 2.0})
    failed = EngineRunResult(engine="spark", workload="x", nodes=2,
                             success=False, start=25.0, end=30.0,
                             failure="out of memory", failure_kind="fatal")
    merged = _merge(None, first, "x")
    merged = _merge(merged, second, "x")
    assert merged.stage_windows == [(0.0, 10.0), (10.0, 20.0), (20.0, 25.0)]
    assert merged.end == 25.0
    assert merged.metrics["shuffled"] == pytest.approx(3.0)
    assert merged.success and merged.failure_kind is None
    merged = _merge(merged, failed, "x")
    assert not merged.success
    assert merged.failure == "out of memory"
    assert merged.failure_kind == "fatal"


def test_failed_later_job_keeps_failure_kind():
    """Table VII: Flink's Page Rank counts vertices, then its iterations
    job dies of the CoGroup out-of-memory error.  The merged result used
    to carry that failure with ``failure_kind=None``."""
    from repro.config.presets import large_graph_preset
    from repro.workloads import PageRank
    from repro.workloads.datagen.graphs import LARGE_GRAPH
    cfg = large_graph_preset(27)
    result = run_once("flink",
                      PageRank(LARGE_GRAPH, iterations=5,
                               edge_partitions=cfg.spark.edge_partitions),
                      cfg)
    assert not result.success
    assert [j.name for j in result.jobs] == ["count-vertices"]
    assert "CoGroup" in result.failure
    assert result.failure_kind == "fatal"

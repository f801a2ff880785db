"""Tests for the blocked-time / what-if analysis."""

import pytest

from repro.cluster.node import GRID5000_PARAVANCE
from repro.cluster.topology import Cluster
from repro.config.presets import (large_graph_preset, terasort_preset,
                                  wordcount_grep_preset)
from repro.core.whatif import (RESOURCES, blocked_time_report, what_if)
from repro.harness.runner import RunFailed
from repro.workloads import Grep, PageRank, TeraSort, WordCount
from repro.workloads.datagen.graphs import LARGE_GRAPH

GiB = 2**30


def test_unknown_resource_rejected(monkeypatch):
    """The resource is checked before any simulation: it used to be
    rejected only after a full baseline run."""
    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built")
    monkeypatch.setattr(Cluster, "__init__", no_cluster)
    with pytest.raises(ValueError, match="gpu"):
        what_if("flink", Grep(2 * 24 * GiB), wordcount_grep_preset(2),
                "gpu")


def test_failed_run_raises_run_failed():
    """Table VII's Flink CoGroup out-of-memory at 27 nodes."""
    cfg = large_graph_preset(27)
    wl = PageRank(LARGE_GRAPH, iterations=5,
                  edge_partitions=cfg.spark.edge_partitions)
    with pytest.raises(RunFailed, match="what-if run failed: .*CoGroup"):
        what_if("flink", wl, cfg, "disk")


def test_idealised_run_never_slower():
    cfg = wordcount_grep_preset(2)
    wl = Grep(2 * 24 * GiB)
    for resource in RESOURCES:
        r = what_if("spark", wl, cfg, resource, seed=2)
        assert r.speedup >= 0.95  # jitter tolerance
        assert 0.0 <= r.blocked_fraction < 1.0


def test_grep_is_compute_limited_not_network():
    """Grep barely touches the network: idealising it buys nothing,
    while an infinitely fast disk helps a little (the scan)."""
    cfg = wordcount_grep_preset(2)
    wl = Grep(2 * 24 * GiB)
    disk = what_if("spark", wl, cfg, "disk", seed=2)
    net = what_if("spark", wl, cfg, "network", seed=2)
    assert disk.speedup >= net.speedup
    assert net.speedup < 1.1


def test_terasort_blocked_on_disk():
    """The paper's Tera Sort is I/O-bound: removing the disk is the
    biggest win, for both engines."""
    cfg = terasort_preset(17)
    wl = TeraSort(17 * 8 * GiB, num_partitions=134)
    for engine in ("flink", "spark"):
        report = blocked_time_report(engine, wl, cfg, seed=2)
        assert report["disk"].speedup > report["network"].speedup
        assert report["disk"].speedup > 1.2


def test_describe_renders():
    cfg = wordcount_grep_preset(2)
    r = what_if("flink", WordCount(2 * 24 * GiB), cfg, "disk", seed=2)
    text = r.describe()
    assert "flink/wordcount" in text and "disk" in text


def test_report_simulates_the_baseline_once(monkeypatch):
    """One baseline plus one idealised run per resource, and the same
    numbers as separate per-resource what-ifs, field for field."""
    from repro.harness import runner
    deployed = []
    deploy = runner.deploy

    def counting(*args, **kwargs):
        deployed.append(kwargs.get("spec"))
        return deploy(*args, **kwargs)

    cfg = wordcount_grep_preset(2)
    wl = WordCount(2 * 24 * GiB)
    monkeypatch.setattr(runner, "deploy", counting)
    report = blocked_time_report("spark", wl, cfg, seed=2)
    assert len(deployed) == 1 + len(RESOURCES)
    assert deployed.count(GRID5000_PARAVANCE) == 1  # the one baseline
    monkeypatch.setattr(runner, "deploy", deploy)
    for resource in RESOURCES:
        assert report[resource] == what_if("spark", wl, cfg, resource,
                                           seed=2)

"""Resource traces are recorded only for runs whose caller can read them.

An entry point that builds a cluster and drops it (durations only)
records no capacity trace point; one that audits, span-traces or
returns its cluster records every rate change, and the recorded traces
pass the cluster audit.  Every cluster an entry point builds is
captured by wrapping ``Cluster.__init__``.
"""

import pytest

from repro.cluster.topology import Cluster
from repro.core.whatif import what_if
from repro.faults import DiskSlowdown, FaultPlan, run_with_faults
from repro.harness.runner import run_once, run_trials
from repro.observability import SpanTracer
from repro.streaming import PoissonArrivals, run_streaming
from repro.validation import InvariantChecker
from repro.workloads.catalogue import build_config, build_workload

NODES = 2
WORKLOAD = build_workload("wordcount", NODES, data_scale=0.05)
CONFIG = build_config("wordcount", NODES)
SLOWDOWN = FaultPlan(events=(
    DiskSlowdown(at=0.3, node=1, factor=4.0, duration=0.4),),
    relative=True)


@pytest.fixture
def clusters(monkeypatch):
    """Every cluster built while the test runs, in build order."""
    built = []
    init = Cluster.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Cluster, "__init__", capture)
    return built


def trace_points(cluster):
    return sum(len(cap.throughput) + len(cap.utilisation)
               for node in cluster.nodes
               for cap in (node.cpu, node.disk, node.nic_in, node.nic_out))


def assert_recorded_and_audited(cluster):
    assert cluster.fluid.trace_detail == "full"
    assert trace_points(cluster) > 0
    checker = InvariantChecker()
    checker.audit_cluster(cluster)
    checker.require_clean("recorded traces")


# ----------------------------------------------------------------------
# durations only: nothing is recorded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", [
    "run_once", "run_trials", "run_with_faults", "what_if",
    "run_streaming"])
def test_duration_only_runs_record_no_trace_point(clusters, entry):
    if entry == "run_once":
        assert run_once("spark", WORKLOAD, CONFIG, strict=False).success
    elif entry == "run_trials":
        assert run_trials("flink", WORKLOAD, CONFIG, trials=2,
                          strict=False).success
    elif entry == "run_with_faults":
        assert run_with_faults("spark", WORKLOAD, CONFIG, SLOWDOWN,
                               strict=False).success
    elif entry == "what_if":
        assert what_if("spark", WORKLOAD, CONFIG, "disk").speedup > 0
    else:
        result = run_streaming("flink", PoissonArrivals(1000.0),
                               duration=8.0, nodes=NODES, strict=False)
        assert result.processed_records == result.total_records
    assert clusters
    for cluster in clusters:
        assert trace_points(cluster) == 0
        assert cluster.fluid.trace_detail == "off"


# ----------------------------------------------------------------------
# a caller that can read the cluster gets full traces
# ----------------------------------------------------------------------
def test_strict_run_once_records(clusters):
    assert run_once("spark", WORKLOAD, CONFIG, strict=True).success
    cluster, = clusters
    assert_recorded_and_audited(cluster)


def test_traced_run_once_records(clusters):
    tracer = SpanTracer()
    assert run_once("flink", WORKLOAD, CONFIG, strict=False,
                    tracer=tracer).success
    cluster, = clusters
    assert tracer.spans
    assert_recorded_and_audited(cluster)


def test_kept_deployment_records(clusters):
    result = run_once("spark", WORKLOAD, CONFIG, strict=False,
                      keep_deployment=True)
    deployment = result.metrics.pop("_deployment")
    assert clusters == [deployment.cluster]
    assert_recorded_and_audited(deployment.cluster)


def test_strict_run_with_faults_records_both_runs(clusters):
    assert run_with_faults("spark", WORKLOAD, CONFIG, SLOWDOWN,
                           strict=True).success
    baseline, faulted = clusters
    assert_recorded_and_audited(baseline)
    assert_recorded_and_audited(faulted)


def test_strict_run_streaming_records(clusters):
    run_streaming("spark", PoissonArrivals(1000.0), duration=8.0,
                  nodes=NODES, strict=True)
    cluster, = clusters
    assert_recorded_and_audited(cluster)

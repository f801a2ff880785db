"""Tests for metric frames and the cluster trace collector."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster
from repro.monitoring import (ClusterMonitor, Metric, MetricFrame,
                              RESOURCE_PANELS, anti_correlation)

MiB = 2**20
GiB = 2**30


# ----------------------------------------------------------------------
# MetricFrame
# ----------------------------------------------------------------------
def test_frame_alignment_validation():
    with pytest.raises(ValueError):
        MetricFrame(Metric.CPU_PERCENT, [0, 1], [1.0], [1.0])


def test_frame_statistics():
    f = MetricFrame(Metric.CPU_PERCENT, [0, 1, 2, 3],
                    [10.0, 20.0, 30.0, 40.0], [40.0, 80.0, 120.0, 160.0],
                    num_nodes=4)
    assert f.peak() == 40.0
    assert f.average() == 25.0
    assert f.average_between(1, 3) == 25.0
    assert f.values_between(0, 2) == [10.0, 20.0]


def test_frame_is_bound():
    f = MetricFrame(Metric.CPU_PERCENT, [0, 1, 2], [90.0, 95.0, 85.0],
                    [0, 0, 0])
    assert f.is_bound(threshold=60)
    assert not f.is_bound(threshold=99)


def test_anti_correlation_detects_alternation():
    cpu = [100, 0, 100, 0, 100, 0]
    disk = [0, 100, 0, 100, 0, 100]
    assert anti_correlation(cpu, disk) == pytest.approx(-1.0)
    assert anti_correlation(cpu, cpu) == pytest.approx(1.0)


def test_anti_correlation_degenerate():
    assert anti_correlation([1.0, 1.0], [2.0, 3.0]) == 0.0
    assert anti_correlation([], []) == 0.0
    with pytest.raises(ValueError):
        anti_correlation([1.0], [1.0, 2.0])


@given(st.lists(st.floats(0, 100), min_size=2, max_size=30))
def test_property_anti_correlation_bounded(xs):
    ys = [100 - x for x in xs]
    c = anti_correlation(xs, ys)
    assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# ClusterMonitor on real simulated activity
# ----------------------------------------------------------------------
def run_activity():
    cluster = Cluster(2)

    def busy():
        # 8 cores of CPU for 10 s on node 0, disk flow on node 1.
        done_cpu = cluster.fluid.transfer(80.0, [cluster.node(0).cpu],
                                          rate_cap=8.0)
        done_disk = cluster.fluid.transfer(
            10 * 150 * MiB, [cluster.node(1).disk])
        yield cluster.sim.all_of([done_cpu, done_disk])

    cluster.run_process(busy())
    return cluster


def test_monitor_cpu_frame():
    cluster = run_activity()
    frame = ClusterMonitor(cluster).frame(Metric.CPU_PERCENT, 0, 10, 1.0)
    # Node 0 at 50% (8/16 cores), node 1 idle -> mean 25%.
    assert frame.mean[0] == pytest.approx(25.0, rel=1e-6)
    assert frame.num_nodes == 2


def test_monitor_disk_frames():
    cluster = run_activity()
    mon = ClusterMonitor(cluster)
    util = mon.frame(Metric.DISK_UTIL_PERCENT, 0, 10, 1.0)
    io = mon.frame(Metric.DISK_IO_MIBS, 0, 10, 1.0)
    assert util.mean[0] == pytest.approx(50.0, rel=1e-6)  # one of two busy
    assert io.total[0] == pytest.approx(150.0, rel=1e-6)


def test_monitor_network_combines_directions():
    cluster = Cluster(2)

    def xfer():
        yield cluster.fluid.transfer(
            10 * 1192 * MiB, [cluster.node(0).nic_out, cluster.node(1).nic_in])

    cluster.run_process(xfer())
    frame = ClusterMonitor(cluster).frame(Metric.NETWORK_MIBS, 0,
                                          cluster.now, 1.0)
    # Each node moves ~1192 MiB/s in one direction -> mean ~= NIC rate.
    assert frame.mean[0] == pytest.approx(10e9 / 8 / MiB, rel=1e-3)


def test_monitor_snapshot_has_all_panels():
    cluster = run_activity()
    snap = ClusterMonitor(cluster).snapshot(0, 10, 1.0)
    assert set(snap) == set(RESOURCE_PANELS)
    assert len(RESOURCE_PANELS) == 5
    # The capacity panel only appears for fault-injected deployments.
    assert Metric.CAPACITY_PERCENT not in snap


def test_monitor_snapshot_adds_capacity_panel_under_faults():
    from repro.faults import FaultState
    cluster = run_activity()
    cluster.fault_state = FaultState(cluster)
    snap = ClusterMonitor(cluster).snapshot(0, 10, 1.0)
    assert set(snap) == set(RESOURCE_PANELS) | {Metric.CAPACITY_PERCENT}
    frame = snap[Metric.CAPACITY_PERCENT]
    # No fault ever fired: every node is at 100% capacity throughout.
    assert all(v == pytest.approx(100.0) for v in frame.mean)


def test_monitor_empty_window_rejected():
    cluster = run_activity()
    with pytest.raises(ValueError):
        ClusterMonitor(cluster).frame(Metric.CPU_PERCENT, 5, 5)


def test_memory_percent_panel():
    cluster = Cluster(1)
    node = cluster.node(0)

    def reserve():
        node.memory.reserve(64 * GiB)
        yield cluster.sim.timeout(10.0)
        node.memory.release(64 * GiB)

    cluster.run_process(reserve())
    frame = ClusterMonitor(cluster).frame(Metric.MEMORY_PERCENT, 0, 10, 1.0)
    assert frame.mean[0] == pytest.approx(50.0, rel=1e-6)


def test_frame_percentiles_and_summary():
    f = MetricFrame(Metric.CPU_PERCENT, list(range(10)),
                    [float(i * 10) for i in range(10)],
                    [0.0] * 10)
    assert f.percentile(50) == pytest.approx(45.0)
    s = f.summary()
    assert s["peak"] == 90.0
    assert s["mean"] == pytest.approx(45.0)
    assert s["p50"] <= s["p95"] <= s["peak"]


def test_empty_frame_percentile_nan():
    f = MetricFrame(Metric.CPU_PERCENT, [], [], [])
    assert math.isnan(f.percentile(50))

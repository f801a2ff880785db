"""Tests for the straggler extension (Node.slow_down)."""

import pytest

from repro.cluster import Cluster

MiB = 2**20


def test_slow_down_validation():
    cluster = Cluster(2)
    with pytest.raises(ValueError):
        cluster.node(0).slow_down(0.5)


def test_slow_down_halves_cpu_and_disk():
    cluster = Cluster(2)
    node = cluster.node(0)
    cpu_before, disk_before = node.cpu.bandwidth, node.disk.bandwidth
    node.slow_down(2.0)
    assert node.cpu.bandwidth == cpu_before / 2
    assert node.disk.bandwidth == disk_before / 2
    # Other nodes untouched.
    assert cluster.node(1).cpu.bandwidth == cpu_before


def test_straggler_slows_its_own_flows():
    cluster = Cluster(2)
    cluster.node(0).slow_down(2.0)
    done = {}

    def read(idx):
        yield cluster.fluid.transfer(150 * MiB, [cluster.node(idx).disk])
        done[idx] = cluster.now

    cluster.sim.process(read(0))
    cluster.sim.process(read(1))
    cluster.run()
    assert done[1] == pytest.approx(1.0, rel=1e-6)
    assert done[0] == pytest.approx(2.0, rel=1e-6)


def test_speed_weighted_resources_track_straggler():
    from repro.engines.common.execution import speed_weighted_resources
    cluster = Cluster(4)
    cluster.node(3).slow_down(2.0)
    shares = speed_weighted_resources(cluster, cpu_core_seconds=70.0,
                                      cpu_slots=16)
    work = [r.cpu_core_seconds for r in shares]
    assert work[0] == work[1] == work[2] == pytest.approx(20.0)
    assert work[3] == pytest.approx(10.0)
    assert sum(work) == pytest.approx(70.0)


def test_speed_weighted_equals_uniform_on_homogeneous():
    from repro.engines.common.execution import (speed_weighted_resources,
                                                uniform_resources)
    cluster = Cluster(3)
    weighted = speed_weighted_resources(cluster, disk_read_bytes=90.0,
                                        cpu_slots=8)
    uniform = uniform_resources(3, disk_read_bytes=90.0, cpu_slots=8)
    for w, u in zip(weighted, uniform):
        assert w.disk_read_bytes == pytest.approx(u.disk_read_bytes)

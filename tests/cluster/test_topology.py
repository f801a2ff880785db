"""Tests for cluster assembly and bulk flows over node capacities."""

import pytest

from repro.cluster import Cluster, HardwareSpec

MiB = 2**20
GiB = 2**30


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(0)


def test_cluster_properties():
    cluster = Cluster(4)
    assert cluster.num_nodes == 4
    assert cluster.total_cores == 64
    assert cluster.now == 0.0
    assert cluster.node(3).name == "node-003"


def test_custom_hardware_spec():
    spec = HardwareSpec(cores=8, memory_bytes=64 * GiB,
                        disk_read_bw=500 * MiB, disk_write_bw=400 * MiB,
                        nic_bw=25e9 / 8)
    cluster = Cluster(2, spec=spec)
    assert cluster.total_cores == 16
    assert cluster.node(0).disk.bandwidth == 400 * MiB  # min(r, w)
    assert cluster.node(0).memory.capacity == 64 * GiB


def test_hardware_spec_validation():
    with pytest.raises(ValueError):
        HardwareSpec(cores=0)
    with pytest.raises(ValueError):
        HardwareSpec(nic_bw=-1)


def test_transfer_crosses_both_nics():
    cluster = Cluster(2)
    a, b = cluster.nodes

    def proc():
        yield cluster.fluid.transfer(1192 * MiB, [a.nic_out, b.nic_in])

    cluster.run_process(proc())
    # 10 Gbps = 1250e6 B/s: ~1 second for ~1.19 GiB.
    assert cluster.now == pytest.approx(1192 * MiB / (10e9 / 8), rel=1e-6)
    moved_out = a.nic_out.throughput.integral(0, cluster.now)
    moved_in = b.nic_in.throughput.integral(0, cluster.now)
    assert moved_out == pytest.approx(1192 * MiB, rel=1e-6)
    assert moved_in == pytest.approx(1192 * MiB, rel=1e-6)


def test_remote_read_flow_is_disk_bound():
    cluster = Cluster(2)
    reader, owner = cluster.nodes

    def proc():
        yield cluster.fluid.transfer(
            150 * MiB, [owner.disk, owner.nic_out, reader.nic_in])

    cluster.run_process(proc())
    # Disk at 150 MiB/s is far below the NIC: 1 second.
    assert cluster.now == pytest.approx(1.0, rel=1e-6)
    assert owner.disk.throughput.integral(0, 2) == pytest.approx(
        150 * MiB, rel=1e-6)


def test_run_process_propagates_failures():
    cluster = Cluster(1)

    def bad():
        yield cluster.sim.timeout(1.0)
        raise RuntimeError("engine crash")

    with pytest.raises(RuntimeError, match="engine crash"):
        cluster.run_process(bad())


def test_run_process_detects_stall():
    cluster = Cluster(1)
    never = cluster.sim.event()  # nobody will ever trigger this

    def stuck():
        yield never

    with pytest.raises(RuntimeError, match="stalled"):
        cluster.run_process(stuck())


def test_seeded_rng_is_per_cluster():
    a = Cluster(1, seed=1).rng.random()
    b = Cluster(1, seed=1).rng.random()
    c = Cluster(1, seed=2).rng.random()
    assert a == b != c

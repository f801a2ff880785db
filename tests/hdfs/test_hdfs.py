"""Tests for the simulated HDFS: its parameters, its file records and
its replicated write pipeline."""

import pytest

from repro.cluster import Cluster
from repro.hdfs import HDFS

MiB = 2**20
GiB = 2**30


def make_hdfs(nodes=4, **kw):
    cluster = Cluster(nodes)
    return cluster, HDFS(cluster, **kw)


def write(cluster, hdfs, writer, nbytes, replication=None):
    """Run one replicated write to completion."""
    def proc():
        yield cluster.fluid.transfer_many(hdfs.pipeline_requests(
            writer, nbytes, replication=replication))

    cluster.run_process(proc())


# ----------------------------------------------------------------------
# parameters and file records
# ----------------------------------------------------------------------
def test_parameter_validation():
    cluster = Cluster(4)
    for block_size in (0, -1.0):
        with pytest.raises(ValueError, match="block_size"):
            HDFS(cluster, block_size=block_size)
    with pytest.raises(ValueError, match="replication"):
        HDFS(cluster, replication=0)
    hdfs = HDFS(cluster, block_size=1024 * MiB)
    assert hdfs.block_size == 1024.0 * MiB
    assert hdfs.replication == 3


def test_replication_capped_at_cluster_size():
    cluster, hdfs = make_hdfs(2, replication=3)
    assert hdfs.replication == 2
    requests = hdfs.pipeline_requests(0, 128 * MiB)
    # The local write, then one replica: its NIC pair and its disk.
    assert len(requests) == 3


@pytest.mark.parametrize("nodes,replication", [(1, 3), (2, 3), (3, 3),
                                               (5, 8), (6, 1)])
def test_replication_cap_holds(nodes, replication):
    cluster, hdfs = make_hdfs(nodes, replication=replication)
    width = min(nodes, replication)
    assert hdfs.replication == width
    requests = hdfs.pipeline_requests(0, 40 * MiB)
    disks = [caps[0] for _size, caps, _cap in requests if len(caps) == 1]
    assert len(disks) == width
    assert len(set(disks)) == width  # every replica on a distinct node


def test_duplicate_file_rejected():
    _cluster, hdfs = make_hdfs(4)
    hdfs.create_file("x", 1 * MiB)
    with pytest.raises(ValueError, match="file exists"):
        hdfs.create_file("x", 1 * MiB)
    with pytest.raises(ValueError, match="file size"):
        hdfs.create_file("y", -1.0)
    assert hdfs.files == {"x": 1.0 * MiB}


# ----------------------------------------------------------------------
# the write pipeline on the cluster
# ----------------------------------------------------------------------
def test_write_pipeline_replicates():
    cluster, hdfs = make_hdfs(4, replication=3)
    write(cluster, hdfs, 0, 150 * MiB)
    # The local write on node 0, replicas on nodes 1 and 2.
    for target in (0, 1, 2):
        wrote = cluster.node(target).disk.throughput.integral(0, cluster.now)
        assert wrote == pytest.approx(150 * MiB, rel=1e-6)
    assert cluster.node(3).disk.throughput.integral(0, cluster.now) == 0.0
    sent = cluster.node(0).nic_out.throughput.integral(0, cluster.now)
    assert sent == pytest.approx(2 * 150 * MiB, rel=1e-6)


def test_write_single_replica_no_network():
    cluster, hdfs = make_hdfs(4, replication=1)
    write(cluster, hdfs, 2, 75 * MiB)
    assert cluster.node(2).nic_out.throughput.last_value == 0.0
    assert cluster.now == pytest.approx(0.5, rel=1e-6)


def test_replication_override_and_ring_wrap():
    """A per-write ``replication`` overrides the default (TeraSort writes
    its output at replication 1), is capped at the cluster size like
    the default, and places replicas on the next nodes in ring order."""
    cluster, hdfs = make_hdfs(3, replication=3)
    nodes = cluster.nodes
    assert hdfs.pipeline_requests(1, 8.0, replication=1) == [
        (8.0, (nodes[1].disk,), None)]
    assert hdfs.pipeline_requests(1, 8.0, replication=0) == [
        (8.0, (nodes[1].disk,), None)]
    ring = [(8.0, (nodes[2].disk,), 5.0),
            (8.0, (nodes[2].nic_out, nodes[0].nic_in), 5.0),
            (8.0, (nodes[0].disk,), 5.0),
            (8.0, (nodes[2].nic_out, nodes[1].nic_in), 5.0),
            (8.0, (nodes[1].disk,), 5.0)]
    assert hdfs.pipeline_requests(2, 8.0, rate_cap=5.0) == ring
    assert hdfs.pipeline_requests(2, 8.0, rate_cap=5.0,
                                  replication=7) == ring
    write(cluster, hdfs, 0, 75 * MiB, replication=1)
    assert cluster.now == pytest.approx(0.5, rel=1e-6)
    for other in (1, 2):
        assert cluster.node(other).disk.throughput.integral(
            0, cluster.now) == 0.0

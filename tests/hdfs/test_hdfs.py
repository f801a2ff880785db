"""Tests for the simulated HDFS substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.hdfs import (HDFS, FileExistsInNamespaceError,
                        FileNotFoundInNamespaceError, NameNode)
from repro.hdfs.blocks import Block

MiB = 2**20
GiB = 2**30


# ----------------------------------------------------------------------
# Block metadata
# ----------------------------------------------------------------------
def test_block_validation():
    with pytest.raises(ValueError):
        Block(0, -1.0, (0,))
    with pytest.raises(ValueError):
        Block(0, 1.0, ())
    with pytest.raises(ValueError):
        Block(0, 1.0, (1, 1))


def test_block_locality():
    b = Block(0, 1.0, (2, 5))
    assert b.is_local_to(2) and b.is_local_to(5)
    assert not b.is_local_to(0)


# ----------------------------------------------------------------------
# NameNode placement
# ----------------------------------------------------------------------
def test_create_file_block_count():
    nn = NameNode(num_nodes=4, block_size=256 * MiB)
    f = nn.create_file("data", 1.0 * GiB)
    assert f.num_blocks == 4
    assert sum(b.size for b in f.blocks) == pytest.approx(1.0 * GiB)


def test_create_file_with_tail_block():
    nn = NameNode(num_nodes=4, block_size=256 * MiB)
    f = nn.create_file("data", 300 * MiB)
    assert f.num_blocks == 2
    assert f.blocks[-1].size == pytest.approx(44 * MiB)


def test_replication_capped_at_cluster_size():
    nn = NameNode(num_nodes=2, block_size=64 * MiB, replication=3)
    f = nn.create_file("data", 128 * MiB)
    for b in f.blocks:
        assert len(b.replicas) == 2


def test_duplicate_file_rejected():
    nn = NameNode(num_nodes=4)
    nn.create_file("x", 1 * MiB)
    with pytest.raises(FileExistsInNamespaceError):
        nn.create_file("x", 1 * MiB)


def test_lookup_missing_file():
    nn = NameNode(num_nodes=4)
    with pytest.raises(FileNotFoundInNamespaceError):
        nn.lookup("nope")


def test_placement_balances_primaries():
    nn = NameNode(num_nodes=8, block_size=1 * MiB, replication=1)
    f = nn.create_file("data", 64 * MiB)
    primaries = [b.replicas[0] for b in f.blocks]
    for node in range(8):
        assert primaries.count(node) == 8


def test_locality_map_covers_all_replicas():
    nn = NameNode(num_nodes=6, block_size=32 * MiB, replication=3)
    f = nn.create_file("data", 1 * GiB)
    lmap = nn.locality_map("data")
    counted = sum(len(blocks) for blocks in lmap.values())
    assert counted == f.num_blocks * 3


def test_assign_blocks_balanced_and_mostly_local():
    nn = NameNode(num_nodes=10, block_size=64 * MiB, replication=3, seed=7)
    nn.create_file("data", 100 * 64 * MiB)
    assignment = nn.assign_blocks_to_readers("data")
    loads = [0] * 10
    for reader, _block, _local in assignment:
        loads[reader] += 1
    assert max(loads) - min(loads) <= 1
    local_fraction = sum(1 for _r, _b, loc in assignment if loc) / len(assignment)
    assert local_fraction > 0.9


@settings(deadline=None, max_examples=25)
@given(nodes=st.integers(1, 20), gib=st.floats(0.1, 64.0))
def test_property_block_sizes_sum_to_file_size(nodes, gib):
    nn = NameNode(num_nodes=nodes, block_size=256 * MiB)
    f = nn.create_file("data", gib * GiB)
    assert sum(b.size for b in f.blocks) == pytest.approx(gib * GiB)
    for b in f.blocks:
        assert 0 < b.size <= 256 * MiB


# ----------------------------------------------------------------------
# HDFS data paths on the cluster
# ----------------------------------------------------------------------
def make_hdfs(nodes=4, **kw):
    cluster = Cluster(nodes)
    return cluster, HDFS(cluster, **kw)


def test_local_read_uses_only_disk():
    cluster, hdfs = make_hdfs(4, block_size=150 * MiB, replication=1)
    f = hdfs.create_file("data", 150 * MiB)
    block = f.blocks[0]
    reader = block.replicas[0]
    times = []

    def proc():
        yield hdfs.read_block(reader, block)
        times.append(cluster.now)

    cluster.run_process(proc())
    # 150 MiB at 150 MiB/s disk = 1 second; NIC untouched.
    assert times[0] == pytest.approx(1.0, rel=1e-6)
    assert cluster.node(reader).nic_in.throughput.last_value == 0.0
    assert hdfs.local_reads == 1 and hdfs.remote_reads == 0


def test_remote_read_crosses_network():
    cluster, hdfs = make_hdfs(4, block_size=150 * MiB, replication=1)
    f = hdfs.create_file("data", 150 * MiB)
    block = f.blocks[0]
    owner = block.replicas[0]
    reader = (owner + 1) % 4

    def proc():
        yield hdfs.read_block(reader, block)

    cluster.run_process(proc())
    assert hdfs.remote_reads == 1
    # The remote path is still disk-bound (disk 150 MiB/s << NIC).
    assert cluster.now == pytest.approx(1.0, rel=1e-6)
    moved = cluster.node(owner).nic_out.throughput.integral(0, cluster.now)
    assert moved == pytest.approx(150 * MiB, rel=1e-6)


def test_write_pipeline_replicates():
    cluster, hdfs = make_hdfs(4, replication=3)
    writer = 0

    def proc():
        yield hdfs.write_bytes(writer, 150 * MiB)

    cluster.run_process(proc())
    assert hdfs.bytes_written == pytest.approx(3 * 150 * MiB)
    # Replicas landed on nodes 1 and 2.
    for target in (1, 2):
        wrote = cluster.node(target).disk.throughput.integral(0, cluster.now)
        assert wrote == pytest.approx(150 * MiB, rel=1e-6)


def test_write_single_replica_no_network():
    cluster, hdfs = make_hdfs(4, replication=1)

    def proc():
        yield hdfs.write_bytes(2, 75 * MiB)

    cluster.run_process(proc())
    assert cluster.node(2).nic_out.throughput.last_value == 0.0
    assert cluster.now == pytest.approx(0.5, rel=1e-6)


def test_create_and_delete_charge_disk_space():
    cluster, hdfs = make_hdfs(4, block_size=64 * MiB, replication=2)
    hdfs.create_file("data", 256 * MiB)
    charged = sum(n.disk_used_bytes for n in cluster.nodes)
    assert charged == pytest.approx(512 * MiB)
    hdfs.delete("data")
    assert sum(n.disk_used_bytes for n in cluster.nodes) == 0.0


def test_bytes_stored_accounting():
    nn = NameNode(num_nodes=4, block_size=64 * MiB, replication=2)
    nn.create_file("a", 256 * MiB)
    total = sum(nn.bytes_stored_on(i) for i in range(4))
    assert total == pytest.approx(512 * MiB)
    assert nn.total_bytes() == pytest.approx(256 * MiB)


# ----------------------------------------------------------------------
# Vectorized placement
# ----------------------------------------------------------------------
def test_replicas_distinct_and_primaries_round_robin_across_files():
    nn = NameNode(num_nodes=7, block_size=1 * MiB, replication=3, seed=5)
    files = [nn.create_file(f"f{i}", size * MiB)
             for i, size in enumerate((10, 3.5, 0, 22))]
    primaries = []
    for f in files:
        assert f.replicas.shape == (f.num_blocks, 3)
        for row in f.replicas.tolist():
            assert len(set(row)) == 3
            assert all(0 <= node < 7 for node in row)
        primaries += f.replicas[:, 0].tolist()
    # The writer rotation carries over from one file to the next.
    assert primaries == [i % 7 for i in range(len(primaries))]
    ids = [b.block_id for f in files for b in f.blocks]
    assert ids == list(range(len(ids)))


@pytest.mark.parametrize("nodes,replication", [(1, 3), (2, 3), (3, 3),
                                               (5, 8), (6, 1)])
def test_replication_cap_holds(nodes, replication):
    nn = NameNode(num_nodes=nodes, block_size=1 * MiB,
                  replication=replication)
    f = nn.create_file("data", 40 * MiB)
    width = min(nodes, replication)
    assert nn.replication == width
    assert f.replicas.shape == (40, width)
    for row in f.replicas.tolist():
        assert sorted(set(row)) == sorted(row)


def test_same_seed_same_placement():
    def place(seed):
        nn = NameNode(num_nodes=9, block_size=1 * MiB, seed=seed)
        return [nn.create_file(name, 50 * MiB).replicas.tolist()
                for name in ("a", "b")]

    assert place(11) == place(11)
    assert place(11) != place(12)


def test_non_primary_replicas_uniform_chi_square():
    # Each replica column, given its primary, should be uniform over the
    # other nodes.  48 degrees of freedom (8 primaries x 6); the 0.1%
    # upper critical value of chi-square(48) is 84.04.
    nodes, blocks = 8, 16000
    nn = NameNode(num_nodes=nodes, block_size=1 * MiB, replication=3,
                  seed=2)
    reps = nn.create_file("data", blocks * MiB).replicas
    expected = blocks / nodes / (nodes - 1)
    for col in (1, 2):
        counts = np.zeros((nodes, nodes))
        np.add.at(counts, (reps[:, 0], reps[:, col]), 1)
        assert np.all(np.diag(counts) == 0)
        off = counts[~np.eye(nodes, dtype=bool)]
        stat = float(((off - expected) ** 2 / expected).sum())
        assert stat < 84.04, (col, stat)


def test_lazy_blocks_match_arrays():
    nn = NameNode(num_nodes=5, block_size=64 * MiB, replication=2, seed=3)
    nn.create_file("first", 100 * MiB)
    f = nn.create_file("data", 300 * MiB)
    blocks = f.blocks
    assert blocks is f.blocks  # built once
    assert [b.block_id for b in blocks] == [2, 3, 4, 5, 6]
    assert [b.size for b in blocks] == f.sizes.tolist()
    assert [list(b.replicas) for b in blocks] == f.replicas.tolist()
    assert all(isinstance(n, int) for b in blocks for n in b.replicas)
    assert f.blocks_local_to(int(f.replicas[0, 1]))[0] is blocks[0]


def test_disk_charge_totals_size_times_replicas():
    cluster, hdfs = make_hdfs(6, block_size=64 * MiB, replication=3)
    hdfs.create_file("a", 1000 * MiB)
    hdfs.create_file("b", 10 * MiB)
    charged = [n.disk_used_bytes for n in cluster.nodes]
    assert sum(charged) == pytest.approx(1010 * MiB * 3)
    expected = [0.0] * 6
    for name in ("a", "b"):
        for b in hdfs.lookup(name).blocks:
            for node in b.replicas:
                expected[node] += b.size
    assert charged == pytest.approx(expected)
    hdfs.delete("a")
    hdfs.delete("b")
    assert sum(n.disk_used_bytes for n in cluster.nodes) == 0.0


@pytest.mark.parametrize("engine", ["spark", "flink"])
def test_namenode_seed_does_not_change_runs(monkeypatch, engine):
    """Placements feed no simulated output: reseeding only the namenode
    leaves run durations and kernel event counts unchanged."""
    from repro.config.presets import terasort_preset, wordcount_grep_preset
    from repro.harness import runner
    from repro.workloads import TeraSort, WordCount

    cases = [(WordCount(total_bytes=4 * GiB), wordcount_grep_preset(4)),
             (TeraSort(total_bytes=4 * GiB), terasort_preset(4))]

    placements = []

    def runs(seed_offset):
        class ReseededHDFS(HDFS):
            def __init__(self, cluster, seed=0, **kw):
                super().__init__(cluster, seed=seed + seed_offset, **kw)
                placements.append(self.namenode)

        monkeypatch.setattr(runner, "HDFS", ReseededHDFS)
        out = []
        for workload, config in cases:
            result = runner.run_once(engine, workload, config, seed=1)
            assert result.success
            out.append((result.duration, result.sim_events))
        return out

    assert runs(0) == runs(1000)
    before, after = ([f.replicas.tolist() for f in nn.files.values()]
                     for nn in (placements[0], placements[len(cases)]))
    assert before != after

"""Campaign tests for the fig23 tenancy sweep.

The contract (mirroring ``tests/streaming/test_campaign.py``): the
grid is complete, deterministic per seed, bit-identical at any job
count, reports harness failures as explicit gaps rather than aborting,
and a partially-journaled campaign resumes bit-identically from its
checkpoint store.  (The SIGKILL variant lives in
``test_chaos_tenancy.py`` next to the rest of the kill-and-resume
chaos suite.)
"""

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig23_tenancy
from repro.scheduler import JobTemplate, tenancy_sweep
from repro.scheduler.sweep import DEFAULT_POLICIES
from repro.validation.digest import digest_payload, tenancy_payload

LOADS = (0.5, 0.9)
KW = dict(nodes=4, loads=LOADS, trials=1, jobs_target=6)


FIG23_FP = {"figure_id": "fig23", "policies": ["fifo", "fair", "capacity"],
            "loads": [0.5, 0.9], "trials": 1, "nodes": 4, "seed": 0,
            "crash_rate": 0.0, "jobs_target": 6,
            "templates": ["wc-spark", "grep-flink", "sort-flink",
                          "kmeans-spark"]}


@pytest.fixture(scope="module")
def small_fig23():
    return fig23_tenancy(**KW, strict=True)


# ----------------------------------------------------------------------
# grid completeness
# ----------------------------------------------------------------------
def test_grid_is_complete(small_fig23):
    fig = small_fig23
    assert fig.figure_id == "fig23"
    assert not fig.gaps
    combos = {(c.policy, c.load) for c in fig.cells}
    assert combos == {(p, lo) for p in DEFAULT_POLICIES for lo in LOADS}
    for cell in fig.cells:
        assert cell.submitted > 0
        assert cell.submitted == (cell.completed + cell.failed
                                  + cell.rejected)
        assert cell.plan_digest
        assert cell.events > 0
        assert 0.0 < cell.utilization <= 1.0


def test_common_random_numbers_across_policies(small_fig23):
    # Every policy at a given load faces the identical arrival plan
    # (the cell seed ignores the policy), so policy comparisons are
    # paired, not confounded by sampling noise.
    for load in LOADS:
        digests = {c.plan_digest for c in small_fig23.cells
                   if c.load == load}
        assert len(digests) == 1


def test_describe_renders(small_fig23):
    text = small_fig23.describe()
    assert "Multi-tenant scheduling" in text
    for policy in DEFAULT_POLICIES:
        assert policy in text
    assert "J=" in text  # Jain index per point


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_parallel_campaign_matches_serial(small_fig23):
    parallel = fig23_tenancy(**KW, jobs=2)
    assert (digest_payload(tenancy_payload(parallel))
            == digest_payload(tenancy_payload(small_fig23)))


def test_seed_changes_the_digest(small_fig23):
    other = fig23_tenancy(**KW, seed=1)
    assert (digest_payload(tenancy_payload(other))
            != digest_payload(tenancy_payload(small_fig23)))


# ----------------------------------------------------------------------
# gaps, not aborts
# ----------------------------------------------------------------------
def test_worker_failure_becomes_a_gap_not_an_abort():
    # A width-8 template profiles fine (profiling builds its own
    # 8-node cluster) but cannot be placed on the 4-node shared
    # cluster: the worker raises, the campaign reports a gap per cell
    # and still delivers nothing silently.
    wide = (JobTemplate(name="wide", engine="spark",
                        workload="wordcount", width=8),)
    fig = tenancy_sweep(policies=("fifo", "fair"), loads=(0.5,),
                        nodes=4, jobs_target=4, templates=wide,
                        queues=(), retries=0)
    assert len(fig.cells) == 2
    assert len(fig.gaps) == 2
    assert all(c.gap and c.gap_detail for c in fig.gaps)
    assert "GAP" in fig.describe()


def test_unknown_policy_fails_fast():
    with pytest.raises(ValueError):
        tenancy_sweep(policies=("fifo", "mesos"), loads=(0.5,), nodes=4)


# ----------------------------------------------------------------------
# checkpoint resume identity
# ----------------------------------------------------------------------
def test_partial_campaign_resumes_bit_identically(tmp_path, small_fig23):
    fp = FIG23_FP
    with CheckpointStore(tmp_path / "s", fp) as store:
        fig23_tenancy(**KW, checkpoint=store)
    journal = tmp_path / "s" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) == 6  # 3 policies x 2 loads
    journal.write_text("".join(lines[:3]))  # forget the second half
    with CheckpointStore(tmp_path / "s", fp, resume=True) as store:
        assert len(store) == 3
        resumed = fig23_tenancy(**KW, checkpoint=store)
        assert len(store) == 6  # the missing cells were recomputed
    assert not resumed.gaps
    assert (digest_payload(tenancy_payload(resumed))
            == digest_payload(tenancy_payload(small_fig23)))

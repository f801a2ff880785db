"""Campaign tests for the fig22 degradation sweep.

Same contract as the fig20/fig21 campaigns (grid completeness,
determinism at any job count, gaps-not-aborts, checkpoint resume and
SIGKILL survival) plus the figure's own story: the degrade policy
bounds p99 under overload where the baseline diverges, crashes cost
availability, and the loss accounting balances exactly in every cell.
"""

import math
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig22_degradation
from repro.streaming import degradation_sweep
from repro.validation.digest import digest_payload, streaming_payload

MULTIPLES = (1.0, 1.5)
RATES = (0.0, 0.5)
FIG22_FP = {"figure_id": "fig22", "engines": ["flink", "spark"],
            "load_multiples": [1.0, 1.5], "fault_rates": [0.0, 0.5],
            "policies": ["none", "degrade"], "nodes": 4, "seed": 0,
            "duration": 12.0, "batch_interval": 1.0}
KW22 = dict(nodes=4, load_multiples=MULTIPLES, fault_rates=RATES,
            duration=12.0)


@pytest.fixture(scope="module")
def small_fig22():
    return fig22_degradation(**KW22)


# ----------------------------------------------------------------------
# grid completeness and the degradation story
# ----------------------------------------------------------------------
def test_fig22_grid_is_complete(small_fig22):
    fig = small_fig22
    assert fig.figure_id == "fig22"
    assert not fig.gaps
    combos = {(c.engine, c.load_multiple, c.fault_rate, c.policy)
              for c in fig.cells}
    assert combos == {(e, m, r, p) for e in ("flink", "spark")
                      for m in MULTIPLES for r in RATES
                      for p in ("none", "degrade")}
    for cell in fig.cells:
        assert cell.total_records > 0
        assert cell.sim_events > 0
        assert cell.plan_digest
        # Exact conservation in every cell, policy or not.
        assert (cell.processed_records + cell.dropped_records
                + cell.lost_records == cell.total_records)


def test_common_random_numbers_across_engines_and_policies(small_fig22):
    """Same seed x fault rate -> the identical crash schedule for every
    engine x policy combination (the campaign's CRN design)."""
    by_rate = {}
    for cell in small_fig22.cells:
        by_rate.setdefault(cell.fault_rate, set()).add(
            tuple(cell.crash_schedule))
    for rate, schedules in by_rate.items():
        assert len(schedules) == 1
    assert by_rate[0.0] == {()}
    assert by_rate[0.5] != {()}


def test_degrade_bounds_p99_where_baseline_diverges(small_fig22):
    """The acceptance criterion at 1.5x: the degrade cell's p99 is
    finite and within its pinned bound; the baseline's is far above."""
    def cell(engine, policy, rate=0.0):
        return next(c for c in small_fig22.cells
                    if (c.engine, c.policy, c.fault_rate,
                        c.load_multiple) == (engine, policy, rate, 1.5))
    for engine in ("flink", "spark"):
        deg, base = cell(engine, "degrade"), cell(engine, "none")
        assert math.isfinite(deg.p99)
        assert math.isfinite(deg.p99_bound)
        assert deg.p99 <= deg.p99_bound
        assert deg.stable and not base.stable
        assert base.p99 > 1.5 * deg.p99
        assert deg.loss_fraction > 0.1     # the measured cost
        assert base.loss_fraction == 0.0   # the baseline never sheds


def test_faults_cost_availability_not_correctness(small_fig22):
    for engine in ("flink", "spark"):
        for policy in ("none", "degrade"):
            calm = next(c for c in small_fig22.cells
                        if (c.engine, c.policy, c.fault_rate,
                            c.load_multiple) == (engine, policy, 0.0, 1.0))
            stormy = next(c for c in small_fig22.cells
                          if (c.engine, c.policy, c.fault_rate,
                              c.load_multiple) == (engine, policy, 0.5,
                                                   1.0))
            assert calm.availability == pytest.approx(1.0)
            assert calm.crashes == 0
            assert stormy.crashes > 0
            assert stormy.restarts == stormy.crashes
            assert stormy.availability < calm.availability
            assert stormy.downtime_seconds > 0


def test_describe_renders(small_fig22):
    text = small_fig22.describe()
    assert "Overload survival" in text
    assert "goodput" in text and "loss" in text and "avail" in text


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_parallel_campaign_matches_serial(small_fig22):
    parallel = fig22_degradation(**KW22, jobs=2)
    assert (digest_payload(streaming_payload(parallel))
            == digest_payload(streaming_payload(small_fig22)))


def test_seed_changes_the_digest(small_fig22):
    other = fig22_degradation(**KW22, seed=1)
    assert (digest_payload(streaming_payload(other))
            != digest_payload(streaming_payload(small_fig22)))


# ----------------------------------------------------------------------
# gaps, not aborts
# ----------------------------------------------------------------------
def test_worker_failure_becomes_a_gap_not_an_abort():
    fig = degradation_sweep(engines=("flink", "storm"),
                            load_multiples=(1.5,), fault_rates=(0.0,),
                            policies=("degrade",), nodes=4,
                            duration=8.0, retries=0)
    assert len(fig.cells) == 2
    assert len(fig.gaps) == 1
    gap = fig.gaps[0]
    assert gap.engine == "storm" and gap.gap and gap.gap_detail
    good = next(c for c in fig.cells if not c.gap)
    assert good.engine == "flink" and good.dropped_records > 0
    assert "GAP" in fig.describe()


# ----------------------------------------------------------------------
# checkpoint resume identity
# ----------------------------------------------------------------------
def test_partial_campaign_resumes_bit_identically(tmp_path, small_fig22):
    fp = FIG22_FP
    with CheckpointStore(tmp_path / "s", fp) as store:
        fig22_degradation(**KW22, checkpoint=store)
    journal = tmp_path / "s" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) == 16
    journal.write_text("".join(lines[:5]))  # forget most of the grid
    with CheckpointStore(tmp_path / "s", fp, resume=True) as store:
        assert len(store) == 5
        resumed = fig22_degradation(**KW22, checkpoint=store)
        assert len(store) == 16
    assert (digest_payload(streaming_payload(resumed))
            == digest_payload(streaming_payload(small_fig22)))


# ----------------------------------------------------------------------
# SIGKILL mid-campaign, then resume
# ----------------------------------------------------------------------
_CHILD = f"""
import sys
from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig22_degradation

root = sys.argv[1]
fp = {FIG22_FP!r}
with CheckpointStore(root, fp, resume=len(sys.argv) > 2) as store:
    fig22_degradation(nodes=4, load_multiples=(1.0, 1.5),
                      fault_rates=(0.0, 0.5), duration=12.0,
                      checkpoint=store)
"""


def test_sigkill_then_resume_reproduces_the_digest(tmp_path, small_fig22):
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_CELL_DELAY="0.15")  # slow cells: killable
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(root)],
                            env=env)
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 60
    try:
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().count("\n") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never journaled its first cells")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    done_before = journal.read_text().count("\n")
    assert 0 < done_before < 16, "kill landed before/after the campaign"

    with CheckpointStore(root, FIG22_FP, resume=True) as store:
        resumed = fig22_degradation(**KW22, checkpoint=store)
        assert len(store) == 16
    assert not resumed.gaps
    assert (digest_payload(streaming_payload(resumed))
            == digest_payload(streaming_payload(small_fig22)))

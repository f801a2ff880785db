"""Campaign tests for the fig20/fig21 streaming sweeps.

The contract (mirroring ``tests/resilience/test_sweep.py``): the grid
is complete, deterministic per seed, bit-identical at any job count,
reports harness failures as explicit gaps rather than aborting, and a
SIGKILLed campaign resumes bit-identically from its checkpoint store.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import (fig20_streaming_latency,
                                   fig21_streaming_recovery)
from repro.streaming import degradation_sweep, streaming_sweep
from repro.validation.digest import digest_payload, streaming_payload

LOADS = (0.3, 0.6)
KW20 = dict(nodes=4, load_fractions=LOADS, duration=12.0)
KW21 = dict(nodes=4, checkpoint_intervals=(2.0, 9.0), crash_at=13.0,
            duration=24.0)


@pytest.fixture(scope="module")
def small_fig20():
    return fig20_streaming_latency(**KW20)


@pytest.fixture(scope="module")
def small_fig21():
    return fig21_streaming_recovery(**KW21)


# ----------------------------------------------------------------------
# grid completeness
# ----------------------------------------------------------------------
def test_fig20_grid_is_complete(small_fig20):
    fig = small_fig20
    assert fig.figure_id == "fig20"
    assert not fig.gaps
    combos = {(c.engine, c.arrival_kind, c.load_fraction)
              for c in fig.cells}
    assert combos == {(e, k, f) for e in ("flink", "spark")
                      for k in ("poisson", "mmpp") for f in LOADS}
    for cell in fig.cells:
        assert cell.total_records > 0
        assert cell.processed_records == cell.total_records
        assert cell.sim_events > 0
        assert not cell.crashed
        assert cell.plan_digest


def test_fig21_grid_is_complete(small_fig21):
    fig = small_fig21
    assert fig.figure_id == "fig21"
    assert not fig.gaps
    combos = {(c.engine, c.checkpoint_interval) for c in fig.cells}
    assert combos == {(e, i) for e in ("flink", "spark")
                      for i in (2.0, 9.0)}
    for cell in fig.cells:
        assert cell.crashed
        assert cell.recovery_seconds > 0
        assert cell.arrival_kind == "poisson"


def test_fig20_tells_the_latency_story(small_fig20):
    """The figure's claims at these loads: micro-batch pays the batch
    wait (higher p50), and bursty arrivals fatten the tail."""
    def cell(engine, kind, load):
        return next(c for c in small_fig20.cells
                    if (c.engine, c.arrival_kind, c.load_fraction)
                    == (engine, kind, load))
    for load in LOADS:
        assert (cell("flink", "poisson", load).p50
                < cell("spark", "poisson", load).p50)
    assert (cell("flink", "mmpp", 0.6).p99
            > cell("flink", "poisson", 0.6).p99)


def test_fig21_recovery_grows_with_interval(small_fig21):
    for engine in ("flink", "spark"):
        rows = sorted((c for c in small_fig21.cells
                       if c.engine == engine),
                      key=lambda c: c.checkpoint_interval)
        assert rows[0].replayed_records < rows[1].replayed_records
        assert rows[0].recovery_seconds < rows[1].recovery_seconds


def test_describe_renders(small_fig20, small_fig21):
    assert "Latency percentiles" in small_fig20.describe()
    assert "Recovery time" in small_fig21.describe()
    assert "p50" in small_fig20.describe()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_parallel_campaign_matches_serial(small_fig20):
    parallel = fig20_streaming_latency(**KW20, jobs=2)
    assert (digest_payload(streaming_payload(parallel))
            == digest_payload(streaming_payload(small_fig20)))


def test_seed_changes_the_digest(small_fig20):
    other = fig20_streaming_latency(**KW20, seed=1)
    assert (digest_payload(streaming_payload(other))
            != digest_payload(streaming_payload(small_fig20)))


# ----------------------------------------------------------------------
# gaps, not aborts
# ----------------------------------------------------------------------
def test_worker_failure_becomes_a_gap_not_an_abort():
    # "storm" survives the sweep's label construction but blows up in
    # the worker; the campaign must still deliver the flink cells.
    fig = streaming_sweep(engines=("flink", "storm"),
                          arrival_kinds=("poisson",),
                          load_fractions=(0.3,), nodes=4, duration=8.0,
                          retries=0)
    assert len(fig.cells) == 2
    assert len(fig.gaps) == 1
    gap = fig.gaps[0]
    assert gap.engine == "storm" and gap.gap and gap.gap_detail
    good = next(c for c in fig.cells if not c.gap)
    assert good.engine == "flink" and good.stable
    assert "GAP" in fig.describe()


@pytest.mark.parametrize("sweep", [streaming_sweep, degradation_sweep])
def test_duration_off_the_slice_grid_is_refused_before_any_cell(
        sweep, monkeypatch):
    # Refused once, up front: a refusal inside each cell would turn the
    # whole campaign into gaps and still exit 0.
    def no_cells(*args, **kwargs):
        raise AssertionError("the campaign ran cells")
    monkeypatch.setattr("repro.streaming.sweep.run_campaign", no_cells)
    with pytest.raises(ValueError, match="whole number of 0.25s slices"):
        sweep(nodes=2, duration=10.1)


def test_recovery_sweep_without_a_crash_time_is_refused_before_any_cell(
        monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("the campaign ran cells")
    monkeypatch.setattr("repro.streaming.sweep.run_campaign", no_cells)
    with pytest.raises(ValueError, match="the recovery sweep needs crash_at"):
        streaming_sweep(checkpoint_intervals=(2.0,), crash_at=None,
                        duration=8.0)


# ----------------------------------------------------------------------
# checkpoint resume identity
# ----------------------------------------------------------------------
def test_partial_campaign_resumes_bit_identically(tmp_path, small_fig21):
    fp = {"figure_id": "fig21", "engines": ["flink", "spark"],
          "arrival_kinds": ["poisson", "mmpp"], "load_fractions": [0.5],
          "checkpoint_intervals": [2.0, 9.0], "nodes": 4, "seed": 0,
          "duration": 24.0, "batch_interval": 1.0, "crash_at": 13.0}
    with CheckpointStore(tmp_path / "s", fp) as store:
        fig21_streaming_recovery(**KW21, checkpoint=store)
    journal = tmp_path / "s" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) == 4
    journal.write_text("".join(lines[:2]))  # forget the second half
    with CheckpointStore(tmp_path / "s", fp, resume=True) as store:
        assert len(store) == 2
        resumed = fig21_streaming_recovery(**KW21, checkpoint=store)
        assert len(store) == 4  # the missing cells were recomputed
    assert (digest_payload(streaming_payload(resumed))
            == digest_payload(streaming_payload(small_fig21)))


# ----------------------------------------------------------------------
# the real thing: SIGKILL mid-campaign, then resume
# ----------------------------------------------------------------------
FIG20_FP = {"figure_id": "fig20", "engines": ["flink", "spark"],
            "arrival_kinds": ["poisson", "mmpp"],
            "load_fractions": [0.3, 0.6], "checkpoint_intervals": None,
            "nodes": 4, "seed": 0, "duration": 12.0,
            "batch_interval": 1.0, "crash_at": None}

_CHILD = f"""
import sys
from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig20_streaming_latency

root = sys.argv[1]
fp = {FIG20_FP!r}
with CheckpointStore(root, fp, resume=len(sys.argv) > 2) as store:
    fig20_streaming_latency(nodes=4, load_fractions=(0.3, 0.6),
                            duration=12.0, checkpoint=store)
"""


def test_sigkill_then_resume_reproduces_the_digest(tmp_path, small_fig20):
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_CELL_DELAY="0.15")  # slow cells: killable
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(root)],
                            env=env)
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 60
    try:
        # Wait until some (not all 8) cells are journaled, then kill -9.
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
    assert 0 < done_before < 8, "kill landed before/after the campaign"

    with CheckpointStore(root, FIG20_FP, resume=True) as store:
        resumed = fig20_streaming_latency(**KW20, checkpoint=store)
        assert len(store) == 8
    assert not resumed.gaps
    assert (digest_payload(streaming_payload(resumed))
            == digest_payload(streaming_payload(small_fig20)))

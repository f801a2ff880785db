"""Tests for the resilience campaign (fig19).

Pins the campaign's three promises: determinism (serial == parallel by
canonical digest), graceful degradation (a failing cell becomes an
explicit gap, never a campaign abort), and sensible curves (rate 0 is
exactly the fault-free baseline).
"""

import math

import pytest

from repro.config.presets import GiB, wordcount_grep_preset
from repro.harness.figures import fig19_resilience
from repro.resilience import default_workloads, resilience_sweep
from repro.validation.digest import digest_payload, resilience_payload
from repro.workloads import WordCount

RATES = (0.0, 1.0)


@pytest.fixture(scope="module")
def small_fig():
    return fig19_resilience(rates=RATES, workload_names=("wordcount",
                                                         "terasort"))


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
def test_cell_grid_is_complete(small_fig):
    # workloads x engines x rates x trials, no gaps.
    assert len(small_fig.cells) == 2 * 2 * len(RATES)
    assert not small_fig.gaps
    assert all(c.success for c in small_fig.cells)


def test_rate_zero_is_the_baseline(small_fig):
    for cell in small_fig.cells:
        if cell.rate == 0.0:
            assert cell.plan_events == 0
            assert cell.slowdown == pytest.approx(1.0)


def test_faults_slow_runs_down(small_fig):
    for curve in small_fig.curves():
        assert curve.slowdowns[1] > curve.slowdowns[0]
        assert 0.0 <= curve.availability[1] <= 1.0


def test_cells_carry_compiled_plan_identity(small_fig):
    faulted = [c for c in small_fig.cells if c.rate > 0]
    assert all(c.plan_digest for c in faulted)
    # Same seed + rate => same compiled plan for both engines (common
    # random numbers: the engines face identical fault sequences).
    by_key = {}
    for c in faulted:
        by_key.setdefault((c.workload, c.rate, c.trial), set()).add(
            c.plan_digest)
    assert all(len(digests) == 1 for digests in by_key.values())


def test_describe_renders_curves(small_fig):
    text = small_fig.describe()
    assert "rate 0:" in text and "rate 1:" in text
    assert "flink" in text and "spark" in text
    assert "GAPS" not in text


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_parallel_matches_serial(small_fig):
    fanned = fig19_resilience(rates=RATES,
                              workload_names=("wordcount", "terasort"),
                              jobs=2)
    assert (digest_payload(resilience_payload(small_fig))
            == digest_payload(resilience_payload(fanned)))


def test_seed_changes_the_digest(small_fig):
    other = fig19_resilience(rates=RATES,
                             workload_names=("wordcount", "terasort"),
                             seed=1)
    assert (digest_payload(resilience_payload(small_fig))
            != digest_payload(resilience_payload(other)))


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
def _broken_workloads():
    # A cell task that raises before simulating anything must become a
    # gap — not an abort.
    cfg = wordcount_grep_preset(4)
    return [("wordcount", WordCount(4 * 4 * GiB), cfg),
            ("broken", _Exploding(), cfg)]


class _Exploding:
    """A 'workload' whose cells always raise inside the task."""
    name = "broken"

    def __getattr__(self, item):
        raise RuntimeError("synthetic workload failure")


def test_failing_cell_becomes_gap_not_abort():
    fig = resilience_sweep(workloads=_broken_workloads(), rates=(0.0,),
                           nodes=4, retries=0)
    # The healthy workload still produced its cells...
    ok = [c for c in fig.cells if c.workload == "wordcount"]
    assert len(ok) == 2 and all(c.success for c in ok)
    # ...and the broken one is reported as explicit gaps with detail.
    assert len(fig.gaps) == 2
    assert all(g.gap and g.workload == "broken" for g in fig.gaps)
    assert all(g.gap_detail for g in fig.gaps)
    assert "GAPS" in fig.describe()


def test_gaps_excluded_from_availability():
    fig = resilience_sweep(workloads=_broken_workloads(), rates=(0.0,),
                           nodes=4, retries=0)
    broken = [c for c in fig.curves() if c.workload == "broken"]
    assert all(math.isnan(c.availability[0]) for c in broken)


def test_failed_baseline_is_a_failed_cell_not_a_gap():
    """flink/pagerank at 4 nodes fails its fault-free run (Table VII's
    CoGroup out-of-memory), the same way on every attempt and every
    resume: the cell was simulated, so it is a failed cell, not a gap."""
    pagerank = [w for w in default_workloads(4) if w[0] == "pagerank"]
    fig = resilience_sweep(workloads=pagerank, engines=("flink",),
                           rates=(0.0,), nodes=4, retries=0)
    assert fig.gaps == []
    (cell,) = fig.cells
    assert cell.success is False and not cell.gap
    assert cell.failure.startswith("fault-free baseline failed: ")
    assert "CoGroup solution set" in cell.failure
    assert cell.plan_digest and math.isnan(cell.baseline_seconds)
    (curve,) = fig.curves()
    assert curve.availability == [0.0]
    assert math.isnan(curve.slowdowns[0])
    out = fig.describe()
    assert "rate 0: - @0%" in out and "GAPS" not in out
    assert f"  flink/pagerank: {cell.failure}" in out.splitlines()


def test_unknown_workload_name_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        fig19_resilience(workload_names=("wordcount", "nope"))


def test_default_workloads_cover_the_paper():
    names = [name for name, _w, _c in default_workloads()]
    assert names == ["wordcount", "grep", "terasort", "kmeans",
                     "pagerank", "connected-components"]

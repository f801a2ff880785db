"""Tests for the campaign primitive, ``repro.harness.campaign``.

Every journaled experiment — the scaling figures, ``sweep()``, the
fig19-fig23 campaigns and ``repro plan`` — runs through this one loop,
so its contract is pinned here: journaled cells are replayed and never
recomputed, results come back in cell order, failed cells become
``TaskFailure`` entries that are retried on resume, and the journal
keys of every campaign are byte-identical to the ones earlier releases
wrote (so their stores still resume).
"""

import json
import time

import pytest

from repro.cli import main
from repro.config.presets import GiB, wordcount_grep_preset
from repro.harness import campaign
from repro.harness.campaign import run_campaign
from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig01_wordcount_weak
from repro.harness.parallel import TaskFailure
from repro.harness.sweep import sweep
from repro.resilience.sweep import (ResilienceCell, default_workloads,
                                    resilience_sweep)
from repro.scheduler.jobs import JobTemplate
from repro.scheduler.policies import QueueConfig
from repro.scheduler.sweep import TenancyCell, tenancy_sweep
from repro.streaming.sweep import (DegradeCell, StreamingCell,
                                   degradation_sweep, streaming_sweep)
from repro.validation.digest import digest_payload
from repro.workloads import WordCount


def _times_ten(x):
    if x == 13:
        raise ValueError("unlucky")
    return x * 10


def _fresh(x):
    return f"fresh:{x}"


def _sleepy(delay, value):
    time.sleep(delay)
    return value


def _cells(*values):
    return [({"cell": v}, (v,)) for v in values]


def _journal_keys(store_dir):
    lines = (store_dir / "journal.jsonl").read_text().splitlines()
    return [json.loads(line)["key"] for line in lines]


def _journal_key(cell):
    return digest_payload(cell[0])


def refuse_fan_out(monkeypatch):
    """Fail the test if any cell reaches ``robust_map``."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a journaled cell was recomputed")
    monkeypatch.setattr(campaign, "robust_map", refuse)


@pytest.fixture
def no_fan_out(monkeypatch):
    refuse_fan_out(monkeypatch)


# ----------------------------------------------------------------------
# the primitive
# ----------------------------------------------------------------------
def test_journaled_cells_never_reach_the_cell_function(tmp_path,
                                                      monkeypatch):
    cells = _cells(1, 2, 3)
    with CheckpointStore(tmp_path / "s", "fp") as store:
        assert run_campaign(_times_ten, cells, store) == [10, 20, 30]
    refuse_fan_out(monkeypatch)
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert run_campaign(_fresh, cells, store) == [10, 20, 30]
        assert len(store) == 3


def test_results_come_back_in_cell_order_at_two_jobs(tmp_path):
    # Cell 0 finishes last, so the journal sees the cells out of order;
    # the results keep their cell slots anyway.
    cells = [({"cell": 0}, (1.0, "slow")), ({"cell": 1}, (0.0, "a")),
             ({"cell": 2}, (0.0, "b"))]
    with CheckpointStore(tmp_path / "s", "fp") as store:
        results = run_campaign(_sleepy, cells, store, jobs=2)
    assert results == ["slow", "a", "b"]
    keys = [_journal_key(cell) for cell in cells]
    journaled = _journal_keys(tmp_path / "s")
    assert sorted(journaled) == sorted(keys)
    assert journaled[-1] == keys[0]


def test_failed_cell_is_a_gap_not_journaled_and_retried_on_resume(tmp_path):
    cells = _cells(1, 13, 3)
    with CheckpointStore(tmp_path / "s", "fp") as store:
        results = run_campaign(_times_ten, cells, store)
        assert len(store) == 2
    assert results[0] == 10 and results[2] == 30
    failure = results[1]
    assert isinstance(failure, TaskFailure)
    assert failure.error_type == "ValueError" and "unlucky" in failure.message
    assert _journal_key(cells[1]) not in _journal_keys(tmp_path / "s")
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert run_campaign(_fresh, cells, store) == [10, "fresh:13", 30]
        assert len(store) == 3


def test_without_a_store_nothing_is_digested(monkeypatch):
    def refuse(_payload):
        raise AssertionError("a key was digested without a store")
    monkeypatch.setattr(campaign, "digest_payload", refuse)
    assert run_campaign(_times_ten, _cells(1, 2)) == [10, 20]


# ----------------------------------------------------------------------
# journal keys are byte-identical to the ones earlier releases wrote
# ----------------------------------------------------------------------
#: One journal key per key scheme, as written by the per-campaign loops
#: this primitive replaced: a store they journaled must still resume
#: with no cell recomputed.
PINNED = {
    "fig01/flink":
        "0964e9bbfcaa92b5dccc5c52eebc5a3845c21552f529d79995f947402628408d",
    "fig01/spark":
        "b4d31d4bb68340e847e1c341531c551d9730cd582c97d43a22e7ad1a71112456",
    "sweep":
        "6b71ce32fdaeff566f7359a9b69356d2b6db7a848e8838642c2bc230eda5ed07",
    "fig19":
        "7cad2607f069bf471b1e807cf690ee07a80a391165d26decf25f07c9934610e6",
    "fig20":
        "acf31e96aeb6788c33f32bd2f574b4d190a17f5f38690e0e83a8e00de56b0e26",
    "fig22":
        "c4324c1a9d5accd965323b2b506fcbf1e0956bccfc22f5de067f16d68df8e24d",
    "fig23":
        "33c3053858e09d1951596ab8f75fbafcf7cc05d200e1fb7e9c3671a56f439bfe",
}
WORDCOUNT_4 = [w for w in default_workloads(4) if w[0] == "wordcount"]
WC_TEMPLATE = (JobTemplate(name="wc-spark", engine="spark",
                           workload="wordcount", width=2, queue="prod",
                           priority=1),)
JOURNALED = "journaled"


def _resume(tmp_path, journal, run):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        for key, payload in journal.items():
            store.save(key, payload)
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        result = run(store)
        assert len(store) == len(journal)
    assert _journal_keys(tmp_path / "s") == list(journal)
    return result


def test_fig01_keys_are_pinned(tmp_path, no_fan_out):
    journal = {
        PINNED["fig01/flink"]: {"engine": "flink", "workload": "wordcount",
                                "nodes": 2, "durations": [123.0],
                                "failures": []},
        PINNED["fig01/spark"]: {"engine": "spark", "workload": "wordcount",
                                "nodes": 2, "durations": [456.0],
                                "failures": []},
    }
    fig = _resume(tmp_path, journal, lambda store: fig01_wordcount_weak(
        trials=1, nodes=(2,), checkpoint=store))
    assert fig.series["flink"].means == [123.0]
    assert fig.series["spark"].means == [456.0]


def test_sweep_keys_are_pinned(tmp_path, no_fan_out):
    row = {"spark.default_parallelism": 64, "engine": "spark",
           "workload": JOURNALED}
    journal = {PINNED["sweep"]: row}
    rows = _resume(tmp_path, journal, lambda store: sweep(
        "spark", WordCount(2 * 8 * GiB), wordcount_grep_preset(2),
        {"spark.default_parallelism": [64]}, checkpoint=store))
    assert rows == [row]


def test_fig19_keys_are_pinned(tmp_path, no_fan_out):
    cell = ResilienceCell(engine="flink", workload="wordcount", nodes=4,
                          rate=0.0, trial=0, seed=0, plan_digest=JOURNALED)
    journal = {PINNED["fig19"]: cell.payload()}
    fig = _resume(tmp_path, journal, lambda store: resilience_sweep(
        workloads=WORDCOUNT_4, engines=("flink",), rates=(0.0,), nodes=4,
        checkpoint=store, figure_id="fig19"))
    assert [c.plan_digest for c in fig.cells] == [JOURNALED]


def test_fig20_keys_are_pinned(tmp_path, no_fan_out):
    cell = StreamingCell(engine="flink", arrival_kind="poisson",
                         load_fraction=0.3, checkpoint_interval=10.0,
                         nodes=4, seed=0, duration=5.0, batch_interval=1.0,
                         plan_digest=JOURNALED)
    journal = {PINNED["fig20"]: cell.payload()}
    fig = _resume(tmp_path, journal, lambda store: streaming_sweep(
        "fig20", engines=("flink",), arrival_kinds=("poisson",),
        load_fractions=(0.3,), nodes=4, duration=5.0, checkpoint=store))
    assert [c.plan_digest for c in fig.cells] == [JOURNALED]


def test_fig22_keys_are_pinned(tmp_path, no_fan_out):
    cell = DegradeCell(engine="flink", load_multiple=1.0, fault_rate=0.0,
                       policy="none", nodes=4, seed=0, duration=5.0,
                       batch_interval=1.0, plan_digest=JOURNALED)
    journal = {PINNED["fig22"]: cell.payload()}
    fig = _resume(tmp_path, journal, lambda store: degradation_sweep(
        "fig22", engines=("flink",), load_multiples=(1.0,),
        fault_rates=(0.0,), policies=("none",), nodes=4, duration=5.0,
        checkpoint=store))
    assert [c.plan_digest for c in fig.cells] == [JOURNALED]


def test_fig23_keys_are_pinned(tmp_path, no_fan_out):
    cell = TenancyCell(policy="fifo", load=0.3, trial=0, seed=0, nodes=4,
                       plan_digest=JOURNALED)
    journal = {PINNED["fig23"]: cell.payload()}
    fig = _resume(tmp_path, journal, lambda store: tenancy_sweep(
        policies=("fifo",), loads=(0.3,), nodes=4, jobs_target=2,
        templates=WC_TEMPLATE, queues=(QueueConfig("prod"),),
        checkpoint=store, figure_id="fig23"))
    assert [c.plan_digest for c in fig.cells] == [JOURNALED]


# ----------------------------------------------------------------------
# the CLI fingerprint
# ----------------------------------------------------------------------
def _resilience_argv(store, *extra):
    return ["resilience", "--workloads", "wordcount", "--engines", "flink",
            "--nodes", "4", "--rates", "0", "--checkpoint", str(store),
            *extra]


def test_cli_fingerprint_ignores_how_a_campaign_runs(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_resilience_argv(store)) == 0
    first = capsys.readouterr().out
    journal = (store / "journal.jsonl").read_text()
    assert main(_resilience_argv(
        store, "--resume", "--jobs", "2", "--strict", "--retries", "3",
        "--timeout", "60")) == 0
    assert capsys.readouterr().out == first
    assert (store / "journal.jsonl").read_text() == journal


def test_cli_fingerprint_changes_with_the_grid(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_resilience_argv(store)) == 0
    capsys.readouterr()
    journal = (store / "journal.jsonl").read_text()
    argv = _resilience_argv(store, "--resume")
    argv[argv.index("--rates") + 1] = "1"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "different campaign" in err
    assert (store / "journal.jsonl").read_text() == journal

"""Tests for the parameter-sweep utility."""

import math

import pytest

from repro.config.presets import wordcount_grep_preset
from repro.harness.sweep import best_row, sweep, sweep_rows_to_csv
from repro.workloads import WordCount

GiB = 2**30


@pytest.fixture(scope="module")
def rows():
    return sweep("flink", WordCount(2 * 24 * GiB),
                 wordcount_grep_preset(2),
                 grid={"flink.network_buffers": [64, 4096],
                       "flink.default_parallelism": [16, 32]},
                 trials=1, base_seed=3)


def test_sweep_cartesian_product(rows):
    assert len(rows) == 4
    combos = {(r["flink.network_buffers"], r["flink.default_parallelism"])
              for r in rows}
    assert combos == {(64, 16), (64, 32), (4096, 16), (4096, 32)}


def test_sweep_records_failures(rows):
    # 64 buffers is not enough for a shuffle: those rows fail.
    failed = [r for r in rows if r["flink.network_buffers"] == 64]
    assert all(math.isnan(float(r["mean_seconds"])) for r in failed)
    assert all("network buffers" in r["failure"] for r in failed)


def test_sweep_best_row(rows):
    best = best_row(rows)
    assert best["flink.network_buffers"] == 4096
    assert not math.isnan(float(best["mean_seconds"]))


def test_best_row_all_failed():
    with pytest.raises(ValueError):
        best_row([{"mean_seconds": math.nan, "failure": "x"}])


def test_sweep_csv(rows):
    text = sweep_rows_to_csv(rows)
    assert "flink.network_buffers" in text.splitlines()[0]
    assert len(text.splitlines()) == 5
    assert sweep_rows_to_csv([]) == ""


def test_sweep_csv_real_file_handle_also_returns_text(rows, tmp_path):
    # Regression: the text used to be returned only for StringIO
    # targets — writing to an actual file handed back "".
    path = tmp_path / "sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        text = sweep_rows_to_csv(rows, out=fh)
    assert text == sweep_rows_to_csv(rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == text


def test_sweep_rows_count_completed_trials(rows):
    # Single-trial fixture: every row reports 0 or 1 completed trials,
    # consistent with its failure field.
    for r in rows:
        if r["failure"]:
            assert r["completed_trials"] == 0
            assert math.isnan(float(r["mean_seconds"]))
        else:
            assert r["completed_trials"] == 1


def test_sweep_multi_trial_runs_all_trials():
    rows = sweep("spark", WordCount(2 * 24 * GiB),
                 wordcount_grep_preset(2),
                 grid={"spark.default_parallelism": [64]},
                 trials=3, base_seed=1)
    assert rows[0]["completed_trials"] == 3
    assert not math.isnan(float(rows[0]["mean_seconds"]))


def test_sweep_spark_override():
    rows = sweep("spark", WordCount(2 * 24 * GiB),
                 wordcount_grep_preset(2),
                 grid={"spark.default_parallelism": [64, 384]},
                 trials=1)
    assert len(rows) == 2
    assert all(not math.isnan(float(r["mean_seconds"])) for r in rows)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep("spark", WordCount(GiB), wordcount_grep_preset(2), grid={})


def test_sweep_top_level_override():
    rows = sweep("spark", WordCount(2 * 24 * GiB),
                 wordcount_grep_preset(2),
                 grid={"hdfs_block_size": [128 * 2**20, 512 * 2**20]},
                 trials=1)
    # Different block sizes change the scan-task granularity, hence time.
    times = [float(r["mean_seconds"]) for r in rows]
    assert times[0] != times[1]


@pytest.mark.parametrize("key", ["hdfs_blocksize", "default_parallelism"])
def test_sweep_unknown_key_rejected(key):
    """A grid key naming no config field used to be ignored: every row
    ran the base config, labelled with the key."""
    with pytest.raises(TypeError, match=key):
        sweep("spark", WordCount(GiB), wordcount_grep_preset(2),
              grid={key: [64]})

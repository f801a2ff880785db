"""The reporting rules: tail percentile, spread, and the bound check."""

import json
import statistics

import pytest

import run
import stats


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert stats.tail(values) == (99.0, 990)  # p99.9 has only one beyond
    assert stats.tail(list(range(1, 101))) == (90.0, 90)
    assert stats.tail(list(range(1, 201))) == (95.0, 190)


def test_tail_needs_ten_samples_beyond_even_the_median():
    assert stats.tail(list(range(1, 20))) is None
    assert stats.tail(list(range(1, 22))) == (50.0, 11)


def test_tail_counts_samples_strictly_beyond():
    # Ties at the percentile value are not "beyond" it.
    assert stats.tail([1.0] * 95 + [2.0] * 5) is None
    assert stats.tail([1.0] * 95 + list(range(2, 17))) == (90.0, 5)


def test_spread_is_the_interquartile_range_over_the_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread([5.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


SPEC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "hits", "unit": "count", "better": "higher", "bound": 0.2}]


def test_compare_flags_only_worsening_beyond_the_bound():
    base = {"w": {"wall_s": [10.0, 10.2, 9.8], "hits": [100, 100, 100]}}
    inside = {"w": {"wall_s": [10.9, 11.0, 10.8], "hits": [81, 85, 90]}}
    beyond = {"w": {"wall_s": [11.2, 11.1, 11.3], "hits": [70, 75, 79]}}
    rows = {r["metric"]: r for r in stats.compare_sets(base, inside, SPEC)}
    assert not rows["wall_s"]["regression"]
    assert not rows["hits"]["regression"]
    rows = {r["metric"]: r for r in stats.compare_sets(base, beyond, SPEC)}
    assert rows["wall_s"]["regression"] and rows["hits"]["regression"]
    assert rows["wall_s"]["base"] == 10.0 and rows["wall_s"]["new"] == 11.2


def test_compare_marks_metrics_noisier_than_their_bound_unresolved():
    base = {"w": {"wall_s": [8.0, 10.0, 12.0, 10.0]}}
    new = {"w": {"wall_s": [10.0, 10.1, 9.9, 10.0]}}
    row, = stats.compare_sets(base, new, SPEC[:1])
    assert row["unresolved"] and not row["regression"]


def test_compare_command_exit_code(tmp_path, capsys):
    spec = {"end_to_end": SPEC}

    def write(name, walls):
        path = tmp_path / name
        path.write_text("".join(
            json.dumps({"workload": "w", "metrics": {"wall_s": w}}) + "\n"
            for w in walls))
        return str(path)

    a = write("a.jsonl", [10.0, 10.1, 9.9])
    assert run.compare(a, write("b.jsonl", [10.5, 10.4, 10.6]), spec) == 0
    assert run.compare(a, write("c.jsonl", [12.0, 12.1, 11.9]), spec) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_judges_a_copied_metric_once(tmp_path, capsys):
    spec = {"end_to_end": SPEC[:1] + [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    path = tmp_path / "a.jsonl"
    # A batch record: p50_ms is wall_s in ms and has no samples of its own.
    path.write_text(json.dumps({
        "workload": "w", "metrics": {"wall_s": 10.0, "p50_ms": 10000.0},
        "n": {"wall_s": 3}}) + "\n")
    assert run.compare(str(path), str(path), spec) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[1] for row in rows] == ["wall_s"]

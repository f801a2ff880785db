"""Unit + property tests for StepSeries."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster.trace import StepSeries


def make(points, initial=0.0):
    s = StepSeries(initial)
    for t, v in points:
        s.append(t, v)
    return s


def test_empty_series_is_initial_everywhere():
    s = StepSeries(initial=7.0)
    assert s.value_at(0.0) == 7.0
    assert s.value_at(100.0) == 7.0
    assert s.integral(0, 10) == pytest.approx(70.0)


def test_value_at_steps():
    s = make([(0.0, 1.0), (5.0, 3.0), (10.0, 0.0)])
    assert s.value_at(-1.0) == 0.0
    assert s.value_at(0.0) == 1.0
    assert s.value_at(4.999) == 1.0
    assert s.value_at(5.0) == 3.0
    assert s.value_at(9.0) == 3.0
    assert s.value_at(10.0) == 0.0
    assert s.value_at(1e9) == 0.0


def test_non_monotone_append_rejected():
    s = make([(5.0, 1.0)])
    with pytest.raises(ValueError):
        s.append(4.0, 2.0)


def test_same_time_append_overwrites():
    s = make([(5.0, 1.0), (5.0, 2.0)])
    assert s.value_at(5.0) == 2.0
    assert len(s) == 1


def test_equal_value_runs_collapse():
    s = make([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0)])
    assert len(s) == 2


def test_integral_simple():
    s = make([(0.0, 2.0), (10.0, 0.0)])
    assert s.integral(0, 10) == pytest.approx(20.0)
    assert s.integral(0, 20) == pytest.approx(20.0)
    assert s.integral(5, 15) == pytest.approx(10.0)


def test_integral_empty_interval():
    s = make([(0.0, 2.0)])
    assert s.integral(3.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        s.integral(5.0, 4.0)


def test_mean():
    s = make([(0.0, 100.0), (5.0, 0.0)])
    assert s.mean(0, 10) == pytest.approx(50.0)
    assert s.mean(2, 2) == 0.0


def test_maximum():
    s = make([(0.0, 1.0), (2.0, 9.0), (4.0, 3.0)])
    assert s.maximum(0, 10) == 9.0
    assert s.maximum(3.9, 10) == pytest.approx(9.0)  # value at 3.9 is 9
    assert s.maximum(4.0, 10) == 3.0


def test_sample_grid():
    s = make([(0.0, 4.0), (2.0, 0.0)])
    times, means = s.sample(0.0, 4.0, 1.0)
    assert times.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert means.tolist() == pytest.approx([4.0, 4.0, 0.0, 0.0])


def test_sample_rejects_bad_step():
    s = StepSeries()
    with pytest.raises(ValueError):
        s.sample(0, 1, 0)


@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(-100, 100)),
                min_size=1, max_size=40))
def test_property_integral_additive(points):
    points = sorted(points, key=lambda p: p[0])
    s = make(points)
    lo, hi = 0.0, 1200.0
    mid = 600.0
    whole = s.integral(lo, hi)
    split = s.integral(lo, mid) + s.integral(mid, hi)
    assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-6)


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 50)),
                min_size=1, max_size=30))
def test_property_mean_bounded_by_extremes(points):
    points = sorted(points, key=lambda p: p[0])
    s = make(points)
    m = s.mean(0.0, 120.0)
    values = [0.0] + [v for _, v in points]
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9


def naive_sample(s, start, end, step):
    """Reference resample: an independent integral/mean per bucket.

    This is the scalar implementation :meth:`StepSeries.sample`
    replaced; the array version must reproduce it *bitwise*, since the
    golden trace digests hash these floats.
    """
    n = max(1, math.ceil((end - start) / step))
    grid = [start + i * step for i in range(n)]
    means = []
    for left in grid:
        right = min(left + step, end)
        if right <= left:
            means.append(0.0)
        else:
            means.append(s.integral(left, right) / (right - left))
    return grid, means


def bits(xs):
    """The IEEE-754 bit patterns of a float sequence (so -0.0 != 0.0)."""
    return np.asarray(xs, dtype=np.float64).view(np.uint64).tolist()


def assert_sample_bitwise(s, start, end, step):
    grid, means = s.sample(start, end, step)
    ref_grid, ref_means = naive_sample(s, start, end, step)
    assert bits(grid) == bits(ref_grid)
    assert bits(means) == bits(ref_means)
    return means


@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(-100, 100)),
                min_size=0, max_size=50),
       st.floats(0.01, 50.0),
       st.floats(0, 100))
def test_property_sample_bitwise_matches_naive(points, step, start):
    points = sorted(points, key=lambda p: p[0])
    s = make(points, initial=1.5)
    assert_sample_bitwise(s, start, start + 10 * step, step)


def test_sample_partial_last_bucket_bitwise():
    s = make([(0.0, 3.0), (2.5, 7.0)])
    # end=2.9 leaves a final bucket truncated to [2.0, 2.9).
    assert_sample_bitwise(s, 0.0, 2.9, 1.0)


def test_sample_many_points_in_one_bucket_bitwise():
    # 500 change points inside bucket [1, 2), one each in the others:
    # the per-rank passes run long for one bucket only.
    rng = np.random.default_rng(3)
    inner = np.sort(rng.uniform(1.0, 2.0, 500))
    points = [(0.5, 2.0)] + [(float(t), float(v)) for t, v in
                             zip(inner, rng.uniform(0, 100, 500))]
    points += [(2.5, 9.0), (3.25, 0.0)]
    s = make(points, initial=4.0)
    assert len(s) > 400
    assert_sample_bitwise(s, 0.0, 4.0, 1.0)
    assert_sample_bitwise(s, 0.3, 3.9, 0.7)


def test_sample_duplicate_timestamps_bitwise():
    # ``append`` folds same-instant changes, but the buffers can be
    # written directly; repeated timestamps contribute zero-width terms.
    s = StepSeries(initial=2.0)
    s.times = array("d", [1.0, 1.0, 1.5, 1.5, 1.5, 3.0])
    s.values = array("d", [5.0, 7.0, 1.0, 8.0, 3.0, 6.0])
    means = assert_sample_bitwise(s, 0.0, 4.0, 0.5)
    assert means[2] == pytest.approx(7.0)  # [1.0, 1.5) holds 7
    assert_sample_bitwise(s, 1.0, 3.0, 0.25)


def test_sample_points_on_bucket_edges_bitwise():
    # Every change point sits exactly on a left edge: it belongs to the
    # bucket it opens, not the one it closes.
    s = make([(float(t), float(t % 3)) for t in range(1, 10)], initial=1.0)
    means = assert_sample_bitwise(s, 0.0, 10.0, 1.0)
    assert means.tolist() == [1.0] + [float(t % 3) for t in range(1, 10)]
    assert_sample_bitwise(s, 0.0, 10.0, 0.5)
    assert_sample_bitwise(s, 2.0, 8.0, 2.0)


def test_sample_zero_width_final_bucket_bitwise():
    # (end - start) / step rounds up to 4 buckets, but the 4th left edge
    # lands exactly on ``end``: that bucket has zero width and mean 0.
    start, end, step = 0.0, 0.1 * 3, 0.1
    assert math.ceil((end - start) / step) == 4
    s = make([(0.05, 3.0), (0.15, 6.0), (0.25, 9.0)])
    grid, means = s.sample(start, end, step)
    assert grid[-1] == end and means[-1] == 0.0
    assert_sample_bitwise(s, start, end, step)


def test_sample_empty_series_bitwise():
    s = StepSeries(initial=2.5)
    means = assert_sample_bitwise(s, 0.0, 3.0, 1.0)
    assert means.tolist() == [2.5, 2.5, 2.5]
    assert_sample_bitwise(StepSeries(), 1.0, 7.3, 0.4)
    # An empty window still yields one (zero-width) bucket.
    assert_sample_bitwise(s, 5.0, 5.0, 1.0)


def scalar_frame(monitor, metric, start, end, step):
    """The scalar path end to end: :func:`naive_sample` per series,
    then per-bucket Python sums across series and nodes in node order."""
    scale = monitor._scale(metric)
    per_node = []
    for node in monitor.cluster.nodes:
        node_total = None
        for series in monitor._node_series(node, metric):
            grid, means = naive_sample(series, start, end, step)
            vals = [m * scale for m in means]
            node_total = vals if node_total is None else [
                a + b for a, b in zip(node_total, vals)]
        per_node.append(node_total)
    total = [sum(bucket) for bucket in zip(*per_node)]
    return grid, [t / len(per_node) for t in total], total


def test_monitor_frame_bitwise_matches_scalar_resample():
    """Every panel of a real Word Count resource run (the fig03 shape,
    at 4 nodes) is bitwise the scalar resample summed across nodes."""
    from repro.config.presets import wordcount_grep_preset
    from repro.harness.runner import run_once
    from repro.monitoring import ClusterMonitor, RESOURCE_PANELS
    from repro.workloads import WordCount

    nodes = 4
    result = run_once("flink", WordCount(total_bytes=nodes * 24 * 2**30),
                      wordcount_grep_preset(nodes), seed=0,
                      keep_deployment=True)
    assert result.success
    monitor = ClusterMonitor(result.metrics.pop("_deployment").cluster)
    window = (result.start, result.end, 1.0)
    for metric in RESOURCE_PANELS:
        frame = monitor.frame(metric, *window)
        times, mean, total = scalar_frame(monitor, metric, *window)
        assert len(frame.times) > 100
        assert bits(frame.times) == bits(times)
        assert bits(frame.mean) == bits(mean)
        assert bits(frame.total) == bits(total)

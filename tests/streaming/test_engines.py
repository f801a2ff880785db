"""Unit tests for the executed streaming engines and arrival compiler.

The tentpole contract: both engines run real simulations on the fluid
kernel, are deterministic for fixed inputs, respect the arrival plan,
wire their spans into the tracer, and survive strict invariant audits.
"""

import math
from dataclasses import asdict

import pytest

from repro.observability import SpanTracer
from repro.streaming import (DEFAULT_SLICE_WIDTH, ArrivalPlan,
                             MMPPArrivals, PoissonArrivals,
                             StreamingWorkloadModel, make_arrivals,
                             max_stable_throughput,
                             queue_depth_from_buffers, run_streaming)

MODEL = StreamingWorkloadModel()
NODES = 4
CAP_F = max_stable_throughput(MODEL, NODES, "flink")
CAP_S = max_stable_throughput(MODEL, NODES, "spark", batch_interval=1.0)


# ----------------------------------------------------------------------
# arrival compilation
# ----------------------------------------------------------------------
def test_poisson_plan_is_deterministic_and_seed_sensitive():
    a = PoissonArrivals(100_000).compile(seed=3, duration=10.0)
    b = PoissonArrivals(100_000).compile(seed=3, duration=10.0)
    c = PoissonArrivals(100_000).compile(seed=4, duration=10.0)
    assert a.counts == b.counts and a.digest() == b.digest()
    assert a.counts != c.counts
    assert a.num_slices == int(round(10.0 / DEFAULT_SLICE_WIDTH))


def test_poisson_plan_realises_the_requested_rate():
    plan = PoissonArrivals(1_000_000).compile(seed=0, duration=40.0)
    assert plan.offered_rate == pytest.approx(1_000_000, rel=0.02)


def test_mmpp_stationary_mean_is_exact():
    assert MMPPArrivals(1.0).stationary_mean_factor == pytest.approx(1.0)


def test_mmpp_plan_is_burstier_than_poisson_at_equal_mean():
    import numpy as np
    rate = 1_000_000
    pois = PoissonArrivals(rate).compile(seed=0, duration=60.0)
    mmpp = MMPPArrivals(rate).compile(seed=0, duration=60.0)
    assert np.std(mmpp.counts) > 2 * np.std(pois.counts)
    # ...while the long-run mean stays comparable.
    assert mmpp.offered_rate == pytest.approx(rate, rel=0.15)


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        MMPPArrivals(1000, calm_sojourn=0.0)
    with pytest.raises(ValueError):
        PoissonArrivals(1000).compile(seed=0, duration=0.0)
    with pytest.raises(ValueError):
        make_arrivals("storm", 1000)
    with pytest.raises(ValueError):
        ArrivalPlan("poisson", 1.0, 1.0, 0.25, 0, counts=(-1,))


@pytest.mark.parametrize("duration", [10.1, 10.2, 0.1, -1.0, math.nan])
@pytest.mark.parametrize("process", [PoissonArrivals, MMPPArrivals])
def test_plan_refuses_a_duration_off_the_slice_grid(process, duration):
    # 10.1 s is 40.4 slices: rounding to 40 ended the plan at 10.0 s
    # while its offered rate (and a run's goodput) divided by 10.1.
    with pytest.raises(ValueError, match="whole number of 0.25s slices"):
        process(1000).compile(seed=0, duration=duration)


def test_plan_covers_exactly_its_duration():
    for duration in (0.25, 10.0, 16.0, 24.0, 40.0, 10.0 * (1 + 1e-12)):
        plan = PoissonArrivals(1000).compile(seed=0, duration=duration)
        assert plan.num_slices == round(duration / DEFAULT_SLICE_WIDTH)
        assert plan.slice_close(plan.num_slices - 1) == pytest.approx(
            duration, rel=1e-9)


def test_slice_geometry():
    plan = ArrivalPlan("poisson", 8.0, 1.0, 0.25, 0, counts=(2, 2, 2, 2))
    assert plan.slice_close(0) == 0.25
    assert plan.slice_midpoint(0) == 0.125
    assert plan.total_records == 8
    assert plan.offered_rate == pytest.approx(8.0)


# ----------------------------------------------------------------------
# engine execution
# ----------------------------------------------------------------------
def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown streaming engine"):
        run_streaming("storm", PoissonArrivals(1000), duration=1.0)
    with pytest.raises(ValueError):
        run_streaming("flink", PoissonArrivals(1000), duration=1.0,
                      batch_interval=0.0)
    with pytest.raises(ValueError):
        run_streaming("flink", PoissonArrivals(1000), duration=1.0,
                      crash_times=[-1.0])


def test_queue_depth_from_buffers():
    # The paper-era default pool: 2048 buffers over 16-way parallelism.
    assert queue_depth_from_buffers(2048, 16) == 4
    assert queue_depth_from_buffers(8, 16) == 1      # starved pool
    assert queue_depth_from_buffers(10**6, 16) == 4  # clamped


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_run_is_deterministic(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    kwargs = dict(duration=10.0, nodes=NODES, seed=5)
    a = run_streaming(engine, PoissonArrivals(0.5 * cap), **kwargs)
    b = run_streaming(engine, PoissonArrivals(0.5 * cap), **kwargs)
    assert asdict(a) == asdict(b)
    assert a.sim_events > 0


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_all_records_processed_when_stable(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.5 * cap), duration=10.0,
                      nodes=NODES)
    assert r.stable
    assert r.processed_records == r.total_records
    assert r.final_watermark == pytest.approx(10.0)


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_strict_invariants_clean(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.6 * cap), duration=8.0,
                      nodes=NODES, strict=True)
    assert r.stable


def test_accepts_precompiled_plan():
    plan = PoissonArrivals(0.4 * CAP_F).compile(seed=9, duration=6.0)
    r = run_streaming("flink", plan, duration=999.0, nodes=NODES)
    assert r.duration == pytest.approx(6.0)  # the plan's duration wins
    assert r.plan_digest == plan.digest()


def test_checkpoints_follow_the_interval():
    r = run_streaming("flink", PoissonArrivals(0.5 * CAP_F),
                      duration=20.0, nodes=NODES, checkpoint_interval=5.0)
    # Barriers at watermark 5, 10, 15; the barrier due at 20 has no
    # further input to align against (end of stream) and never fires.
    assert r.checkpoints == 3
    s = run_streaming("spark", PoissonArrivals(0.5 * CAP_S),
                      duration=20.0, nodes=NODES, checkpoint_interval=5.0)
    # The D-Stream checkpoint piggybacks on batch jobs, including the
    # final one that closes exactly at the boundary.
    assert s.checkpoints == 4


def test_describe_mentions_the_essentials():
    r = run_streaming("flink", PoissonArrivals(0.5 * CAP_F),
                      duration=6.0, nodes=NODES)
    text = r.describe()
    assert "p50" in text and "p99" in text and "ckpt" in text


# ----------------------------------------------------------------------
# crash and recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_crash_recovery_bookkeeping(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.5 * cap), duration=24.0,
                      nodes=NODES, checkpoint_interval=4.0,
                      crash_times=[13.0])
    assert r.crashed
    # Recovery cannot beat the restart delay.
    assert r.recovery_seconds > 2.0
    assert r.processed_records == r.total_records
    assert r.final_watermark == pytest.approx(24.0)
    no_crash = run_streaming(engine, PoissonArrivals(0.5 * cap),
                             duration=24.0, nodes=NODES,
                             checkpoint_interval=4.0)
    assert not no_crash.crashed
    assert math.isnan(no_crash.recovery_seconds)
    assert no_crash.replayed_records == 0


def test_longer_checkpoint_interval_replays_and_recovers_more():
    rows = [run_streaming("flink", PoissonArrivals(0.5 * CAP_F),
                          duration=24.0, nodes=NODES,
                          checkpoint_interval=ck, crash_times=[13.0])
            for ck in (2.0, 9.0)]
    assert rows[0].replayed_records < rows[1].replayed_records
    assert rows[0].recovery_seconds < rows[1].recovery_seconds


def test_flink_crash_rolls_watermark_back():
    r = run_streaming("flink", PoissonArrivals(0.5 * CAP_F),
                      duration=24.0, nodes=NODES, checkpoint_interval=9.0,
                      crash_times=[13.0])
    # The trace must contain the rollback: a later entry with a lower
    # watermark than some earlier entry.
    regressed = any(r.watermarks[i + 1][1] < r.watermarks[i][1]
                    for i in range(len(r.watermarks) - 1))
    assert regressed
    assert r.replayed_records > 0


# ----------------------------------------------------------------------
# tracer integration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_spans_wire_into_the_tracer(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    tracer = SpanTracer()
    run_streaming(engine, PoissonArrivals(0.5 * cap), duration=6.0,
                  nodes=NODES, tracer=tracer)
    tree = tracer.tree()
    assert tree.check() == []
    assert len(tree.of_kind("run")) == 1
    assert tree.of_kind("job")
    assert tree.of_kind("operator")
    assert tree.of_kind("task")
    for task in tree.of_kind("task"):
        assert task.node is not None and 0 <= task.node < NODES


def test_flink_trace_records_barriers():
    tracer = SpanTracer()
    run_streaming("flink", PoissonArrivals(0.5 * CAP_F), duration=12.0,
                  nodes=NODES, checkpoint_interval=4.0, tracer=tracer)
    barriers = [s for s in tracer.tree() if s.key == "CKPT"]
    assert len(barriers) == 2  # watermark 4 and 8; none at end-of-stream

"""Unit and property tests for the overload-survival policy layer.

Covers the restart-strategy family (fixed delay / backoff with seeded
jitter, each with an optional restart budget), the crash
schedule compiler, the shedding math, the PID batch-interval
controller, and their integration into both engines — repeated crash
sequences (including a second crash landing during the restart drain
of the first), explicit job-failed termination, exact shedding
conservation, bounded p99 under overload, and RESTART/SHED span
events.
"""

import math

import pytest

from repro.observability import SpanTracer
from repro.streaming import (AdaptiveBatchPolicy, BatchIntervalController,
                             ExponentialBackoffRestart, FixedDelayRestart,
                             PoissonArrivals, ProbabilisticShedding,
                             StreamingWorkloadModel, compile_crash_schedule,
                             max_stable_throughput, resolve_policy,
                             run_streaming)

MODEL = StreamingWorkloadModel()
NODES = 4
CAP_F = max_stable_throughput(MODEL, NODES, "flink")
CAP_S = max_stable_throughput(MODEL, NODES, "spark", batch_interval=1.0)


# ----------------------------------------------------------------------
# restart strategies
# ----------------------------------------------------------------------
def test_fixed_delay_restart():
    s = FixedDelayRestart(delay=1.5)
    assert s.decide([3.0], seed=0) == 1.5
    assert s.decide([3.0, 4.0, 5.0], seed=0) == 1.5
    capped = FixedDelayRestart(delay=1.5, max_restarts=2)
    assert capped.decide([1.0, 2.0], seed=0) == 1.5
    assert capped.decide([1.0, 2.0, 3.0], seed=0) is None


def test_backoff_grows_caps_and_jitters_deterministically():
    s = ExponentialBackoffRestart(initial_delay=0.5, max_delay=4.0,
                                  multiplier=2.0, jitter=0.1)
    crashes = []
    delays = []
    for i in range(6):
        crashes.append(float(i))
        delays.append(s.decide(crashes, seed=7))
    # Same inputs, same delays (jitter is a pure function of the seed).
    again = [s.decide(crashes[:i + 1], seed=7) for i in range(6)]
    assert delays == again
    # A different seed jitters differently.
    other = [s.decide(crashes[:i + 1], seed=8) for i in range(6)]
    assert delays != other
    # Each delay is within jitter of the geometric base, capped.
    for i, d in enumerate(delays):
        base = min(4.0, 0.5 * 2.0 ** i)
        assert base * 0.9 - 1e-12 <= d <= base * 1.1 + 1e-12
    assert delays[-1] <= 4.0 * 1.1


def test_backoff_without_jitter_is_exactly_geometric():
    s = ExponentialBackoffRestart(initial_delay=1.0, max_delay=8.0,
                                  multiplier=2.0, jitter=0.0)
    assert [s.decide([0.0] * (i + 1), seed=0) for i in range(5)] == \
        [1.0, 2.0, 4.0, 8.0, 8.0]


def test_restart_strategy_validation():
    FixedDelayRestart(delay=3.0).validate()
    ExponentialBackoffRestart().validate()
    with pytest.raises(ValueError):
        FixedDelayRestart(delay=-1.0).validate()
    with pytest.raises(ValueError):
        FixedDelayRestart(max_restarts=-1).validate()
    with pytest.raises(ValueError):
        ExponentialBackoffRestart(jitter=1.5).validate()


# ----------------------------------------------------------------------
# crash schedule compiler
# ----------------------------------------------------------------------
def test_crash_schedule_is_deterministic_sorted_and_positive():
    a = compile_crash_schedule(2, 4, 30.0, 1.0)
    b = compile_crash_schedule(2, 4, 30.0, 1.0)
    assert a == b
    assert list(a) == sorted(a)
    assert all(0 < t <= 30.0 for t in a)
    assert a  # rate 1.0 over 4 nodes: crashes exist at this seed
    assert compile_crash_schedule(2, 4, 30.0, 0.0) == ()


def test_crash_schedule_scales_with_duration_and_rate():
    short = compile_crash_schedule(2, 4, 10.0, 1.0)
    long = compile_crash_schedule(2, 4, 40.0, 1.0)
    # Same relative plan, resolved against the run length.
    assert len(short) == len(long)
    assert all(l == pytest.approx(4 * s) for s, l in zip(short, long))
    mean_low = sum(len(compile_crash_schedule(s, 4, 30.0, 0.25))
                   for s in range(20)) / 20
    mean_high = sum(len(compile_crash_schedule(s, 4, 30.0, 2.0))
                    for s in range(20)) / 20
    assert mean_high > 2 * mean_low
    with pytest.raises(ValueError):
        compile_crash_schedule(0, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        compile_crash_schedule(0, 0, 10.0, 1.0)


# ----------------------------------------------------------------------
# shedding math
# ----------------------------------------------------------------------
def test_probabilistic_shedding_ramps_monotonically():
    s = ProbabilisticShedding(max_queue_slices=8, target_queue_slices=3)
    drops = [s.shed(q, 1000) for q in range(10)]
    assert drops[0] == drops[3] == 0
    assert all(a <= b for a, b in zip(drops, drops[1:]))
    assert drops[8] == drops[9] == 1000
    assert all(0 <= d <= 1000 for d in drops)
    with pytest.raises(ValueError):
        ProbabilisticShedding(max_queue_slices=4,
                              target_queue_slices=4).validate()


# ----------------------------------------------------------------------
# PID batch-interval controller
# ----------------------------------------------------------------------
def test_controller_stretches_under_overload_and_relaxes_after():
    ctl = BatchIntervalController(AdaptiveBatchPolicy(), 1.0)
    assert ctl.admissible() == math.inf  # no rate estimate yet
    for _ in range(8):
        ctl.observe(admitted=1000, busy=1.5 * ctl.interval)  # overloaded
    stretched = ctl.interval
    assert stretched > 1.0
    assert stretched <= ctl.ceiling + 1e-12
    assert math.isfinite(ctl.admissible())  # shedding budget now active
    for _ in range(20):
        ctl.observe(admitted=1000, busy=0.1 * ctl.interval)  # idle
    assert ctl.interval < stretched
    assert ctl.interval >= ctl.floor - 1e-12


def test_controller_is_deterministic_and_records_intervals():
    def trajectory():
        ctl = BatchIntervalController(AdaptiveBatchPolicy(), 1.0)
        for i in range(10):
            ctl.observe(admitted=100 + i, busy=0.3 + 0.2 * i)
        return list(ctl.intervals)
    assert trajectory() == trajectory()
    assert len(trajectory()) == 10


def test_adaptive_policy_validation():
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(target_utilisation=0.0).validate()
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(max_interval=0.0).validate()
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(min_interval=3.0, max_interval=2.0).validate()


def test_resolve_policy_bundles():
    strategy, shedding, batch = resolve_policy("flink", "none")
    assert strategy.kind == "fixed" and shedding is None and batch is None
    strategy, shedding, batch = resolve_policy("flink", "degrade")
    assert strategy.kind == "backoff"
    assert shedding is not None and batch is None
    strategy, shedding, batch = resolve_policy("spark", "degrade")
    assert shedding is None and batch is not None
    with pytest.raises(ValueError, match="unknown degradation policy"):
        resolve_policy("flink", "panic")


# ----------------------------------------------------------------------
# engine integration: repeated crash sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_repeated_crashes_all_fire_and_recover(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.4 * cap), duration=30.0,
                      nodes=NODES, checkpoint_interval=4.0,
                      crash_times=[8.0, 16.0], strict=True)
    assert len(r.crashes) == 2
    assert r.restarts == 2
    assert not r.job_failed
    assert r.processed_records == r.total_records
    assert r.final_watermark == pytest.approx(30.0)
    assert r.downtime_seconds >= 2 * 2.0 - 1e-9  # two fixed restarts
    assert len(r.rollbacks) == 2


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_second_crash_during_restart_drain_of_the_first(engine):
    """Regression for the one-shot ``crash_log["crashed"]`` guard: a
    crash whose scheduled time passes while the pipeline is down from
    the first crash must still fire (immediately after the restart),
    not be silently swallowed."""
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.4 * cap), duration=30.0,
                      nodes=NODES, checkpoint_interval=4.0,
                      crash_times=[8.0, 8.5], strict=True)
    assert len(r.crashes) == 2
    assert r.restarts == 2
    # The second crash hit after the first restart completed.
    assert r.crashes[1] >= r.crashes[0] + 2.0 - 1e-9
    assert r.processed_records == r.total_records
    assert r.final_watermark == pytest.approx(30.0)


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_restart_budget_terminates_with_explicit_job_failed(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    r = run_streaming(engine, PoissonArrivals(0.5 * cap), duration=20.0,
                      nodes=NODES, checkpoint_interval=4.0,
                      crash_times=[6.0, 7.0, 8.0, 9.0],
                      restart_strategy=FixedDelayRestart(
                          delay=1.0, max_restarts=1),
                      strict=True)
    assert r.job_failed
    assert not r.stable
    assert r.failed_at is not None
    assert r.restarts == len(r.crashes) - 1  # the last crash is fatal
    assert r.lost_records > 0
    assert (r.processed_records + r.dropped_records + r.lost_records
            == r.total_records)
    assert "JOB FAILED" in r.describe()


def test_max_restarts_budget_also_fails_the_job():
    r = run_streaming("flink", PoissonArrivals(0.3 * CAP_F),
                      duration=20.0, nodes=NODES,
                      crash_times=[5.0, 10.0, 15.0],
                      restart_strategy=FixedDelayRestart(
                          delay=1.0, max_restarts=1), strict=True)
    assert r.job_failed and r.restarts == 1 and len(r.crashes) == 2


def test_policy_engine_mismatch_rejected():
    with pytest.raises(ValueError, match="continuous engine"):
        run_streaming("spark", PoissonArrivals(1000), duration=1.0,
                      shedding=ProbabilisticShedding())
    with pytest.raises(ValueError, match="micro-batch engine"):
        run_streaming("flink", PoissonArrivals(1000), duration=1.0,
                      batch_policy=AdaptiveBatchPolicy())


# ----------------------------------------------------------------------
# engine integration: shedding and adaptive batching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_flink_shedding_conservation_exact(seed):
    r = run_streaming("flink", PoissonArrivals(1.6 * CAP_F),
                      duration=10.0, nodes=NODES, seed=seed,
                      shedding=ProbabilisticShedding(), strict=True)
    assert r.dropped_records > 0
    assert r.lost_records == 0
    assert (r.processed_records + r.dropped_records == r.total_records)
    weight = sum(w for _l, _f, w in r.samples)
    assert weight == pytest.approx(r.processed_records)


@pytest.mark.parametrize("seed", range(5))
def test_spark_adaptive_conservation_exact(seed):
    r = run_streaming("spark", PoissonArrivals(1.6 * CAP_S),
                      duration=10.0, nodes=NODES, seed=seed,
                      batch_policy=AdaptiveBatchPolicy(), strict=True)
    assert r.dropped_records > 0
    assert r.lost_records == 0
    assert (r.processed_records + r.dropped_records == r.total_records)


@pytest.mark.parametrize("engine,policy", [
    ("flink", "shed"), ("spark", "pid")])
def test_p99_bounded_under_2x_overload_with_policy_on(engine, policy):
    """The acceptance criterion: with degradation on, p99 at 2x the
    stability boundary stays under the policy's pinned bound; with it
    off, the latency grows with the run length (divergence)."""
    cap = CAP_F if engine == "flink" else CAP_S
    kwargs = dict(nodes=NODES, seed=0)
    if engine == "flink":
        on = dict(shedding=ProbabilisticShedding())
    else:
        on = dict(batch_policy=AdaptiveBatchPolicy())
    bounded = run_streaming(engine, PoissonArrivals(2.0 * cap),
                            duration=15.0, strict=True, **kwargs, **on)
    assert bounded.stable
    assert math.isfinite(bounded.p99_bound)
    assert bounded.percentile(99) <= bounded.p99_bound
    # Baseline: p99 keeps growing as the run gets longer — divergence.
    short = run_streaming(engine, PoissonArrivals(2.0 * cap),
                          duration=8.0, **kwargs)
    long = run_streaming(engine, PoissonArrivals(2.0 * cap),
                         duration=15.0, **kwargs)
    assert not long.stable
    assert long.percentile(99) > short.percentile(99) + 2.0


def test_shedding_never_drops_when_underloaded():
    r = run_streaming("flink", PoissonArrivals(0.5 * CAP_F),
                      duration=10.0, nodes=NODES,
                      shedding=ProbabilisticShedding(), strict=True)
    assert r.dropped_records == 0
    assert r.processed_records == r.total_records
    s = run_streaming("spark", PoissonArrivals(0.5 * CAP_S),
                      duration=10.0, nodes=NODES,
                      batch_policy=AdaptiveBatchPolicy(), strict=True)
    assert s.dropped_records == 0


def test_goodput_loss_and_availability_accessors():
    r = run_streaming("flink", PoissonArrivals(1.5 * CAP_F),
                      duration=10.0, nodes=NODES,
                      shedding=ProbabilisticShedding())
    assert r.goodput == pytest.approx(r.processed_records / 10.0)
    assert r.loss_fraction == pytest.approx(
        r.dropped_records / r.total_records)
    assert r.availability == pytest.approx(1.0)
    crashed = run_streaming("flink", PoissonArrivals(0.4 * CAP_F),
                            duration=20.0, nodes=NODES,
                            crash_times=[10.0])
    assert crashed.availability < 1.0
    assert crashed.downtime_seconds > 0


# ----------------------------------------------------------------------
# span events for restart/shed decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_restart_decisions_are_traced(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    tracer = SpanTracer()
    run_streaming(engine, PoissonArrivals(0.4 * cap), duration=24.0,
                  nodes=NODES, crash_times=[8.0, 14.0], tracer=tracer)
    tree = tracer.tree()
    assert tree.check() == []
    restarts = [s for s in tree if s.key == "RESTART"]
    assert len(restarts) == 2
    assert all(s.end > s.start for s in restarts)


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_shed_decisions_are_traced(engine):
    cap = CAP_F if engine == "flink" else CAP_S
    tracer = SpanTracer()
    if engine == "flink":
        policies = dict(shedding=ProbabilisticShedding())
    else:
        policies = dict(batch_policy=AdaptiveBatchPolicy())
    run_streaming(engine, PoissonArrivals(1.8 * cap), duration=10.0,
                  nodes=NODES, tracer=tracer, **policies)
    tree = tracer.tree()
    assert tree.check() == []
    sheds = [s for s in tree if s.key == "SHED"]
    assert sheds
    assert all(s.meta.get("dropped", 0) > 0 for s in sheds)


def test_job_failure_is_traced():
    tracer = SpanTracer()
    run_streaming("flink", PoissonArrivals(0.4 * CAP_F), duration=20.0,
                  nodes=NODES, crash_times=[5.0, 6.0],
                  restart_strategy=FixedDelayRestart(delay=1.0,
                                                     max_restarts=1),
                  tracer=tracer)
    names = [s.name for s in tracer.tree() if s.key == "RESTART"]
    assert "job-failed" in names

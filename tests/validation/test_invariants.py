"""The invariant checker must pass clean runs and catch seeded bugs."""

import pytest

from repro.cluster.fluid import Capacity, FluidScheduler
from repro.cluster.memory import MemoryAccount
from repro.cluster.simulation import Simulation
from repro.cluster.topology import Cluster
from repro.cluster.trace import StepSeries, check_series_bounds
from repro.monitoring.metrics import Metric, MetricFrame, validate_frame
from repro.validation import InvariantChecker, InvariantViolation

MiB = float(2**20)


# ----------------------------------------------------------------------
# clean runs stay clean
# ----------------------------------------------------------------------
def test_clean_cluster_run_produces_no_violations():
    cluster = Cluster(3, seed=1)
    checker = InvariantChecker().attach(cluster)
    n0, n1, n2 = cluster.nodes
    events = [cluster.fluid.transfer(512 * MiB, [n0.disk]),
              cluster.fluid.transfer(256 * MiB, [n0.nic_out, n1.nic_in]),
              cluster.fluid.transfer(128 * MiB,
                                     [n0.disk, n0.nic_out, n2.nic_in])]
    cluster.run()
    assert all(e.triggered for e in events)
    checker.audit_cluster(cluster)
    checker.require_clean("clean run")  # must not raise
    assert checker.checks["kernel_step"] > 0
    assert checker.checks["max_min"] > 0


def test_detach_stops_observation():
    cluster = Cluster(1, seed=0)
    checker = InvariantChecker().attach(cluster)
    checker.detach(cluster)
    assert checker not in cluster.sim.observers
    assert cluster.fluid.checker is None
    cluster.fluid.transfer(MiB, [cluster.node(0).disk])
    cluster.run()
    assert checker.checks["kernel_step"] == 0


# ----------------------------------------------------------------------
# seeded bugs are caught
# ----------------------------------------------------------------------
def test_unfair_allocation_is_flagged():
    """Manually corrupt rates after an allocation: checker must object."""
    sim = Simulation()
    sched = FluidScheduler(sim)
    cap = Capacity("c", 100.0)
    sched.transfer(1e12, [cap])
    sched.transfer(1e12, [cap])
    flows = list(sched._flows)
    # Starve one flow and give its share to the other: still feasible,
    # no longer max-min fair.
    flows[0].rate = 0.0
    flows[1].rate = 100.0
    checker = InvariantChecker()
    checker.check_max_min(sched, set(flows))
    assert any("neither capped nor bottlenecked" in v
               for v in checker.violations)


def test_oversubscribed_capacity_is_flagged():
    sim = Simulation()
    sched = FluidScheduler(sim)
    cap = Capacity("c", 100.0)
    sched.transfer(1e12, [cap])
    (flow,) = sched._flows
    flow.rate = 150.0  # beyond the bandwidth
    checker = InvariantChecker()
    checker.check_max_min(sched, {flow})
    assert any("oversubscribed" in v for v in checker.violations)


def test_rate_cap_violation_is_flagged():
    sim = Simulation()
    sched = FluidScheduler(sim)
    cap = Capacity("c", 100.0)
    sched.transfer(1e12, [cap], rate_cap=10.0)
    (flow,) = sched._flows
    flow.rate = 50.0
    checker = InvariantChecker()
    checker.check_max_min(sched, {flow})
    assert any("exceeds its cap" in v for v in checker.violations)


def _solved(*routes, **capacity_kwargs):
    """Solve one flow per route over capacities ``a`` and ``b``."""
    sched = FluidScheduler(Simulation())
    caps = {name: Capacity(name, 100.0, **capacity_kwargs) for name in "ab"}
    for route in routes:
        sched.transfer(1e12, [caps[name] for name in route])
    sched.settle()
    return sorted(sched._flows, key=lambda f: f.id)


NEITHER = ("is neither capped nor bottlenecked — allocation is not "
           "max-min fair / work-conserving")


def test_contended_oversubscription_is_flagged():
    """Two streams on a seeking disk sum to the nominal bandwidth, which
    exceeds what contention leaves of it."""
    first, second = _solved("a", "a", contention_alpha=0.5)
    first.rate = second.rate = 50.0
    checker = InvariantChecker()
    checker.check_max_min(None, {first, second})
    assert checker.violations == [
        f"fluid: capacity a oversubscribed: 100.0 > effective bandwidth "
        f"{100.0 / 1.5}"]


def test_negative_rate_is_flagged():
    (flow,) = _solved("a")
    flow.rate = -5.0
    checker = InvariantChecker()
    checker.check_max_min(None, (flow,))
    assert checker.violations == [
        f"fluid: flow #{flow.id} has negative rate -5.0"]


def test_nan_rate_is_flagged():
    (flow,) = _solved("ab")
    flow.rate = float("nan")
    checker = InvariantChecker()
    checker.check_max_min(None, (flow,))
    assert checker.violations == [
        f"fluid: flow #{flow.id} (rate nan, cap None) {NEITHER}"]


def test_lone_flow_on_a_shared_capacity_takes_the_general_pass():
    """Audited alone, a flow at the full bandwidth looks clean; the other
    flow on its capacity makes that capacity oversubscribed."""
    audited, other = _solved("a", "a")
    audited.rate, other.rate = 100.0, 50.0
    checker = InvariantChecker()
    checker.check_max_min(None, (audited,))
    assert checker.violations == [
        "fluid: capacity a oversubscribed: 150.0 > effective bandwidth "
        "100.0"]


def test_unfair_allocation_across_two_capacities_is_flagged():
    """Both capacities are saturated, but the flows alone on ``a`` and on
    ``b`` sit below the rate of the flow crossing both."""
    both, on_a, on_b = _solved("ab", "a", "b")
    assert [f.rate for f in (both, on_a, on_b)] == [50.0, 50.0, 50.0]
    both.rate, on_a.rate, on_b.rate = 60.0, 40.0, 40.0
    checker = InvariantChecker()
    checker.check_max_min(None, {both, on_a, on_b})
    assert sorted(checker.violations) == sorted(
        f"fluid: flow #{f.id} (rate 40.0, cap None) {NEITHER}"
        for f in (on_a, on_b))


def test_byte_conservation_break_is_flagged():
    cluster = Cluster(1, seed=0)
    checker = InvariantChecker().attach(cluster)
    cluster.fluid.transfer(512 * MiB, [cluster.node(0).disk])
    cluster.run()
    # Corrupt the ledger: claim more bytes moved than the trace shows.
    cluster.fluid.bytes_by_capacity["node-000.disk"] += 64 * MiB
    checker.audit_cluster(cluster)
    assert any("byte conservation" in v for v in checker.violations)
    with pytest.raises(InvariantViolation, match="byte conservation"):
        checker.require_clean("corrupted ledger")


def test_double_dispatch_is_flagged():
    sim = Simulation()
    checker = InvariantChecker()
    sim.observers.append(checker)
    evt = sim.event()
    evt.callbacks.append(lambda e: None)
    sim._schedule(evt, 1.0)
    evt.triggered = True  # simulate a kernel bug: live event pre-marked
    sim.run()
    assert any("dispatched twice" in v for v in checker.violations)


def test_violation_recording_is_bounded():
    checker = InvariantChecker()
    for i in range(InvariantChecker.MAX_RECORDED + 10):
        checker._record(f"violation {i}")
    assert len(checker.violations) == InvariantChecker.MAX_RECORDED
    assert checker.suppressed == 10
    with pytest.raises(InvariantViolation, match="suppressed"):
        checker.require_clean("flood")


# ----------------------------------------------------------------------
# component audits
# ----------------------------------------------------------------------
def test_memory_account_audit_catches_child_imbalance():
    sim = Simulation()
    root = MemoryAccount(sim, "ram", 1024.0)
    child = root.sub_account("heap", 512.0)
    child.reserve(100.0)
    assert root.audit() == []
    # Break the chain invariant: children hold more than the parent.
    root.used = 10.0
    problems = root.audit()
    assert any("children hold" in p for p in problems)


def test_memory_account_audit_catches_overcommit():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)
    acct.used = 200.0  # corrupt directly; reserve() would refuse
    assert any("> capacity" in p for p in acct.audit())


def test_step_series_bounds_checker():
    series = StepSeries()
    series.append(0.0, 50.0)
    series.append(1.0, 100.0)
    assert check_series_bounds(series, "s", 0.0, 100.0) == []
    series.append(2.0, 130.0)
    assert any("upper bound" in p
               for p in check_series_bounds(series, "s", 0.0, 100.0))
    neg = StepSeries()
    neg.append(0.0, -5.0)
    assert any("lower bound" in p
               for p in check_series_bounds(neg, "s", 0.0, 100.0))


def test_metric_frame_validation():
    good = MetricFrame(metric=Metric.CPU_PERCENT, times=[0.0, 1.0],
                       mean=[10.0, 99.0], total=[20.0, 198.0], num_nodes=2)
    assert validate_frame(good) == []
    bad = MetricFrame(metric=Metric.CPU_PERCENT, times=[0.0, 1.0],
                      mean=[10.0, 140.0], total=[20.0, 280.0], num_nodes=2)
    assert any("> 100%" in p for p in validate_frame(bad))
    negative = MetricFrame(metric=Metric.DISK_IO_MIBS, times=[0.0],
                           mean=[-3.0], total=[-3.0], num_nodes=1)
    assert any("negative" in p for p in validate_frame(negative))


# ----------------------------------------------------------------------
# strict-mode plumbing
# ----------------------------------------------------------------------
def test_runner_strict_mode_runs_clean():
    from repro.config.presets import wordcount_grep_preset
    from repro.harness.runner import run_once
    from repro.workloads import WordCount
    GiB = float(2**30)
    result = run_once("spark", WordCount(total_bytes=2 * GiB),
                      wordcount_grep_preset(2), seed=3, strict=True)
    assert result.success


# ----------------------------------------------------------------------
# streaming audit: clean runs pass, corrupted ledgers are flagged
# ----------------------------------------------------------------------
def _streaming_result(**kwargs):
    from repro.streaming import PoissonArrivals, run_streaming
    defaults = dict(duration=10.0, nodes=2, seed=5)
    defaults.update(kwargs)
    return run_streaming("flink", PoissonArrivals(200_000.0), **defaults)


def test_streaming_audit_passes_a_clean_run():
    checker = InvariantChecker()
    checker.audit_streaming(_streaming_result())
    assert not checker.violations
    assert checker.checks["streaming_audit"] == 1


def test_streaming_broken_conservation_is_flagged():
    result = _streaming_result()
    result.dropped_records += 7  # cook the books
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert any("record conservation broken" in v for v in checker.violations)
    with pytest.raises(InvariantViolation, match="conservation"):
        checker.require_clean("cooked ledger")


def test_streaming_loss_without_job_failure_is_flagged():
    result = _streaming_result()
    result.lost_records += 3
    result.total_records += 3  # keep conservation intact: isolate the check
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert any("did not fail" in v for v in checker.violations)


def test_streaming_watermark_regression_outside_rollback_is_flagged():
    result = _streaming_result()
    assert len(result.watermarks) > 2
    t, wm = result.watermarks[-1]
    result.watermarks[-1] = (t, wm - 5.0)  # regress with no crash rollback
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert any("regressed" in v for v in checker.violations)


def test_streaming_rollback_sanctions_a_watermark_regression():
    result = _streaming_result()
    t, wm = result.watermarks[-1]
    result.watermarks[-1] = (t, wm - 5.0)
    result.rollbacks.append(t)  # a restart rollback at that instant
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert not checker.violations


def test_streaming_restart_count_mismatch_is_flagged():
    result = _streaming_result(crash_times=[4.0])
    result.restarts += 1
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert any("restart(s) recorded" in v for v in checker.violations)


def test_streaming_p99_over_policy_bound_is_flagged():
    from repro.streaming import resolve_policy
    _, shedding, _ = resolve_policy("flink", "degrade")
    result = _streaming_result(shedding=shedding)
    result.p99_bound = 1e-6  # tighten the promise until it breaks
    checker = InvariantChecker()
    checker.audit_streaming(result)
    assert any("exceeds the active policy's bound" in v
               for v in checker.violations)

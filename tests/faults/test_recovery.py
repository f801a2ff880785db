"""Crash recovery: the acceptance scenarios of the fault engine.

Spark re-executes lost task shares at stage granularity and recomputes
crashed nodes' materialised outputs from lineage; Flink 0.10 restarts
the whole pipeline.  The differential tests pin the simulated recovery
against the analytic lineage/restart estimate: the simulation charges
extra for the interrupted stage's tail (survivors finish their shares
before the barrier reports the loss), so agreement is bounded at 15%,
not exact.
"""

import pytest

from repro.config.presets import wordcount_grep_preset
from repro.faults import (FaultPlan, FlinkRestartPolicy, NodeCrash,
                          RetryPolicy, compare_with_analytic,
                          run_with_faults)
from repro.harness.runner import run_once
from repro.validation.digest import digest_payload
from repro.workloads import WordCount

GiB = 2**30
NODES = 4

#: Documented sim-vs-analytic agreement bound for the single-crash
#: differential (see docs/faults.md for where the gap comes from).
ANALYTIC_TOLERANCE = 0.15


@pytest.fixture(scope="module")
def scenario():
    return WordCount(NODES * 2 * GiB), wordcount_grep_preset(NODES)


@pytest.fixture(scope="module")
def baselines(scenario):
    workload, cfg = scenario
    return {engine: run_once(engine, workload, cfg, seed=0)
            for engine in ("spark", "flink")}


def _crash_run(engine, scenario, baselines, fraction, **kwargs):
    workload, cfg = scenario
    plan = FaultPlan.single_crash(fraction, node=1, restart_after=0.0)
    return run_with_faults(
        engine, workload, cfg, plan, seed=0,
        retry_policy=RetryPolicy(backoff=0.0),
        restart_policy=FlinkRestartPolicy(restart_delay=0.0),
        strict=True, baseline=baselines[engine], **kwargs)


# ----------------------------------------------------------------------
# acceptance: engine recovery semantics
# ----------------------------------------------------------------------
def test_spark_recovers_with_task_reexecution(scenario, baselines):
    res = _crash_run("spark", scenario, baselines, 0.5)
    assert res.success
    assert res.retry_attempts >= 1
    assert not res.restarts
    assert res.recovery_overhead > 0.0
    assert [e.kind for e in res.timeline.entries].count("node_crash") == 1


def test_flink_recovers_with_full_restart(scenario, baselines):
    res = _crash_run("flink", scenario, baselines, 0.5)
    assert res.success
    assert len(res.restarts) == 1
    assert res.retry_attempts == 0          # no task-level retries
    assert res.recovery_overhead > 0.0


def test_late_crash_costs_flink_more_than_spark(scenario, baselines):
    """The headline claim: without materialised intermediates a late
    failure makes Flink redo (almost) the whole job, while Spark only
    re-runs the interrupted stage plus lineage shares."""
    spark = _crash_run("spark", scenario, baselines, 0.6)
    flink = _crash_run("flink", scenario, baselines, 0.6)
    assert spark.success and flink.success
    assert flink.recovery_overhead >= spark.recovery_overhead


def test_flink_restart_overhead_nondecreasing_in_fail_point(
        scenario, baselines):
    """Restart cost grows with lost progress: crashing later never
    costs less (full pipeline restart has no partial credit)."""
    overheads = [
        _crash_run("flink", scenario, baselines, f).recovery_overhead
        for f in (0.25, 0.5, 0.75)]
    assert all(o >= 0.0 for o in overheads)
    for earlier, later in zip(overheads, overheads[1:]):
        assert later >= earlier - 1e-6


def test_permanent_node_loss_spark_survives_flink_fails(
        scenario, baselines):
    """restart_after=None: the machine never returns.  Spark reschedules
    onto the survivors; Flink 0.10 cannot redeploy the pipeline."""
    workload, cfg = scenario
    plan = FaultPlan.single_crash(0.5, node=1, restart_after=None)
    spark = run_with_faults("spark", workload, cfg, plan, seed=0,
                            retry_policy=RetryPolicy(backoff=0.0),
                            strict=True, baseline=baselines["spark"])
    assert spark.success
    assert spark.retry_attempts >= 1
    flink = run_with_faults("flink", workload, cfg, plan, seed=0,
                            restart_policy=FlinkRestartPolicy(
                                restart_delay=0.0),
                            strict=True, baseline=baselines["flink"])
    assert not flink.success
    assert "cannot redeploy" in (flink.result.failure or "")


# ----------------------------------------------------------------------
# differential: simulated vs analytic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["spark", "flink"])
def test_simulated_agrees_with_analytic(scenario, engine):
    workload, cfg = scenario
    cmp = compare_with_analytic(engine, workload, cfg,
                                fail_at_fraction=0.5, node=1, seed=0,
                                strict=True)
    assert cmp.simulated.success
    assert abs(cmp.relative_gap) <= ANALYTIC_TOLERANCE, cmp.describe()


# ----------------------------------------------------------------------
# determinism: same seed + same plan => identical digests
# ----------------------------------------------------------------------
def test_same_seed_same_plan_identical_digests(scenario, baselines):
    a = _crash_run("spark", scenario, baselines, 0.5)
    b = _crash_run("spark", scenario, baselines, 0.5)
    assert digest_payload(a.payload()) == digest_payload(b.payload())


def test_random_plan_runs_deterministically(scenario):
    workload, cfg = scenario
    plan = FaultPlan.random(seed=3, num_nodes=NODES, num_events=2,
                            kinds=("disk_slowdown", "nic_slowdown",
                                   "network_partition"))
    runs = [run_with_faults("flink", workload, cfg, plan, seed=1,
                            strict=True) for _ in range(2)]
    assert runs[0].success
    assert digest_payload(runs[0].payload()) == \
        digest_payload(runs[1].payload())


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1).validate()
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-1.0).validate()
    with pytest.raises(ValueError):
        FlinkRestartPolicy(max_restarts=-1).validate()
    RetryPolicy().validate()
    FlinkRestartPolicy().validate()


def test_absolute_plan_skips_baseline_resolution(scenario, baselines):
    """An already-absolute plan must not be rescaled by the baseline."""
    workload, cfg = scenario
    baseline = baselines["spark"]
    at = baseline.start + 0.5 * baseline.duration
    plan = FaultPlan(events=(
        NodeCrash(at=at, node=1, restart_after=0.0),))
    res = run_with_faults("spark", workload, cfg, plan, seed=0,
                          retry_policy=RetryPolicy(backoff=0.0),
                          strict=True, baseline=baseline)
    assert res.success
    crash = res.timeline.of_kind("node_crash")[0]
    assert crash.time == pytest.approx(at)


def test_blacklist_after_repeated_failures():
    """A node that fails tasks repeatedly is excluded from placement."""
    from repro.cluster import Cluster
    from repro.engines.common.execution import TaskLostError
    from repro.faults import FaultState, FaultTimeline, SparkRecoveryRuntime
    cluster = Cluster(4)
    state = FaultState(cluster)
    timeline = FaultTimeline()
    runtime = SparkRecoveryRuntime(cluster, state, timeline,
                                   RetryPolicy(blacklist_after=2))
    err = TaskLostError("lost")
    runtime._update_blacklist({2: err})
    assert 2 not in state.blacklisted
    runtime._update_blacklist({2: err})
    assert 2 in state.blacklisted
    assert timeline.of_kind("blacklist")
    assert 2 not in state.schedulable_indices()
    # ...but a fully-blacklisted cluster still schedules somewhere.
    for ni in (0, 1, 3):
        state.blacklisted.add(ni)
    assert state.schedulable_indices() == [0, 1, 2, 3]


def test_speculative_retry_charges_waste(scenario, baselines):
    """Speculation races two copies of the recovery spec; the loser's
    work is charged as speculative waste, never committed."""
    workload, cfg = scenario
    plan = FaultPlan.single_crash(0.5, node=1, restart_after=0.0)
    res = run_with_faults("spark", workload, cfg, plan, seed=0,
                          retry_policy=RetryPolicy(backoff=0.0,
                                                   speculative=True),
                          strict=True, baseline=baselines["spark"])
    assert res.success
    assert res.speculative_waste > 0.0


def test_checkpoint_whatif_monotone():
    """Shorter checkpoint intervals save at least as much redone work."""
    from repro.faults import checkpoint_whatif
    whatifs = checkpoint_whatif(duration=200.0,
                                restarts=[(80.0, 80.0), (150.0, 60.0)],
                                intervals=(10, 60, 120))
    saved = [w.redone_work_saved for w in whatifs]
    assert saved == sorted(saved, reverse=True)
    for w in whatifs:
        assert w.redone_work_saved >= 0.0
        assert w.checkpoint_overhead >= 0.0


def test_lineage_recomputed_twice_in_one_stage_gets_unique_key():
    """A crash before a stage and another during it make the stage
    recompute the same history entry twice (at stage start, then from
    the retry loop); the second ledger account must not collide with
    the first, or the cell becomes a campaign gap."""
    from repro.harness.figures import fig19_resilience
    fig = fig19_resilience(seed=0, nodes=8, rates=(1.0,), trials=2,
                           workload_names=("pagerank",), strict=True)
    assert fig.gaps == []
    spark = [c for c in fig.cells if c.engine == "spark"]
    assert len(spark) == 2 and all(c.success for c in spark)

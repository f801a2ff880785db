"""One completion event per batch of flows.

:meth:`FluidScheduler.transfer_many` starts a batch of flows and returns
one :class:`FlowBatch` that counts them down; :meth:`transfer` is a
batch of one.  The engines used to give every flow its own event and
wait on an ``AllOf`` barrier over them.  ``per_flow()`` below restores
that form as an oracle, and every engine run must be bit-identical
under it: same durations, kernel events, flow counts, job windows and
capacity traces.  The unit tests pin the batch's own contract.
"""

import contextlib
from dataclasses import asdict

import pytest

from repro.cluster.fluid import _EPS, Capacity, Flow, FlowBatch, FluidScheduler
from repro.cluster.simulation import Interrupt, Simulation
from repro.cluster.topology import Cluster
from repro.config.presets import wordcount_grep_preset
from repro.faults import (FaultPlan, FlinkRestartPolicy, RetryPolicy,
                          run_with_faults)
from repro.harness.runner import run_once
from repro.streaming import (PoissonArrivals, StreamingWorkloadModel,
                             max_stable_throughput, run_streaming)
from repro.workloads import WordCount
from repro.workloads.catalogue import WORKLOADS, build_config, build_workload

GiB = 2**30


def _per_flow_transfer_many(self, requests):
    """The per-flow form: each request started as ``transfer`` started
    a flow before batches, with an event of its own, and an ``AllOf``
    barrier over those events.  A one-flow :class:`FlowBatch` stands for
    each flow's event; it fires at the flow's completion, as that event
    did."""
    sim = self.sim
    events = []
    for size, capacities, rate_cap in requests:
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        done = FlowBatch(sim, 1)
        if size <= _EPS:
            # Zero-byte transfers complete immediately (next kernel step).
            sim._schedule(done, 0.0)
            done.value = 0.0
            events.append(done)
            continue
        flow = Flow(size, capacities, done, sim.now, rate_cap)
        self._flows.add(flow)
        self._insert_flow(flow)
        pending = self._pending
        if not pending:
            sim._unsettled.append(self)
        pending.append(flow)
        events.append(done)
    return sim.all_of(events)


@contextlib.contextmanager
def per_flow():
    """Start every ``transfer_many`` batch the per-flow way."""
    original = FluidScheduler.transfer_many
    FluidScheduler.transfer_many = _per_flow_transfer_many
    try:
        yield
    finally:
        FluidScheduler.transfer_many = original


@contextlib.contextmanager
def built_clusters():
    """Every cluster built inside the block, in build order."""
    built = []
    init = Cluster.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Cluster.__init__ = capture
    try:
        yield built
    finally:
        Cluster.__init__ = init


def simulated(cluster):
    """What one cluster simulated, as exact counts and trace bytes."""
    fluid = cluster.fluid
    traces = {}
    for node in cluster.nodes:
        for cap in (node.cpu, node.disk, node.nic_in, node.nic_out):
            traces[cap.name] = tuple(
                series.tobytes() for series in (
                    cap.throughput.times, cap.throughput.values,
                    cap.utilisation.times, cap.utilisation.values))
    return (repr(cluster.now), cluster.sim.steps_executed,
            fluid.completed_count, fluid.aborted_count, traces)


def both_paths(run):
    """``run()``'s summary and its clusters, batched and per flow."""
    out = []
    for mode in (contextlib.nullcontext, per_flow):
        with mode(), built_clusters() as clusters:
            summary = run()
        out.append((summary, [simulated(c) for c in clusters]))
    return out


# ---------------------------------------------------------------------
# differential: batched vs per-flow, bitwise
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("engine", ["spark", "flink"])
def test_engine_run_identical_to_per_flow_events(engine, name):
    workload = build_workload(name, 8, iterations=3, data_scale=0.25)
    config = build_config(name, 8)

    def run():
        result = run_once(engine, workload, config, seed=0,
                          keep_deployment=True)
        assert result.success, result.failure
        return (repr(result.duration), result.sim_events,
                [(j.name, repr(j.start), repr(j.end)) for j in result.jobs])

    batched, oracle = both_paths(run)
    assert batched == oracle


@pytest.mark.parametrize("engine", ["spark", "flink"])
def test_faulted_run_identical_to_per_flow_events(engine):
    """A crash mid-chunk aborts flows of live batches: the batch fails
    where the barrier did, and the recovery replays identically."""
    workload = WordCount(4 * 2 * GiB)
    config = wordcount_grep_preset(4)
    plan = FaultPlan.single_crash(0.5, node=1, restart_after=0.0)

    def run():
        faulted = run_with_faults(
            engine, workload, config, plan, seed=0,
            retry_policy=RetryPolicy(backoff=0.0),
            restart_policy=FlinkRestartPolicy(restart_delay=0.0),
            strict=True)
        assert faulted.success
        return repr(faulted.payload())

    batched, oracle = both_paths(run)
    assert batched == oracle
    assert sum(c[3] for c in batched[1]) > 0, "no flow was aborted"


@pytest.mark.parametrize("engine", ["flink", "spark"])
def test_strict_streaming_crash_identical_to_per_flow_events(engine):
    model = StreamingWorkloadModel()
    kwargs = {} if engine == "flink" else {"batch_interval": 1.0}
    rate = 0.5 * max_stable_throughput(model, 4, engine, **kwargs)

    def run():
        result = run_streaming(engine, PoissonArrivals(rate),
                               duration=16.0, nodes=4,
                               checkpoint_interval=4.0,
                               crash_times=[9.0], strict=True)
        assert result.crashed
        return repr(asdict(result))

    batched, oracle = both_paths(run)
    assert batched == oracle


# ---------------------------------------------------------------------
# the batch event
# ---------------------------------------------------------------------

def _setup():
    sim = Simulation()
    return sim, FluidScheduler(sim)


def test_batch_fires_once_after_its_last_flow():
    sim, fluid = _setup()
    a, b = Capacity("a", 100.0), Capacity("b", 100.0)
    fired = []
    seen = {}

    def proc():
        yield sim.timeout(1.0)
        batch = fluid.transfer_many([(100.0, (a,), None),
                                     (300.0, (b,), None),
                                     (0.0, (a,), None)])
        batch.callbacks.append(lambda evt: fired.append(sim.now))
        seen["value"] = yield batch
        seen["now"] = sim.now
        seen["remaining"] = batch.remaining

    sim.process(proc())
    sim.run()
    # The zero-byte member completes at t=1, the flow on ``a`` at t=2
    # and the one on ``b`` at t=4: the batch fires then, 3 s in.
    assert fired == [4.0]
    assert seen == {"value": 3.0, "now": 4.0, "remaining": 0}
    assert fluid.completed_count == 2
    fluid.assert_quiescent()


def test_one_flow_batch_value_is_the_flow_duration():
    sim, fluid = _setup()
    cap = Capacity("disk", 100.0)
    seen = []

    def proc():
        yield sim.timeout(2.0)
        seen.append((yield fluid.transfer(250.0, [cap])))

    sim.process(proc())
    sim.run()
    assert seen == [2.5]


def _run_batch(sizes):
    """Kernel steps, value and finish time of a process waiting on one
    batch with a flow of each size on one 100 B/s disk, and the number
    of kernel events the batch scheduled when it started."""
    sim, fluid = _setup()
    cap = Capacity("disk", 100.0)
    seen = []

    def proc():
        heap = len(sim._heap)
        batch = fluid.transfer_many([(size, (cap,), None) for size in sizes])
        seen.append(len(sim._heap) - heap)
        seen.append((yield batch))
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    return sim.steps_executed, seen


def test_zero_byte_member_makes_exactly_one_kernel_step():
    base_steps, base_seen = _run_batch([100.0])
    assert base_seen == [0, 1.0, 1.0]
    assert _run_batch([0.0, 100.0]) == (base_steps + 1, [1, 1.0, 1.0])
    assert _run_batch([100.0, 0.0, _EPS]) == (base_steps + 2,
                                              [2, 1.0, 1.0])
    # Only zero-byte members: the batch fires at its start instant, one
    # kernel step each after the process boots.
    assert _run_batch([0.0, 0.0]) == (3, [2, 0.0, 0.0])


def test_zero_byte_member_needs_no_capacity():
    sim, fluid = _setup()
    seen = []

    def proc():
        seen.append((yield fluid.transfer_many([(0.0, (), None)])))

    sim.process(proc())
    sim.run()
    assert seen == [0.0] and sim.steps_executed == 2


def test_aborted_member_fails_the_batch_once():
    sim, fluid = _setup()
    a, b = Capacity("a", 100.0), Capacity("b", 100.0)
    error = RuntimeError("node lost")
    outcome = {}

    def waiter():
        try:
            yield fluid.transfer_many([(100.0, (a,), None),
                                       (1000.0, (b,), None),
                                       (1000.0, (b,), None)])
        except RuntimeError as err:
            outcome["error"] = (err, sim.now)

    def fault():
        yield sim.timeout(0.5)
        outcome["aborted"] = fluid.abort_flows(
            fluid.flows_on([b])[:1], error)
        yield sim.timeout(0.5)
        # The other flow on ``b`` dies too, after the member on ``a``
        # completed: the batch has already failed and stays failed.
        outcome["aborted_later"] = fluid.abort_flows(
            fluid.flows_on([b]), RuntimeError("again"))

    sim.process(waiter())
    sim.process(fault())
    sim.run()
    assert outcome == {"error": (error, 0.5), "aborted": 1,
                       "aborted_later": 1}
    assert fluid.completed_count == 1
    assert fluid.aborted_count == 2
    fluid.assert_quiescent()


def test_interrupted_waiter_leaves_the_batch_running():
    sim, fluid = _setup()
    a, b = Capacity("a", 100.0), Capacity("b", 100.0)
    fired = []
    outcome = {}

    def waiter():
        batch = fluid.transfer_many([(100.0, (a,), None),
                                     (300.0, (b,), None)])
        batch.callbacks.append(lambda evt: fired.append(sim.now))
        try:
            yield batch
        except Interrupt as intr:
            outcome["interrupted"] = (intr.cause, sim.now)

    proc = sim.process(waiter())

    def interrupter():
        yield sim.timeout(0.5)
        proc.interrupt("stop")

    sim.process(interrupter())
    sim.run()
    assert outcome == {"interrupted": ("stop", 0.5)}
    assert fired == [3.0]
    assert fluid.completed_count == 2
    fluid.assert_quiescent()


@pytest.mark.parametrize("requests", [
    lambda cap: [],
    lambda cap: [(100.0, (cap,), None), (-1.0, (cap,), None)],
    lambda cap: [(0.0, (cap,), None), (100.0, (cap,), None),
                 (5.0, (), None)],
], ids=["empty", "negative-size", "no-capacity"])
def test_invalid_batch_starts_no_flow(requests):
    sim, fluid = _setup()
    cap = Capacity("disk", 100.0)
    with pytest.raises(ValueError):
        fluid.transfer_many(requests(cap))
    assert fluid._pending == [] and sim._unsettled == []
    assert sim._heap == [] and not cap.flows
    assert fluid.active_flows == 0


def test_transfer_and_transfer_many_do_not_call_each_other(monkeypatch):
    """Both go through one starter, so a wrapper counting flows on
    either counts each flow once."""
    def refused(*args, **kwargs):
        raise AssertionError("called through the other entry point")

    sim, fluid = _setup()
    cap = Capacity("disk", 100.0)
    monkeypatch.setattr(FluidScheduler, "transfer_many", refused)
    fluid.transfer(100.0, [cap])
    monkeypatch.undo()
    monkeypatch.setattr(FluidScheduler, "transfer", refused)
    fluid.transfer_many([(100.0, (cap,), None)])
    sim.run()
    assert fluid.completed_count == 2

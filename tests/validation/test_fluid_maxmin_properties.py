"""Seeded-random property tests for the max–min fair allocator.

Deliberately **stdlib-only** (``random.Random``): these properties guard
the allocator the invariant checker itself relies on, so they must not
depend on optional test libraries.  Three properties over random
flow/capacity topologies:

* **work conservation / bottleneck saturation** — every flow is either
  frozen at its own rate cap or crosses a saturated capacity on which
  its rate is maximal (the classical max–min characterisation);
* **feasibility** — no capacity is oversubscribed, no rate is negative,
  no flow exceeds its cap;
* **uniqueness** — the max–min allocation is unique, so the rates must
  not depend on flow insertion order, and an independently written
  O(n²) progressive-filling reference must agree within 1e-9.
"""

import math
import random

import pytest

from repro.cluster.fluid import Capacity, FluidScheduler
from repro.cluster.simulation import Simulation

REL_TOL = 1e-9
HUGE = 1e15  # flow sizes large enough that nothing completes at t=0


def build_scenario(seed):
    """Random capacities and flow specs, stdlib RNG only."""
    rng = random.Random(seed)
    num_caps = rng.randint(1, 6)
    cap_specs = []
    for i in range(num_caps):
        bandwidth = rng.uniform(1.0, 500.0)
        alpha = rng.choice([0.0, 0.0, 0.0, rng.uniform(0.1, 1.0)])
        cap_specs.append((f"cap-{i}", bandwidth, alpha))
    num_flows = rng.randint(1, 12)
    flow_specs = []
    for _ in range(num_flows):
        k = rng.randint(1, num_caps)
        route = rng.sample(range(num_caps), k)
        rate_cap = rng.uniform(0.5, 300.0) if rng.random() < 0.4 else None
        flow_specs.append((route, rate_cap))
    return cap_specs, flow_specs


def allocate(cap_specs, flow_specs, order=None):
    """Run the real scheduler; returns (rates in spec order, capacities)."""
    sim = Simulation()
    sched = FluidScheduler(sim)
    caps = [Capacity(name, bw, contention_alpha=alpha)
            for name, bw, alpha in cap_specs]
    order = list(range(len(flow_specs))) if order is None else order
    flows_by_spec = {}
    for spec_idx in order:
        route, rate_cap = flow_specs[spec_idx]
        before = set(sched._flows)
        sched.transfer(HUGE, [caps[i] for i in route], rate_cap=rate_cap)
        (new_flow,) = set(sched._flows) - before
        flows_by_spec[spec_idx] = new_flow
    sched.settle()
    rates = [flows_by_spec[i].rate for i in range(len(flow_specs))]
    return rates, caps


def reference_max_min(cap_specs, flow_specs, effective_bw):
    """Independent O(n^2) progressive filling over the same scenario."""
    n = len(flow_specs)
    rates = [0.0] * n
    unfrozen = set(range(n))
    residual = dict(effective_bw)
    load = {c: 0 for c in residual}
    for route, _cap in flow_specs:
        for c in route:
            load[c] += 1
    while unfrozen:
        shares = [(residual[c] / load[c], c) for c in sorted(load)
                  if load[c] > 0]
        best_share, best_cap = min(shares) if shares else (math.inf, None)
        capped = [i for i in unfrozen
                  if flow_specs[i][1] is not None
                  and flow_specs[i][1] < best_share - 1e-12]
        if capped:
            level = min(flow_specs[i][1] for i in capped)
            frozen = [i for i in capped if flow_specs[i][1] <= level + 1e-12]
            freeze_rate = level
        elif best_cap is not None:
            frozen = [i for i in unfrozen if best_cap in flow_specs[i][0]]
            freeze_rate = best_share
        else:  # pragma: no cover - every flow has a route
            break
        for i in frozen:
            rates[i] = freeze_rate
            unfrozen.discard(i)
            for c in flow_specs[i][0]:
                residual[c] = max(0.0, residual[c] - freeze_rate)
                load[c] -= 1
    return rates


def close(a, b, scale=1.0):
    return abs(a - b) <= REL_TOL * max(1.0, scale, abs(a), abs(b))


@pytest.mark.parametrize("seed", range(40))
def test_allocation_is_feasible_and_max_min_fair(seed):
    cap_specs, flow_specs = build_scenario(seed)
    rates, caps = allocate(cap_specs, flow_specs)

    cap_rate = {c.name: sum(f.rate for f in c.flows) for c in caps}
    eff = {c.name: c.effective_bandwidth() for c in caps}
    for c in caps:
        assert cap_rate[c.name] <= eff[c.name] * (1 + REL_TOL) + REL_TOL, \
            f"{c.name} oversubscribed"

    for i, ((route, rate_cap), rate) in enumerate(zip(flow_specs, rates)):
        assert rate >= -REL_TOL, f"flow {i} negative rate"
        if rate_cap is not None:
            assert rate <= rate_cap * (1 + REL_TOL) + REL_TOL
            if close(rate, rate_cap, rate_cap):
                continue  # frozen at its own cap: fair by definition
        # Work conservation / bottleneck saturation: some traversed
        # capacity is saturated and this flow's rate is maximal on it.
        bottlenecked = False
        for ci in route:
            name = cap_specs[ci][0]
            cap = next(c for c in caps if c.name == name)
            saturated = cap_rate[name] >= eff[name] * (1 - REL_TOL) - REL_TOL
            max_on_cap = max(f.rate for f in cap.flows)
            if saturated and rate >= max_on_cap * (1 - REL_TOL) - REL_TOL:
                bottlenecked = True
                break
        assert bottlenecked, (
            f"seed {seed}: flow {i} (rate {rate}, cap {rate_cap}) is "
            f"neither capped nor bottlenecked")


@pytest.mark.parametrize("seed", range(20))
def test_allocation_is_unique_under_insertion_order(seed):
    cap_specs, flow_specs = build_scenario(seed)
    baseline, _ = allocate(cap_specs, flow_specs)
    rng = random.Random(seed + 10_000)
    for _ in range(3):
        order = list(range(len(flow_specs)))
        rng.shuffle(order)
        shuffled, _ = allocate(cap_specs, flow_specs, order=order)
        for i, (a, b) in enumerate(zip(baseline, shuffled)):
            assert close(a, b, max(abs(x) for x in baseline) or 1.0), (
                f"seed {seed}: flow {i} rate {b} != {a} after reordering "
                f"(max-min allocation must be unique)")


@pytest.mark.parametrize("seed", range(20))
def test_scheduler_matches_independent_reference(seed):
    cap_specs, flow_specs = build_scenario(seed)
    rates, caps = allocate(cap_specs, flow_specs)
    # The reference needs the same effective bandwidths the scheduler
    # saw (contention alpha depends on final flow counts).
    effective = {i: next(c for c in caps if c.name == name).effective_bandwidth()
                 for i, (name, _bw, _a) in enumerate(cap_specs)}
    expected = reference_max_min(cap_specs, flow_specs, effective)
    scale = max([abs(x) for x in expected] + [1.0])
    for i, (got, want) in enumerate(zip(rates, expected)):
        assert close(got, want, scale), (
            f"seed {seed}: flow {i} rate {got} != reference {want}")


def test_deterministic_rates_across_runs():
    cap_specs, flow_specs = build_scenario(seed=7)
    first, _ = allocate(cap_specs, flow_specs)
    second, _ = allocate(cap_specs, flow_specs)
    assert first == second  # bitwise identical, not just close

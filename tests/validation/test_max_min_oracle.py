"""The max–min verdict against a reference copy of the general audit.

``reference_check_max_min`` is the audit as it stood before the checker
gained its one-pass form and its scalar verdict for one-flow
components, kept verbatim as the oracle.  Over random topologies
(built and solved by the real scheduler) and seven corruptions of one
flow's rate, both must record the same messages and counters, for the
whole flow set and for every flow audited as a one-flow component.
Stdlib-only, like the allocator properties it borrows from.
"""

import random
from collections import Counter

import pytest

from repro.validation import InvariantChecker

from .test_fluid_maxmin_properties import allocate, build_scenario


def reference_check_max_min(self, scheduler, component) -> None:
    """The general audit, kept as the oracle (``self`` is a checker)."""
    self.checks["max_min"] += 1
    tol = self.tolerance
    caps = set()
    for flow in component:
        caps.update(flow.capacities)

    cap_rate = {}
    saturated = {}
    max_rate_on = {}
    for cap in caps:
        total = sum(f.rate for f in cap.flows)
        eff = cap.effective_bandwidth()
        slack = tol * max(1.0, eff)
        cap_rate[cap] = total
        saturated[cap] = total >= eff - slack
        max_rate_on[cap] = max((f.rate for f in cap.flows), default=0.0)
        if total > eff + slack:
            self._record(
                f"fluid: capacity {cap.name} oversubscribed: "
                f"{total} > effective bandwidth {eff}")

    for flow in component:
        rate_slack = tol * max(1.0, flow.rate)
        if flow.rate < -rate_slack:
            self._record(f"fluid: flow #{flow.id} has negative rate "
                         f"{flow.rate}")
            continue
        if flow.rate_cap is not None:
            cap_slack = tol * max(1.0, flow.rate_cap)
            if flow.rate > flow.rate_cap + cap_slack:
                self._record(
                    f"fluid: flow #{flow.id} rate {flow.rate} exceeds "
                    f"its cap {flow.rate_cap}")
            if flow.rate >= flow.rate_cap - cap_slack:
                continue  # frozen at its own cap: max-min satisfied
        bottlenecked = any(
            saturated[cap] and
            flow.rate >= max_rate_on[cap] - tol * max(1.0, max_rate_on[cap])
            for cap in flow.capacities)
        if not bottlenecked:
            self._record(
                f"fluid: flow #{flow.id} (rate {flow.rate}, cap "
                f"{flow.rate_cap}) is neither capped nor bottlenecked "
                f"— allocation is not max-min fair / work-conserving")


def _above_cap(flow, rng):
    if flow.rate_cap is None:
        flow.rate_cap = flow.rate * rng.uniform(0.1, 0.9)
    flow.rate = flow.rate_cap * rng.uniform(1.01, 3.0) + 1.0


def _scale(low, high, nudge):
    # Half the scalings land within a relative 1e-7 or 1e-5 of the
    # solved rate: either side of the checker's 1e-6 tolerance.
    def corrupt(flow, rng):
        factor = rng.choice((1.0 + nudge * 0.1, 1.0 + nudge * 10.0,
                             rng.uniform(low, high), rng.uniform(low, high)))
        flow.rate = flow.rate * factor
    return corrupt


CORRUPTIONS = {
    "none": lambda flow, rng: None,
    "scaled_up": _scale(1.01, 3.0, 1e-6),
    "scaled_down": _scale(0.0, 0.99, -1e-6),
    "zero": lambda flow, rng: setattr(flow, "rate", 0.0),
    "negative": lambda flow, rng: setattr(
        flow, "rate", -rng.uniform(0.001, 1.0) * max(flow.rate, 1.0)),
    "nan": lambda flow, rng: setattr(flow, "rate", float("nan")),
    "above_cap": _above_cap,
}


def _audit_both(new, ref, component):
    new.check_max_min(None, component)
    reference_check_max_min(ref, None, component)
    assert new.checks == ref.checks
    assert (len(new.violations) + new.suppressed
            == len(ref.violations) + ref.suppressed)
    if len(ref.violations) < InvariantChecker.MAX_RECORDED:
        assert Counter(new.violations) == Counter(ref.violations)


SEEDS = range(300)


@pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
def test_verdict_matches_the_reference_audit(mode):
    corrupt = CORRUPTIONS[mode]
    tripped = 0
    for seed in SEEDS:
        cap_specs, flow_specs = build_scenario(seed)
        _rates, caps = allocate(cap_specs, flow_specs)
        flows = sorted({f for cap in caps for f in cap.flows},
                       key=lambda f: f.id)
        rng = random.Random(seed)
        victim = rng.choice(flows)
        saved = (victim.rate, victim.rate_cap)
        corrupt(victim, rng)
        new, ref = InvariantChecker(), InvariantChecker()
        _audit_both(new, ref, set(flows))
        for flow in flows:
            _audit_both(new, ref, (flow,))
        tripped += not ref.clean
        victim.rate, victim.rate_cap = saved
    if mode == "none":
        assert tripped == 0
    elif mode in ("negative", "nan", "above_cap"):
        assert tripped == len(SEEDS)
    else:
        assert tripped > 0

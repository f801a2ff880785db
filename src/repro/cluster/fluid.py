"""Fluid-flow model of shared bandwidth resources (disks, NIC links).

Bulk data movement in the cluster simulator is not modelled packet by
packet; instead each transfer is a *flow* with a remaining byte count
that drains at a rate determined by **progressive-filling max–min fair
sharing** across every capacity the flow traverses (e.g. the source
disk, the source NIC and the destination NIC).  This is the classical
fluid approximation used by datacenter simulators: whenever the set of
active flows changes, all flow rates are recomputed and the next flow
completion is rescheduled.

Max–min fair allocation: repeatedly find the most contended capacity,
give each of its unfrozen flows an equal share of its remaining
bandwidth, freeze those flows, and subtract what they consume
everywhere else.  The result is work-conserving and unique.

Each :class:`Capacity` records two traces: its *throughput* (bytes/s
currently allocated) and its *utilisation* (allocated / bandwidth, in
percent) — these become the "Disk util %", "I/O MiB/s" and
"Network MiB/s" panels of the paper's resource figures.  Tracing is
controlled by the scheduler's ``trace_detail``: ``"full"`` records every
rate change, ``"off"`` nothing — sweeps that need only durations skip
the trace cost entirely.

Scale: one solve per simulated instant.  :meth:`FluidScheduler.transfer`
queues its new flow instead of solving; the kernel calls
:meth:`FluidScheduler.settle` before the clock advances, before the
scheduler's wakeup is dispatched and before ``run`` returns, and the
public readers of flow state settle first too.  However many processes
start flows in one instant (all 200 nodes of an HDFS write starting
their replication pipelines), the instant gets one
:meth:`FluidScheduler._reallocate_many` pass.  That pass, like the one a
wakeup makes for the flows it finishes, resolves every affected
component once, solves all single-flow components together — through a
numpy array pass when the batch is large enough — and refreshes the
kernel wakeup a single time.  Each settle sees the membership and the
drained bytes the last per-arrival solve of its instant would have
seen, so rates, finish times and event counts do not depend on how an
instant's arrivals are grouped.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .simulation import Event, Simulation, SimulationError, Wakeup
from .trace import StepSeries

__all__ = ["Capacity", "Flow", "FluidScheduler", "TRACE_DETAIL_MODES"]

_EPS = 1e-12

#: Valid ``trace_detail`` settings.
TRACE_DETAIL_MODES = ("full", "off")

#: Minimum number of single-flow components in one batch before the
#: numpy solve pays for its gather/scatter; below it the scalar loop is
#: faster.  Both produce bit-identical rates (see _solve_singles_array).
_VEC_MIN_SINGLES = 8


class Capacity:
    """A shared bandwidth resource (one disk, one NIC direction, ...).

    ``contention_alpha`` models seek thrash on spinning disks: with
    ``n`` concurrent streams the device delivers only
    ``bandwidth / (1 + alpha * (n - 1))`` in aggregate.  Networks keep
    the default 0 (switches do not seek); single disks suffer badly —
    the mechanism behind the paper's slow, interference-ridden Tera
    Sort and Flink's pipelined-execution variance (§VI-C).
    """

    __slots__ = ("name", "bandwidth", "flows", "throughput", "utilisation",
                 "contention_alpha", "bw_high_water", "last_rate")

    def __init__(self, name: str, bandwidth: float,
                 contention_alpha: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if contention_alpha < 0:
            raise ValueError("contention_alpha must be >= 0")
        self.name = name
        self.bandwidth = float(bandwidth)  # bytes / second
        #: Largest bandwidth this capacity ever had.  Fault injection
        #: rescales ``bandwidth`` mid-run; post-run trace audits bound
        #: throughput by the high-water mark, not the (possibly still
        #: degraded) final value.
        self.bw_high_water = float(bandwidth)
        self.contention_alpha = contention_alpha
        self.flows: Set["Flow"] = set()
        self.throughput = StepSeries()   # bytes/s allocated
        self.utilisation = StepSeries()  # percent of bandwidth
        #: Aggregate rate as of the last ``_record*`` call.  Lets the
        #: scheduler's hot paths skip the record entirely when the rate
        #: is unchanged — the resulting series are identical because
        #: :meth:`StepSeries.append` collapses equal-value runs anyway.
        #: (Every rate change goes through a ``_record*`` call, so this
        #: mirror never goes stale while tracing is on.)
        self.last_rate: float = 0.0

    def effective_bandwidth(self) -> float:
        n = len(self.flows)
        if n <= 1 or self.contention_alpha == 0.0:
            return self.bandwidth
        return self.bandwidth / (1.0 + self.contention_alpha * (n - 1))

    def _record(self, now: float) -> None:
        # The two appends are inlined (see StepSeries.append): this runs
        # once per touched capacity per reallocation and the call
        # overhead is measurable on large runs.  Timestamps are monotone
        # by construction (the scheduler always records at sim.now).
        flows = self.flows
        nf = len(flows)
        if nf == 1:
            # sum([x]) is 0 + x, which is exact for the non-negative
            # rates the solver produces — skip the list build.
            f, = flows
            rate = f.rate
        elif nf == 0:
            rate = sum(())  # int 0, matching the historical idle value
        else:
            rate = sum([f.rate for f in flows])
        self.last_rate = rate
        series = self.throughput
        times = series.times
        values = series.values
        if times:
            if now == times[-1]:
                values[-1] = rate
            elif values[-1] != rate:
                times.append(now)
                values.append(rate)
            else:
                # Collapsed: the rate (and bandwidth) are unchanged since
                # the last record, so the utilisation append would collapse
                # to the same value too — skip computing it.
                return
        elif rate != series.initial:
            times.append(now)
            values.append(rate)
        else:
            return
        util = min(100.0, 100.0 * rate / self.bandwidth)
        series = self.utilisation
        times = series.times
        values = series.values
        if times:
            if now == times[-1]:
                values[-1] = util
            elif values[-1] != util:
                times.append(now)
                values.append(util)
        elif util != series.initial:
            times.append(now)
            values.append(util)

    def _record_rate(self, now: float, rate: float) -> None:
        """Exact twin of :meth:`_record` for a rate the caller knows.

        Single-flow fast paths know the aggregate (the lone flow's rate)
        without touching the flow set; they also consult ``last_rate``
        first and skip the call entirely when nothing changed.
        """
        self.last_rate = rate
        series = self.throughput
        times = series.times
        values = series.values
        if times:
            if now == times[-1]:
                values[-1] = rate
            elif values[-1] != rate:
                times.append(now)
                values.append(rate)
            else:
                return
        elif rate != series.initial:
            times.append(now)
            values.append(rate)
        else:
            return
        util = min(100.0, 100.0 * rate / self.bandwidth)
        series = self.utilisation
        times = series.times
        values = series.values
        if times:
            if now == times[-1]:
                values[-1] = util
            elif values[-1] != util:
                times.append(now)
                values.append(util)
        elif util != series.initial:
            times.append(now)
            values.append(util)

    def __repr__(self) -> str:
        return f"Capacity({self.name!r}, bw={self.bandwidth:.3g}, flows={len(self.flows)})"


class _Component:
    """Cached connected component of the capacity/flow sharing graph.

    ``flows`` is exact while ``dirty`` is False.  Flow *arrivals* keep
    components exact (a new flow merges the components it bridges);
    flow *removals* may split a component, so they mark it dirty and the
    next reallocation re-derives the exact membership with one graph
    traversal instead of one per event.
    """

    __slots__ = ("flows", "dirty")

    def __init__(self, flows: Set["Flow"]) -> None:
        self.flows = flows
        self.dirty = False


class Flow:
    """A bulk transfer of ``size`` bytes across one or more capacities."""

    __slots__ = ("id", "size", "remaining", "capacities", "rate", "done",
                 "started_at", "last_update", "rate_cap", "rate_stamp",
                 "comp", "heap_finish", "prev_rate")

    _ids = itertools.count()

    def __init__(self, size: float, capacities: Sequence[Capacity],
                 done: Event, now: float, rate_cap: Optional[float] = None) -> None:
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if not capacities:
            raise ValueError("flow must traverse at least one capacity")
        self.id = next(Flow._ids)
        self.size = float(size)
        self.remaining = float(size)
        self.capacities = tuple(capacities)
        self.rate = 0.0
        #: Rate at the start of the last contended solve — scratch used
        #: by :meth:`FluidScheduler._solve_multi` to detect which flows
        #: (and therefore which capacity aggregates) actually moved.
        self.prev_rate = 0.0
        self.done = done
        self.started_at = now
        self.last_update = now
        # Optional per-flow cap (e.g. a single reader thread can not pull
        # faster than the producing pipeline emits).
        self.rate_cap = rate_cap
        # Bumped whenever a new finish-heap entry supersedes the old one;
        # stale heap entries carry an older stamp and are skipped.
        self.rate_stamp = 0
        #: Cached connected component this flow belongs to.
        self.comp: Optional[_Component] = None
        #: Finish time of this flow's current *valid* heap entry
        #: (``inf`` when it has none) — lets reallocations that do not
        #: change the finish estimate keep the existing entry instead of
        #: pushing a duplicate.
        self.heap_finish = math.inf

    def __repr__(self) -> str:
        return (f"Flow(#{self.id}, size={self.size:.3g}, "
                f"remaining={self.remaining:.3g}, rate={self.rate:.3g})")


class FluidScheduler:
    """Owns all active flows and keeps their completion events on time.

    Scalability: recomputing every flow on every change is O(F·R) per
    event and dominates large-cluster simulations.  Since most flows
    touch only the capacities of one node, rate changes propagate only
    within the *connected component* of the capacity/flow graph that
    the changed flow belongs to.  Components are cached (exact merge on
    arrival, lazy re-derivation after removals), completions are tracked
    with a lazy heap keyed by each flow's current finish estimate, and
    single-flow components take a closed-form fast path through the
    max–min solver.  Arrivals are queued and settled once per instant;
    the settle and the wakeup handler both go through
    :meth:`_reallocate_many`, which resolves all affected components once
    and solves the single-flow ones together — via one numpy pass for
    large batches — with bit-identical results.
    """

    def __init__(self, sim: Simulation, trace_detail: str = "full") -> None:
        if trace_detail not in TRACE_DETAIL_MODES:
            raise ValueError(
                f"trace_detail must be one of {TRACE_DETAIL_MODES}, "
                f"got {trace_detail!r}")
        self.sim = sim
        self.trace_detail = trace_detail
        self._flows: Set[Flow] = set()
        self._finish_heap: List = []  # (finish_time, flow_id, flow, rate_stamp)
        #: Flows started at ``sim.now`` and not yet solved, in start order.
        self._pending: List[Flow] = []
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf
        self.completed_count = 0
        self.aborted_count = 0
        self.total_bytes_moved = 0.0
        #: Completed bytes per capacity name (conservation ledger).
        self.bytes_by_capacity: Dict[str, float] = {}
        #: Optional :class:`repro.validation.InvariantChecker`; when set,
        #: every max–min reallocation is audited for fairness on the spot.
        self.checker = None
        #: Optional callback ``(flow, now)`` invoked for every flow that
        #: completes, after rates are consistent but before completion
        #: events are delivered.  Used by the span tracer's flow-detail
        #: mode; it must only *read* the flow (no scheduling).
        self.flow_hook = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def transfer(self, size: float, capacities: Sequence[Capacity],
                 rate_cap: Optional[float] = None) -> Event:
        """Start a flow; returns an event that fires when it completes.

        The flow joins its capacities and component at once, but its
        rate is solved by the next :meth:`settle`, together with every
        other flow started in this instant.
        """
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        sim = self.sim
        done = Event(sim)
        if size <= _EPS:
            # Zero-byte transfers complete immediately (next kernel step).
            sim._schedule(done, 0.0)
            done.value = 0.0
            return done
        flow = Flow(size, capacities, done, sim.now, rate_cap)
        self._flows.add(flow)
        self._insert_flow(flow)
        pending = self._pending
        if not pending:
            sim._unsettled.append(self)
        pending.append(flow)
        return done

    def transfer_many(self, requests) -> List[Event]:
        """:meth:`transfer` once per ``(size, capacities[, rate_cap])``.

        Nothing in the package calls it; ``bench/layers.py`` wraps it by
        name to count flows.
        """
        return [self.transfer(*request) for request in requests]

    def settle(self) -> None:
        """Solve the flows started in this instant: one max–min pass."""
        pending = self._pending
        if pending:
            self._pending = []
            self.sim._unsettled.remove(self)
            self._reallocate_many(pending)

    @property
    def active_flows(self) -> int:
        self.settle()
        return len(self._flows)

    def flows_on(self, capacities: Sequence[Capacity]) -> List[Flow]:
        """Active flows crossing any of the given capacities (id order)."""
        self.settle()
        hit = {f for cap in capacities for f in cap.flows}
        return sorted(hit, key=lambda f: f.id)

    def rescale_capacity(self, cap: Capacity, bandwidth: float) -> None:
        """Change a capacity's bandwidth *mid-run* (fault injection).

        Active flows crossing the capacity are immediately re-allocated
        at the new bandwidth — the fluid equivalent of a disk entering a
        degraded mode or a NIC being throttled.  Restoration is the same
        call with the original bandwidth.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.settle()
        cap.bandwidth = float(bandwidth)
        cap.bw_high_water = max(cap.bw_high_water, cap.bandwidth)
        if cap.flows:
            # The bandwidth changed, so the utilisation trace must be
            # re-recorded even at an unchanged rate: poison the cached
            # aggregate so the fast paths cannot skip the record.
            cap.last_rate = math.nan
            self._reallocate_many([next(iter(cap.flows))])
        else:
            self._record_cap(cap, self.sim.now)

    def abort_flows(self, flows: Sequence[Flow],
                    error: BaseException) -> int:
        """Abort active flows: their ``done`` events *fail* with ``error``.

        Bytes already drained stay on the conservation ledger (the work
        physically happened before the fault); the remaining bytes are
        dropped.  Survivor flows sharing a capacity are re-allocated.
        Returns the number of flows actually aborted.
        """
        self.settle()
        now = self.sim.now
        aborted: List[Flow] = []
        for flow in flows:
            if flow not in self._flows:
                continue
            dt = now - flow.last_update
            if dt > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            flow.last_update = now
            self._flows.discard(flow)
            self._drop_from_component(flow)
            progress = flow.size - flow.remaining
            for cap in flow.capacities:
                cap.flows.discard(flow)
                if progress > 0:
                    self.bytes_by_capacity[cap.name] = (
                        self.bytes_by_capacity.get(cap.name, 0.0) + progress)
            self.aborted_count += 1
            aborted.append(flow)
        # Survivors in the released neighbourhoods pick up the freed
        # bandwidth: one batched pass over the distinct components.
        neighbours: List[Flow] = []
        for flow in aborted:
            for cap in flow.capacities:
                neighbours.extend(cap.flows)
        if neighbours:
            self._reallocate_many(neighbours)
        for flow in aborted:
            for cap in flow.capacities:
                if not cap.flows:
                    self._record_cap(cap, now)
        for flow in aborted:
            if not flow.done.triggered:
                flow.done.fail(error)
        self._refresh_wakeup()
        return len(aborted)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _insert_flow(self, flow: Flow) -> None:
        """Register ``flow`` on its capacities and merge components.

        A clean merge leaves the component exact; a stale neighbour
        gives the flow a dirty component the next solve re-derives.
        Does *not* reallocate.
        """
        # An arriving flow bridges the components of every flow it now
        # shares a capacity with; if they are all exact, their union plus
        # the new flow is exactly the new component (no traversal).
        comps: Set[_Component] = set()
        clean = True
        for cap in flow.capacities:
            for f in cap.flows:
                c = f.comp
                comps.add(c)
                if c.dirty:
                    clean = False
        for cap in flow.capacities:
            cap.flows.add(flow)
        if clean and len(comps) <= 1:
            if comps:
                comp = comps.pop()
                comp.flows.add(flow)
            else:
                comp = _Component({flow})
            flow.comp = comp
            return
        if clean:
            # Merge into the largest neighbour component.
            big = max(comps, key=lambda c: len(c.flows))
            for c in comps:
                if c is big:
                    continue
                big.flows.update(c.flows)
                for f in c.flows:
                    f.comp = big
            big.flows.add(flow)
            flow.comp = big
            return
        # A neighbour component is stale; re-derive lazily.
        comp = _Component({flow})
        comp.dirty = True
        flow.comp = comp

    @staticmethod
    def _component_of(seed: Flow) -> Set[Flow]:
        """Flows transitively sharing a capacity with ``seed``."""
        flows: Set[Flow] = {seed}
        cap_stack = list(seed.capacities)
        seen_caps: Set[Capacity] = set(seed.capacities)
        while cap_stack:
            cap = cap_stack.pop()
            for f in cap.flows:
                if f not in flows:
                    flows.add(f)
                    for c in f.capacities:
                        if c not in seen_caps:
                            seen_caps.add(c)
                            cap_stack.append(c)
        return flows

    def _component_for(self, seed: Flow) -> Set[Flow]:
        """Exact component membership for ``seed``, via the cache."""
        comp = seed.comp
        if comp is not None and not comp.dirty:
            return comp.flows
        members = self._component_of(seed)
        fresh = _Component(members)
        for f in members:
            old = f.comp
            if old is not None and old is not fresh:
                old.flows.discard(f)
            f.comp = fresh
        return members

    @staticmethod
    def _drop_from_component(flow: Flow) -> None:
        """Remove a finished/aborted flow from its cached component."""
        comp = flow.comp
        if comp is None:
            return
        comp.flows.discard(flow)
        if len(comp.flows) > 1:
            # The removal may have split the component; membership is
            # re-derived on the next reallocation that touches it.
            comp.dirty = True
        flow.comp = None

    def _record_cap(self, cap: Capacity, now: float) -> None:
        if self.trace_detail == "full":
            cap._record(now)

    def _reallocate_many(self, seeds: Sequence[Flow],
                         refresh: bool = True) -> None:
        """Recompute every distinct component touching ``seeds`` at once.

        The one solve path.  One fused pass: drain every flow's
        remaining bytes up to now, run the max–min solver, refresh the
        finish-heap entries and record the touched capacities' traces.
        Affected components are resolved once (duplicate seeds and
        already-finished flows are skipped), single-flow components are
        solved together — in one numpy pass for large batches — multi-
        flow components go through the exact progressive-filling solver,
        and the kernel wakeup is refreshed a single time at the end.
        Components are disjoint, so solving them in any grouping yields
        the same rates.  ``refresh=False`` lets a caller that refreshes
        the kernel wakeup itself (the wakeup handler) skip the
        intermediate refresh.
        """
        now = self.sim.now
        flows = self._flows
        seen: Set[Flow] = set()
        singles: List[Flow] = []
        multis: List[Set[Flow]] = []
        # Every seed's capacities are force-recorded: seeds are exactly
        # the flows on capacities whose membership just changed (a
        # completion's survivors, a fresh insert), so their aggregates
        # must be re-read even when no surviving rate moved.  Singleton
        # seeds are force-marked too — their capacities carry no other
        # flow, so they can never appear in a multi component's record
        # list and the extra entries are inert.
        force: Set[Capacity] = set()
        for seed in seeds:
            if seed not in flows:
                continue
            if seed in seen:
                force.update(seed.capacities)
                continue
            component = self._component_for(seed)
            seen.update(component)
            if len(component) == 1:
                singles.append(seed)
            else:
                multis.append(component)
                force.update(seed.capacities)
        checker = self.checker
        full = self.trace_detail == "full"
        if singles:
            heap = self._finish_heap
            inf = math.inf
            push = heapq.heappush
            vec = len(singles) >= _VEC_MIN_SINGLES
            if vec:
                self._solve_singles_array(singles, now)
            # One fused pass per flow: solve (unless vectorized above),
            # audit, refresh the finish-heap entry and record the trace.
            # Singles are disjoint components, so per-flow fusion is
            # observably identical to the stage-by-stage order.
            for flow in singles:
                if not vec:
                    # Drain, then the closed-form max–min solve: the lone
                    # flow gets the tightest of its capacities, bounded
                    # by its rate cap.  Duplicate capacities cannot
                    # change a min, so the raw tuple needs no set.  The
                    # scalar reference for _solve_singles_array.
                    dt = now - flow.last_update
                    if dt > 0:
                        rem = flow.remaining - flow.rate * dt
                        flow.remaining = rem if rem > 0.0 else 0.0
                    flow.last_update = now
                    best_share = inf
                    for cap in flow.capacities:
                        # effective_bandwidth(), inlined.
                        share = cap.bandwidth
                        nf = len(cap.flows)
                        if nf > 1 and cap.contention_alpha != 0.0:
                            share = share / (
                                1.0 + cap.contention_alpha * (nf - 1))
                        if share < best_share - _EPS:
                            best_share = share
                    rate_cap = flow.rate_cap
                    if rate_cap is not None and rate_cap < best_share - _EPS:
                        flow.rate = rate_cap
                    else:
                        flow.rate = best_share
                if checker is not None:
                    checker.check_max_min(self, (flow,))
                # _update_finish, inlined.
                rate = flow.rate
                remaining = flow.remaining
                if rate > _EPS:
                    finish = now + remaining / rate
                elif remaining <= _EPS:
                    finish = now
                else:
                    finish = inf
                if finish == inf:
                    if flow.heap_finish != inf:
                        flow.rate_stamp += 1
                        flow.heap_finish = inf
                elif finish != flow.heap_finish:
                    flow.rate_stamp += 1
                    flow.heap_finish = finish
                    push(heap, (finish, flow.id, flow, flow.rate_stamp))
                if full:
                    for cap in flow.capacities:
                        if rate != cap.last_rate:
                            cap._record_rate(now, rate)
        for component in multis:
            touched = self._solve_multi(component, now, force)
            if checker is not None:
                checker.check_max_min(self, component)
            self._update_finish(component, now)
            if full:
                for cap in touched:
                    cap._record(now)
        if refresh:
            self._refresh_wakeup()

    @staticmethod
    def _solve_singles_array(singles: List[Flow], now: float) -> None:
        """Vectorized singleton solve of :meth:`_reallocate_many`.

        Every floating-point operation mirrors the scalar loop — the
        drain is the same subtract/clamp per element, and the capacity
        min is the same EPS-guarded running comparison applied column-
        wise (``where(share < best - EPS, share, best)``), so each
        flow sees its capacities in the same order with the same
        comparisons.  numpy's elementwise double arithmetic is IEEE-754
        identical to CPython's scalar arithmetic, which makes the two
        paths bit-for-bit interchangeable (property-tested in
        tests/cluster/test_fluid_vectorized.py).  No reductions
        (``np.sum`` pairwise summation would not be) are used.
        """
        n = len(singles)
        rem = np.empty(n)
        rate = np.empty(n)
        last = np.empty(n)
        rcap = np.empty(n)
        max_caps = 1
        for i, f in enumerate(singles):
            rem[i] = f.remaining
            rate[i] = f.rate
            last[i] = f.last_update
            rc = f.rate_cap
            rcap[i] = math.inf if rc is None else rc
            c = len(f.capacities)
            if c > max_caps:
                max_caps = c
        dt = now - last
        drained = rem - rate * dt
        rem = np.where(dt > 0.0, np.where(drained > 0.0, drained, 0.0), rem)
        if max_caps == 1:
            # One capacity per flow: the running min is just that share
            # (inf < share - EPS never holds for the initial inf).
            best = np.empty(n)
            for i, f in enumerate(singles):
                cap = f.capacities[0]
                share = cap.bandwidth
                nf = len(cap.flows)
                if nf > 1 and cap.contention_alpha != 0.0:
                    share = share / (1.0 + cap.contention_alpha * (nf - 1))
                best[i] = share
        else:
            best = np.full(n, math.inf)
            col = np.empty(n)
            for j in range(max_caps):
                col.fill(math.inf)
                for i, f in enumerate(singles):
                    caps = f.capacities
                    if j < len(caps):
                        cap = caps[j]
                        share = cap.bandwidth
                        nf = len(cap.flows)
                        if nf > 1 and cap.contention_alpha != 0.0:
                            share = share / (
                                1.0 + cap.contention_alpha * (nf - 1))
                        col[i] = share
                best = np.where(col < best - _EPS, col, best)
        rates = np.where(rcap < best - _EPS, rcap, best)
        rem_list = rem.tolist()
        rate_list = rates.tolist()
        for i, f in enumerate(singles):
            f.remaining = rem_list[i]
            f.last_update = now
            f.rate = rate_list[i]

    @staticmethod
    def _solve_multi(component: Set[Flow], now: float, force=None):
        """Drain + progressive-filling max–min solve (contended case).

        Returns the capacities the caller must re-record: the touched
        capacities whose *aggregate rate can have changed* — those
        crossed by a flow whose rate differs from its pre-solve value,
        plus any in ``force`` (a capacity container the caller marks
        when membership changed: a flow completed, aborted or was just
        inserted there).  A capacity whose member set and member rates
        are both unchanged re-sums to the bitwise-identical aggregate,
        so skipping its record is exact — on the big uniform components
        a completion re-solves, this cuts the per-solve record work
        from O(capacities) to O(changed).

        Components where every flow crosses exactly one, *shared*
        capacity (the dominant contended shape: a disk read and a disk
        write on one spindle) skip the dict machinery: progressive
        filling over a single capacity is a scalar loop whose arithmetic
        — fair share ``residual / n``, rate-cap freezing, the clamped
        sequential residual subtraction — is operation-for-operation the
        general loop below with one dictionary entry.
        """
        any_rate_cap = False
        shared: Optional[Capacity] = None
        one_cap = True
        for flow in component:
            dt = now - flow.last_update
            if dt > 0:
                rem = flow.remaining - flow.rate * dt
                flow.remaining = rem if rem > 0.0 else 0.0
            flow.last_update = now
            flow.prev_rate = flow.rate
            flow.rate = 0.0
            if flow.rate_cap is not None:
                any_rate_cap = True
            if one_cap:
                caps = flow.capacities
                if len(caps) != 1:
                    one_cap = False
                elif shared is None:
                    shared = caps[0]
                elif caps[0] is not shared:
                    one_cap = False

        if one_cap:
            # Exact components put every flow of ``shared`` in
            # ``component``, so the load starts at len(component).
            residual = shared.effective_bandwidth()
            unfrozen = set(component)
            n = len(unfrozen)
            while unfrozen:
                best_share = residual / n
                if any_rate_cap:
                    capped = [f for f in unfrozen
                              if f.rate_cap is not None
                              and f.rate_cap < best_share - _EPS]
                else:
                    capped = None
                if capped:
                    rate = min(f.rate_cap for f in capped)  # type: ignore[type-var]
                    frozen = [f for f in capped if f.rate_cap <= rate + _EPS]
                else:
                    rate = best_share
                    frozen = list(unfrozen)
                for flow in frozen:
                    flow.rate = rate
                    unfrozen.discard(flow)
                    r = residual - rate
                    residual = r if r > 0.0 else 0.0
                    n -= 1
            if force is not None and shared in force:
                return (shared,)
            for flow in component:
                if flow.rate != flow.prev_rate:
                    return (shared,)
            return ()

        unfrozen = set(component)
        residual_by_cap: Dict[Capacity, float] = {}
        load: Dict[Capacity, int] = {}
        for flow in component:
            for cap in flow.capacities:
                if cap not in load:
                    residual_by_cap[cap] = cap.effective_bandwidth()
                    load[cap] = len(cap.flows)

        while unfrozen:
            # Find the bottleneck capacity: smallest fair share.
            best_cap = None
            best_share = math.inf
            run_min = math.inf
            tie_count = 0
            for cap, n in load.items():
                if n <= 0:
                    continue
                share = residual_by_cap[cap] / n
                # ``run_min`` (the pure running minimum) can never sit
                # more than _EPS below ``best_share``, so anything above
                # ``best_share`` updates neither — the common case costs
                # one comparison, same as the plain hysteresis fold.
                if share > best_share:
                    pass
                elif share < best_share - _EPS:
                    best_share = share
                    best_cap = cap
                    tie_count = 1
                    run_min = share
                elif share == best_share:
                    tie_count += 1
                elif share < run_min:
                    run_min = share
            # Flow rate caps tighter than the fair share freeze first.
            if any_rate_cap:
                capped = [f for f in unfrozen
                          if f.rate_cap is not None
                          and f.rate_cap < best_share - _EPS]
            else:
                capped = None
            if capped:
                rate = min(f.rate_cap for f in capped)  # type: ignore[type-var]
                frozen = [f for f in capped if f.rate_cap <= rate + _EPS]
            elif best_cap is not None:
                rate = best_share
                frozen = [f for f in best_cap.flows if f in unfrozen]
            else:  # pragma: no cover - every flow crosses >=1 capacity
                break
            for flow in frozen:
                flow.rate = rate
                unfrozen.discard(flow)
                for cap in flow.capacities:
                    r = residual_by_cap[cap] - rate
                    residual_by_cap[cap] = r if r > 0.0 else 0.0
                    load[cap] -= 1
            # Tie batching: components built from identical pipelines
            # (the HDFS replication ring at scale) leave *many*
            # capacities with bitwise-equal fair shares, and the loop
            # above would burn one full bottleneck scan per tied
            # capacity — O(C^2) per solve.  When the scan found exact
            # ties (and the fold reached the true minimum: near-ties
            # within _EPS disable the shortcut, preserving the
            # hysteresis semantics), consecutive rounds provably freeze
            # each tied capacity at the same ``best_share`` in scan
            # order, so they are executed here in one pass.  Any
            # ambiguity — a touched capacity landing at or below
            # ``m + _EPS``, a tie drifting off ``m`` — stops the batch
            # and returns to the exact fold, so the frozen rates are
            # bit-identical to the unbatched loop by construction.
            if (capped is None and not any_rate_cap and tie_count > 1
                    and best_share == run_min and unfrozen):
                m = best_share
                ties = []
                clean = True
                for cap, n in load.items():
                    if n <= 0:
                        continue
                    share = residual_by_cap[cap] / n
                    if share == m:
                        ties.append(cap)
                    elif not share > m + _EPS:
                        clean = False
                        break
                if clean:
                    for cap in ties:
                        n = load[cap]
                        if n <= 0:
                            # Fully frozen via a neighbour: the exact
                            # fold would skip it too.
                            continue
                        share = residual_by_cap[cap] / n
                        if share != m:
                            if share > m + _EPS:
                                # No longer the bottleneck: the fold
                                # would pass over it to the next tie.
                                continue
                            break  # ambiguous/below m: refold exactly
                        stop = False
                        for flow in [f for f in cap.flows
                                     if f in unfrozen]:
                            flow.rate = m
                            unfrozen.discard(flow)
                            for c2 in flow.capacities:
                                r = residual_by_cap[c2] - m
                                residual_by_cap[c2] = r if r > 0.0 else 0.0
                                n2 = load[c2] - 1
                                load[c2] = n2
                                if n2 > 0:
                                    s2 = residual_by_cap[c2] / n2
                                    if s2 != m and not s2 > m + _EPS:
                                        stop = True
                        if stop:
                            break
        changed: Set[Capacity] = set()
        for flow in component:
            if flow.rate != flow.prev_rate:
                changed.update(flow.capacities)
        if force:
            changed.update(force)
        return [cap for cap in load if cap in changed]

    def _update_finish(self, component, now: float) -> None:
        """Refresh the lazy finish-heap entries for solved flows."""
        heap = self._finish_heap
        inf = math.inf
        for flow in component:
            rate = flow.rate
            if rate > _EPS:
                finish = now + flow.remaining / rate
            elif flow.remaining <= _EPS:
                finish = now
            else:
                finish = inf
            if finish == inf:
                if flow.heap_finish != inf:
                    # Invalidate the previously pushed entry.
                    flow.rate_stamp += 1
                    flow.heap_finish = inf
            elif finish != flow.heap_finish:
                flow.rate_stamp += 1
                flow.heap_finish = finish
                heapq.heappush(heap, (finish, flow.id, flow, flow.rate_stamp))
            # else: the valid entry already in the heap has this exact
            # finish time — keep it instead of pushing a duplicate.

    def _refresh_wakeup(self) -> None:
        """Point the kernel wakeup at the earliest *valid* finish."""
        heap = self._finish_heap
        flows = self._flows
        while heap:
            finish, _fid, flow, stamp = heap[0]
            if stamp != flow.rate_stamp or flow not in flows:
                heapq.heappop(heap)  # stale entry
                continue
            # Most reallocations leave the earliest finish untouched;
            # skip the _set_wakeup call when the wakeup is already live
            # at exactly this time.
            if finish == self._wakeup_time:
                wakeup = self._wakeup
                if wakeup is not None and wakeup.callbacks is not None:
                    return
            self._set_wakeup(finish)
            return
        self._set_wakeup(math.inf)

    def _set_wakeup(self, when: float) -> None:
        if when == self._wakeup_time and self._wakeup is not None \
                and self._wakeup.callbacks is not None:
            return
        if self._wakeup is not None and self._wakeup.callbacks is not None:
            # Cancel the stale wakeup by clearing its callbacks; the kernel
            # skips events whose callback list is None.
            self._wakeup.callbacks = None
        self._wakeup = None
        self._wakeup_time = when
        if math.isinf(when):
            return
        evt = Wakeup(self.sim)
        evt.callbacks.append(self._on_wakeup)
        self.sim._schedule(evt, max(0.0, when - self.sim.now), pre_triggered=True)
        self._wakeup = evt

    def _on_wakeup(self, _evt: Event) -> None:
        now = self.sim.now
        heap = self._finish_heap
        flows = self._flows
        finished: List[Flow] = []
        cutoff = now + 1e-9
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            flow = entry[2]
            if entry[3] != flow.rate_stamp or flow not in flows:
                pop(heap)
                continue
            if entry[0] > cutoff:
                break
            pop(heap)
            finished.append(flow)
        # Duplicates in these lists are harmless: reallocation dedups
        # seeds, and the idle-record loop below is idempotent.
        released: List[Capacity] = []
        neighbours: List[Flow] = []
        ledger = self.bytes_by_capacity
        for flow in finished:
            dt = now - flow.last_update
            rem = flow.remaining - flow.rate * dt
            flow.remaining = rem if rem > 0.0 else 0.0
            flow.last_update = now
            flows.discard(flow)
            # _drop_from_component, inlined (hot path).
            comp = flow.comp
            if comp is not None:
                cflows = comp.flows
                cflows.discard(flow)
                if len(cflows) > 1:
                    comp.dirty = True
                flow.comp = None
            size = flow.size
            for cap in flow.capacities:
                capflows = cap.flows
                capflows.discard(flow)
                released.append(cap)
                if capflows:
                    neighbours.extend(capflows)
                name = cap.name
                ledger[name] = ledger.get(name, 0.0) + size
            self.completed_count += 1
            self.total_bytes_moved += size
        # Reallocate the neighbourhoods that lost a competitor — one
        # batched pass over the distinct components (the final
        # _refresh_wakeup below covers the batch's heap updates).
        if neighbours:
            self._reallocate_many(neighbours, refresh=False)
        if self.trace_detail == "full":
            for cap in released:
                if cap.last_rate != 0 and not cap.flows:
                    cap._record_rate(now, 0)
        # Deliver completions after rates are consistent.
        hook = self.flow_hook
        if hook is not None:
            for flow in finished:
                hook(flow, now)
        for flow in finished:
            flow.done.succeed(now - flow.started_at)
        self._refresh_wakeup()

    def moved_bytes_by_capacity(self) -> Dict[str, float]:
        """Bytes moved across each capacity, including in-flight progress.

        For a completed flow every capacity it traversed carried all of
        ``flow.size`` bytes; active flows contribute the bytes drained so
        far, advanced to the current simulation time.  The result is what
        the integral of each capacity's throughput trace must equal —
        the flow byte-conservation invariant.
        """
        self.settle()
        moved = dict(self.bytes_by_capacity)
        now = self.sim.now
        for flow in self._flows:
            progress = flow.size - flow.remaining
            dt = now - flow.last_update
            if dt > 0:
                progress = min(flow.size, progress + flow.rate * dt)
            if progress <= 0:
                continue
            for cap in flow.capacities:
                moved[cap.name] = moved.get(cap.name, 0.0) + progress
        return moved

    def assert_quiescent(self) -> None:
        """Raise if any flow is still active (used by tests)."""
        self.settle()
        if self._flows:
            raise SimulationError(f"{len(self._flows)} flows still active")

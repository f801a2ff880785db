"""Engine-specific in-simulation recovery.

**Spark 1.5** (lineage + materialised stage outputs): a stage runs with
per-node fault guards; when a node's share is lost the surviving nodes
finish theirs, the lost share is redistributed over schedulable nodes
(weighted by CPU speed, honouring the blacklist) and re-executed after
an exponential backoff, up to ``RetryPolicy.max_retries`` attempts.  A
*crashed* node additionally loses the locally-stored outputs of every
stage it already completed, so the runtime re-derives those partitions
from lineage before any dependent work runs — exactly the recovery
story the analytic :func:`repro.harness.faults.run_with_failure`
charges as ``rerun_lost_tasks + recompute``.

**Flink 0.10** (no intermediate materialisation, FLINK-2250): any lost
task fails the whole pipelined job; :class:`FlinkRestartPolicy`
describes the full-restart loop the harness runs (quiesce, fixed-delay
backoff, wait for crashed TaskManagers to re-register, re-submit).
:func:`checkpoint_whatif` layers an analytic what-if on the observed
restart timeline: how much redone work a periodic checkpoint at
interval ``C`` would have saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import Cluster
from ..engines.common.execution import (PhaseExecutor, PhaseResources,
                                        PhaseSpec, TaskLostError)
from .injector import FaultTimeline
from .state import FaultState

__all__ = ["RetryPolicy", "SparkRecoveryRuntime", "FlinkRestartPolicy",
           "CheckpointWhatIf", "checkpoint_whatif", "quiesce"]

#: Additive (divisible) resource-demand fields of a PhaseResources.
_ADDITIVE = ("cpu_core_seconds", "disk_read_bytes", "disk_write_bytes",
             "net_in_bytes", "net_out_bytes", "hdfs_write_bytes",
             "cyclic_disk_bytes")

#: Byte volume equivalent to one CPU core-second when scalarising
#: mixed resource demands into work units (one disk-second of traffic).
#: The exact value is irrelevant to conservation — commits and debits
#: use the same measure — it only balances CPU- vs I/O-heavy shares.
_BYTES_PER_CORE_SECOND = 150 * 2**20


def _work_scalar(res: PhaseResources) -> float:
    volume = sum(getattr(res, f) for f in _ADDITIVE if f != "cpu_core_seconds")
    return res.cpu_core_seconds + volume / _BYTES_PER_CORE_SECOND


@dataclass(frozen=True)
class RetryPolicy:
    """Spark-style task re-execution policy."""

    #: Attempts per stage beyond the first (spark.task.maxFailures=4).
    max_retries: int = 4
    #: Seconds before the first re-execution (task relaunch latency).
    backoff: float = 3.0
    #: Exponential backoff multiplier for consecutive retries.
    backoff_factor: float = 2.0
    #: Fault-caused failures on one node before it is blacklisted
    #: (no further recovery work is placed there).
    blacklist_after: int = 2
    #: Launch a redundant copy of every re-execution and race them
    #: (speculative execution); the loser's work is tracked as waste.
    speculative: bool = False

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0, backoff_factor >= 1")
        if self.blacklist_after < 1:
            raise ValueError("blacklist_after must be >= 1")


@dataclass(frozen=True)
class FlinkRestartPolicy:
    """Flink 0.10 ``execution-retries``-style full restart policy."""

    max_restarts: int = 3
    #: Fixed delay before re-submitting the job (execution-retries.delay).
    restart_delay: float = 10.0

    def validate(self) -> None:
        if self.max_restarts < 0 or self.restart_delay < 0:
            raise ValueError("max_restarts and restart_delay must be >= 0")


class SparkRecoveryRuntime:
    """Drives fault-guarded stage execution with task re-execution.

    Installed on a :class:`~repro.engines.spark.engine.SparkEngine` as
    ``engine.recovery``; the engine then routes every stage through
    :meth:`run_stage`.
    """

    def __init__(self, cluster: Cluster, state: FaultState,
                 timeline: FaultTimeline,
                 policy: Optional[RetryPolicy] = None) -> None:
        self.cluster = cluster
        self.state = state
        self.timeline = timeline
        self.policy = policy or RetryPolicy()
        self.policy.validate()
        #: Completed stages: (resource totals, committed units by node)
        #: — the lineage that recomputes a crashed node's lost outputs.
        self.history: List[Tuple[Dict[str, float], Dict[int, float],
                                 PhaseSpec]] = []
        self._seq = 0
        self._in_lineage = False

    # ------------------------------------------------------------------
    # the per-stage entry point (a generator, like run_phase)
    # ------------------------------------------------------------------
    def run_stage(self, executor: PhaseExecutor, phase: PhaseSpec):
        self._seq += 1
        key = f"{phase.key}#{self._seq}"
        # Nodes that died since the previous stage hold stage outputs
        # this one may consume: recompute them from lineage first.
        yield from self._recompute_lineage(executor)
        phase = self._redistribute(phase)
        fractions = self._fractions(phase)
        planned = 1.0 if sum(fractions) > 0 else 0.0
        self.state.ledger.open(key, planned=planned)
        span, committed_by_node = yield from self._run_with_retries(
            executor, key, phase, fractions)
        self.state.ledger.close(key)
        self.history.append((self._totals(phase), committed_by_node, phase))
        return span

    # ------------------------------------------------------------------
    # retry loop (shared by stages and lineage recomputation)
    # ------------------------------------------------------------------
    def _run_with_retries(self, executor: PhaseExecutor, key: str,
                          phase: PhaseSpec, fractions: Sequence[float]):
        sim = self.cluster.sim
        ledger = self.state.ledger
        committed_by_node: Dict[int, float] = {}
        span, failures, chunks = yield from executor.run_phase_guarded(phase)
        lost_by_node = self._settle(key, fractions, failures, chunks,
                                    executor.chunks, committed_by_node)
        attempt = 0
        while sum(lost_by_node.values()) > 1e-12:
            attempt += 1
            if attempt > self.policy.max_retries:
                raise TaskLostError(
                    f"stage {phase.key!r}: giving up after "
                    f"{self.policy.max_retries} task re-execution(s)")
            self._update_blacklist(failures)
            # A crash during this stage also destroyed earlier stage
            # outputs the retry will read: recompute them first.
            yield from self._recompute_lineage(executor)
            backoff = (self.policy.backoff *
                       self.policy.backoff_factor ** (attempt - 1))
            if backoff > 0:
                yield sim.timeout(backoff)
            lost_units = sum(lost_by_node.values())
            rec_phase, rec_fractions = self._recovery_spec(phase,
                                                           lost_units)
            ledger.retry(key, lost_units)
            self.timeline.record(
                sim.now, "task_retry", min(lost_by_node),
                f"stage {phase.key}: re-executing {lost_units:.3f} work "
                f"units (attempt {attempt}/{self.policy.max_retries})")
            if self.policy.speculative:
                result = yield from self._speculative_attempt(
                    executor, key, rec_phase, lost_units)
            else:
                result = yield from executor.run_phase_guarded(rec_phase)
            rec_span, failures, chunks = result
            lost_by_node = self._settle(key, rec_fractions, failures,
                                        chunks, executor.chunks,
                                        committed_by_node)
            span.end = max(span.end, rec_span.end)
            span.busy += rec_span.busy
        return span, committed_by_node

    def _speculative_attempt(self, executor: PhaseExecutor, key: str,
                             rec_phase: PhaseSpec, lost_units: float):
        """Race two redundant copies of the re-execution; the winner's
        outcome counts, the loser is charged as speculative waste (it
        is not killed — its residual resource usage is the price of
        speculation)."""
        sim = self.cluster.sim
        procs = [sim.process(executor.run_phase_guarded(rec_phase))
                 for _ in range(2)]
        yield sim.any_of(procs)
        winner = next(p for p in procs if p.triggered)
        self.state.ledger.waste(key, lost_units)
        return winner.value

    # ------------------------------------------------------------------
    # settlement: turn one attempt's outcome into ledger movements
    # ------------------------------------------------------------------
    def _settle(self, key: str, fractions: Sequence[float],
                failures: Dict[int, BaseException],
                chunks: Dict[int, int], chunks_per_node: int,
                committed_by_node: Dict[int, float]) -> Dict[int, float]:
        """Commit finished shares; return work units still lost, by the
        node that lost them."""
        ledger = self.state.ledger
        lost_by_node: Dict[int, float] = {}
        for ni, frac in enumerate(fractions):
            if frac <= 0:
                continue
            done = min(chunks.get(ni, 0), chunks_per_node) / chunks_per_node
            if ni not in failures:
                ledger.commit(key, frac)
                committed_by_node[ni] = committed_by_node.get(ni, 0.0) + frac
                continue
            err = failures[ni]
            crashed_here = (getattr(err, "crashed_node", None) == ni
                            or not self.state.alive[ni])
            if crashed_here:
                # Crashed executor: even its finished chunks are gone
                # (locally-stored outputs died with the process).
                ledger.commit(key, frac * done)
                ledger.lose(key, frac * done)
                lost_by_node[ni] = frac
            else:
                # The process died collaterally (e.g. a replication
                # pipeline crossing a dead node) but its machine is
                # fine: chunk outputs already written locally are kept.
                ledger.commit(key, frac * done)
                committed_by_node[ni] = (committed_by_node.get(ni, 0.0) +
                                         frac * done)
                lost_by_node[ni] = frac * (1.0 - done)
        return lost_by_node

    def _update_blacklist(self, failures: Dict[int, BaseException]) -> None:
        for ni in sorted(failures):
            count = self.state.note_failure(ni)
            if (self.state.alive[ni] and ni not in self.state.blacklisted
                    and count >= self.policy.blacklist_after):
                self.state.blacklisted.add(ni)
                self.timeline.record(
                    self.cluster.sim.now, "blacklist", ni,
                    f"{count} fault-caused failures: no further recovery "
                    f"work placed here")

    # ------------------------------------------------------------------
    # work placement
    # ------------------------------------------------------------------
    @staticmethod
    def _totals(phase: PhaseSpec) -> Dict[str, float]:
        return {attr: phase.total(attr) for attr in _ADDITIVE}

    @staticmethod
    def _fractions(phase: PhaseSpec) -> List[float]:
        weights = [_work_scalar(res) for res in phase.per_node]
        total = sum(weights)
        if total <= 0:
            return [0.0] * len(weights)
        return [w / total for w in weights]

    def _placement_weights(self) -> Dict[int, float]:
        targets = self.state.schedulable_indices()
        weights = {i: self.cluster.node(i).cpu.bandwidth for i in targets}
        total = sum(weights.values())
        if total <= 0:  # pragma: no cover - all schedulable nodes dead
            weights = {i: 1.0 for i in targets}
            total = float(len(targets))
        return {i: w / total for i, w in weights.items()}

    def _redistribute(self, phase: PhaseSpec) -> PhaseSpec:
        """Move shares planned for dead/blacklisted nodes onto
        schedulable ones (Spark's dynamic task placement), leaving the
        banned nodes with empty shares."""
        placement = self._placement_weights()
        banned = [i for i in range(len(phase.per_node))
                  if i not in placement]
        if not banned or all(_work_scalar(phase.per_node[i]) <= 0
                             and phase.per_node[i].memory_bytes <= 0
                             for i in banned):
            return phase
        moved = {attr: sum(getattr(phase.per_node[i], attr) for i in banned)
                 for attr in _ADDITIVE}
        slots = max((r.cpu_slots for r in phase.per_node), default=0.0)
        memory = max((r.memory_bytes for r in phase.per_node), default=0.0)
        replication = next((r.hdfs_replication for r in phase.per_node
                            if r.hdfs_replication is not None), None)
        per_node = []
        for i, res in enumerate(phase.per_node):
            if i in placement:
                w = placement[i]
                kwargs = {attr: getattr(res, attr) + moved[attr] * w
                          for attr in _ADDITIVE}
                per_node.append(PhaseResources(
                    cpu_slots=res.cpu_slots or slots,
                    memory_bytes=res.memory_bytes or memory,
                    hdfs_replication=res.hdfs_replication
                    if res.hdfs_replication is not None else replication,
                    **kwargs))
            else:
                per_node.append(PhaseResources())
        return PhaseSpec(name=phase.name, key=phase.key, per_node=per_node,
                         startup_delay=phase.startup_delay,
                         blocking=phase.blocking,
                         anti_cyclic=phase.anti_cyclic)

    def _spec_from_units(self, name: str, key: str,
                         totals: Dict[str, float], units: float,
                         template: PhaseSpec) -> Tuple[PhaseSpec,
                                                       List[float]]:
        """A phase spec re-executing ``units`` work units of a stage
        whose cluster-wide demands were ``totals``, spread over the
        schedulable nodes by CPU speed."""
        placement = self._placement_weights()
        slots = max((r.cpu_slots for r in template.per_node), default=1.0)
        memory = max((r.memory_bytes for r in template.per_node),
                     default=0.0)
        num_nodes = len(template.per_node)
        fractions = [0.0] * num_nodes
        per_node = []
        for i in range(num_nodes):
            share = units * placement.get(i, 0.0)
            fractions[i] = share
            if share <= 0:
                per_node.append(PhaseResources())
                continue
            kwargs = {attr: totals[attr] * share for attr in _ADDITIVE}
            per_node.append(PhaseResources(
                cpu_slots=slots, memory_bytes=memory * min(1.0, share *
                                                           num_nodes),
                **kwargs))
        spec = PhaseSpec(name=name, key=key, per_node=per_node,
                         startup_delay=template.startup_delay,
                         blocking=template.blocking,
                         anti_cyclic=template.anti_cyclic)
        return spec, fractions

    def _recovery_spec(self, phase: PhaseSpec, lost_units: float
                       ) -> Tuple[PhaseSpec, List[float]]:
        return self._spec_from_units(
            f"{phase.name} (retry)", phase.key, self._totals(phase),
            lost_units, phase)

    # ------------------------------------------------------------------
    # lineage recomputation
    # ------------------------------------------------------------------
    def _recompute_lineage(self, executor: PhaseExecutor):
        """Re-derive from lineage the completed-stage outputs stored on
        nodes that crashed since the last check."""
        if self._in_lineage:
            return
        fresh = sorted(self.state.pending_lineage)
        if not fresh:
            return
        self.state.pending_lineage.difference_update(fresh)
        self._in_lineage = True
        try:
            for hist_i, (totals, committed_by_node, template) in \
                    enumerate(self.history):
                units = sum(committed_by_node.get(ni, 0.0) for ni in fresh)
                if units <= 1e-12:
                    continue
                key = self._lineage_key(
                    f"lineage:{template.key}#{hist_i}@{self._seq}")
                spec, fractions = self._spec_from_units(
                    f"{template.name} (lineage recompute)", template.key,
                    totals, units, template)
                self.timeline.record(
                    self.cluster.sim.now, "lineage_recompute",
                    fresh[0],
                    f"stage {template.key}: recomputing {units:.3f} lost "
                    f"output units")
                self.state.ledger.open(key, planned=units)
                _span, recommitted = yield from self._run_with_retries(
                    executor, key, spec, fractions)
                self.state.ledger.close(key)
                # The recomputed partitions now live on the recomputers.
                for ni in fresh:
                    committed_by_node.pop(ni, None)
                for ni, units_i in recommitted.items():
                    committed_by_node[ni] = (committed_by_node.get(ni, 0.0)
                                             + units_i)
        finally:
            self._in_lineage = False

    def _lineage_key(self, base: str) -> str:
        """``base``, or ``base~N`` when a stage already recomputed this
        history entry (once at stage start, again from its retry loop)."""
        key, n = base, 1
        while key in self.state.ledger.accounts:
            n += 1
            key = f"{base}~{n}"
        return key


# ----------------------------------------------------------------------
# Flink full-restart support
# ----------------------------------------------------------------------
def quiesce(cluster: Cluster, state: FaultState, reason: str) -> int:
    """Tear down all in-flight work before a full job restart.

    Aborts every active flow (crediting partial progress so byte
    conservation holds), interrupts every registered work process, and
    drains same-time kernel events.  Returns how many flows/processes
    were torn down.
    """
    error = TaskLostError(f"job restart: {reason}")
    caps = []
    for node in cluster.nodes:
        caps.extend([node.cpu, node.disk, node.nic_in, node.nic_out])
    fluid = cluster.fluid
    count = fluid.abort_flows(fluid.flows_on(caps), error)
    for proc in state.all_procs():
        proc.interrupt(error)
        count += 1
    cluster.sim.run(until=cluster.sim.now)
    return count


# ----------------------------------------------------------------------
# checkpoint-interval what-if (analytic layer over the restart timeline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointWhatIf:
    """Estimated effect of periodic checkpointing at one interval."""

    interval: float
    estimated_duration: float
    redone_work_saved: float
    checkpoint_overhead: float


def checkpoint_whatif(duration: float,
                      restarts: Sequence[Tuple[float, float]],
                      intervals: Sequence[float] = (30.0, 60.0, 120.0,
                                                    300.0),
                      overhead_fraction: float = 0.02
                      ) -> List[CheckpointWhatIf]:
    """What if Flink had checkpointed every ``C`` seconds?

    ``restarts`` holds ``(failure_time, progress_lost)`` pairs from the
    observed restart timeline.  With checkpoints at interval ``C`` a
    restart would redo only ``progress_lost mod C`` (resuming from the
    last completed checkpoint) at the price of ``overhead_fraction`` of
    extra runtime for barrier alignment and state writes — the
    trade-off FLINK-2250 was introducing when the paper was written.
    """
    if duration < 0 or not math.isfinite(duration):
        raise ValueError(f"duration must be finite and >= 0: {duration}")
    out = []
    for interval in intervals:
        if interval <= 0:
            raise ValueError("checkpoint interval must be > 0")
        saved = sum(lost - math.fmod(lost, interval)
                    for _t, lost in restarts if lost > 0)
        saved = min(saved, duration)
        base = duration - saved
        overhead = overhead_fraction * base
        out.append(CheckpointWhatIf(
            interval=interval, estimated_duration=base + overhead,
            redone_work_saved=saved, checkpoint_overhead=overhead))
    return out

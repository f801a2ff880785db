"""Layer timing from outside the program: spans around public functions.

:func:`install` replaces each function or method listed in
:data:`TARGETS` with a wrapper that records a span (layer name, start,
end, parent, pid) and updates a few work counters.  Nothing in the
program changes: the wrappers only read the clock and the values the
wrapped calls return, so traced outputs are identical to untraced ones.

Each name is patched wherever it is looked up: every ``repro`` module
that holds the original object under any name gets the wrapper, so a
``from .runner import run_once`` made at import time is covered too.

Spans stay in memory.  Worker processes are forked, so they inherit the
wrappers; a worker appends its spans and counters to a per-pid spool
file in the run directory whenever its outermost span closes (a forked
``multiprocessing`` child exits without running exit handlers, so this
is the last safe moment).  The process that created the recorder
writes its own spool only when asked (:meth:`Recorder.dump`).

Self time is a span's duration minus the part of it covered by its
direct children; all times are integer nanoseconds, so a table's rows
plus its ``unattributed`` row add up to the wall time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (layer, module, attribute path) for every timed public function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("engines.run", "repro.engines.spark.engine", "SparkEngine.run"),
    ("engines.run", "repro.engines.flink.engine", "FlinkEngine.run"),
    ("runner.deploy", "repro.harness.runner", "run_once"),
    ("workloads.plan", "repro.workloads.base", "Workload.jobs"),
    ("hdfs.import", "repro.hdfs.filesystem", "HDFS.create_file"),
    ("monitoring.correlate", "repro.core.correlate", "correlate"),
    ("validation.digest", "repro.validation.digest", "digest_payload"),
    ("parallel.map", "repro.harness.parallel", "parallel_map"),
    ("parallel.map", "repro.harness.parallel", "robust_map"),
    ("checkpoint.open", "repro.harness.checkpoint",
     "CheckpointStore.__init__"),
    ("checkpoint.save", "repro.harness.checkpoint", "CheckpointStore.save"),
    ("faults.run", "repro.faults.run", "run_with_faults"),
    ("streaming.run", "repro.streaming.engines", "run_streaming"),
    ("scheduler.run", "repro.scheduler.core", "run_tenancy"),
    ("serve.cache.get", "repro.serve.cache", "DigestCache.get"),
    ("serve.cache.put", "repro.serve.cache", "DigestCache.put"),
    ("serve.search", "repro.serve.planner", "plan_capacity_async"),
    ("serve.planner", "repro.serve.planner", "candidate_descriptors"),
    ("serve.pool.run", "repro.serve.pool", "AsyncWorkerPool.run"),
    ("serve.pool.simulate", "repro.serve.planner", "evaluate_candidate"),
)

#: Modules whose import must precede patching so that every module
#: holding a reference is already loaded.
PRELOAD = ("repro.harness.figures", "repro.resilience.sweep",
           "repro.streaming.sweep", "repro.scheduler.sweep", "repro.serve",
           "repro.cli")


class Recorder:
    """Spans and counters of one process tree, spooled per worker pid."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.owner = os.getpid()
        self._pid = self.owner
        #: [id, parent id, layer, start ns, end ns]; ids are (pid, n).
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.sims: List[object] = []
        self._seq = 0
        self._depth = 0
        self._current = contextvars.ContextVar("bench_span", default=None)

    def _adopt(self) -> None:
        """In a freshly forked worker, drop what the parent recorded."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.counts = Counter()
            self.sims = []
            self._depth = 0

    def begin(self, layer: str):
        self._adopt()
        parent = self._current.get()
        if parent is not None and parent[0] != self._pid:
            parent = None  # an open span of the process we forked from
        self._seq += 1
        span = [(self._pid, self._seq), parent, layer,
                time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._depth += 1
        return self._current.set(span[0]), span

    def end(self, token, span) -> None:
        span[4] = time.perf_counter_ns()
        self._current.reset(token)
        self._depth -= 1
        if self._depth == 0 and self._pid != self.owner:
            self.dump()

    def collect_sims(self) -> None:
        """Fold the kernel events of every registered simulation."""
        self.counts["cluster.sim_events"] += sum(
            sim.steps_executed for sim in self.sims)
        self.sims = []

    def dump(self) -> None:
        """Append this process's spans and counters to its spool file."""
        self.collect_sims()
        if not self.spans and not self.counts:
            return
        role = "server" if self._pid == self.owner else "worker"
        record = {"pid": self._pid, "role": role, "spans": self.spans,
                  "counts": dict(self.counts)}
        with open(self.spool_dir / f"{self._pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()

    def take(self) -> Tuple[List[list], Counter]:
        """This process's spans and counters so far; resets both."""
        self.collect_sims()
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


# ----------------------------------------------------------------------
# counters, read from arguments and return values
# ----------------------------------------------------------------------
def _count_engine(counts, args, result) -> None:
    counts["engines.runs"] += 1
    if not result.success:
        counts["engines.failed_runs"] += 1


def _count_map(counts, args, result) -> None:
    counts["parallel.tasks"] += len(args[1])
    if isinstance(result, tuple):  # robust_map: (results, failures)
        counts["parallel.failures"] += len(result[1])


COUNTERS: Dict[str, Callable] = {
    "engines.run": _count_engine,
    "runner.deploy": lambda c, a, r: c.update(("runner.runs",)),
    "hdfs.import": lambda c, a, r: c.update(("hdfs.files",)),
    "validation.digest": lambda c, a, r: c.update(("validation.digests",)),
    "validation.audit": lambda c, a, r: c.update(("validation.audits",)),
    "parallel.map": _count_map,
    "checkpoint.save": lambda c, a, r: c.update(("checkpoint.records",)),
}


def _span_wrapper(rec: Recorder, fn: Callable, layer: str) -> Callable:
    count = COUNTERS.get(layer)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            token, span = rec.begin(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.end(token, span)
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token, span = rec.begin(layer)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(rec.counts, args, result)
            return result
        finally:
            rec.end(token, span)
    return traced


def _engine_events(rec: Recorder, fn: Callable) -> Callable:
    """Counts the kernel events an engine run dispatches: the divisor of
    ``cluster.us_per_event``."""
    @functools.wraps(fn)
    def counted(engine, *args, **kwargs):
        sim = engine.cluster.sim
        before = sim.steps_executed
        try:
            return fn(engine, *args, **kwargs)
        finally:
            rec.counts["engines.events"] += sim.steps_executed - before
    return counted


def _flow_counter(rec: Recorder, fn: Callable, many: bool) -> Callable:
    @functools.wraps(fn)
    def counted(self, *args, **kwargs):
        rec.counts["cluster.flows"] += len(args[0]) if many else 1
        return fn(self, *args, **kwargs)
    return counted


def _sim_register(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def registered(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        rec._adopt()
        rec.sims.append(self)
    return registered


def install(rec: Recorder) -> Callable[[], None]:
    """Patch every target; returns a function that restores them all."""
    for name in PRELOAD:
        importlib.import_module(name)
    from repro.cluster.fluid import FluidScheduler
    from repro.cluster.simulation import Simulation
    from repro.validation.invariants import InvariantChecker

    patched: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for layer, module, path in TARGETS:
        obj = importlib.import_module(module)
        *owners, attr = path.split(".")
        for part in owners:
            obj = getattr(obj, part)
        original = obj.__dict__[attr]
        inner = (_engine_events(rec, original) if layer == "engines.run"
                 else original)
        wrapper = _span_wrapper(rec, inner, layer)
        if owners:
            patch(obj, attr, wrapper)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, name, wrapper)
    for attr in [a for a in vars(InvariantChecker) if a.startswith("audit_")]:
        patch(InvariantChecker, attr, _span_wrapper(
            rec, InvariantChecker.__dict__[attr], "validation.audit"))
    patch(FluidScheduler, "transfer", _flow_counter(
        rec, FluidScheduler.__dict__["transfer"], many=False))
    patch(FluidScheduler, "transfer_many", _flow_counter(
        rec, FluidScheduler.__dict__["transfer_many"], many=True))
    patch(Simulation, "__init__", _sim_register(
        rec, Simulation.__dict__["__init__"]))

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
    return uninstall


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def covered(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans: Iterable[Sequence]) -> Counter:
    """Layer -> self time (ns): duration minus what direct children cover.

    ``spans`` are ``[id, parent, layer, start, end]`` records of one
    process (ids may be lists after a JSON round trip).
    """
    spans = [(tuple(s[0]), tuple(s[1]) if s[1] else None, s[2], s[3], s[4])
             for s in spans]
    children: Dict[tuple, List[Tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _layer, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Counter = Counter()
    for sid, _parent, layer, start, end in spans:
        out[layer] += (end - start) - covered(children.get(sid, []))
    return out


def tile(spans: Iterable[Sequence], wall_ns: int) -> Dict[str, int]:
    """Self time per layer plus ``unattributed``; sums to ``wall_ns``."""
    rows = dict(self_times(spans))
    rows["unattributed"] = wall_ns - sum(rows.values())
    return rows


def outermost_busy(spans: Iterable[Sequence]) -> int:
    """Time covered by a process's top-level spans (ns)."""
    return covered([(s[3], s[4]) for s in spans if not s[1]])


def read_spool(spool_dir: Path) -> List[dict]:
    records = []
    for path in sorted(Path(spool_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def merge_spool(records: List[dict]) -> Dict[str, object]:
    """Per-role self times, counters, worker busy time, and the summed
    duration of the server's top-level spans per layer."""
    selfs: Dict[str, Counter] = {"server": Counter(), "worker": Counter()}
    counts: Counter = Counter()
    busy = 0
    server_top: Counter = Counter()
    for rec in records:
        selfs[rec["role"]].update(self_times(rec["spans"]))
        counts.update(rec["counts"])
        if rec["role"] == "worker":
            busy += outermost_busy(rec["spans"])
        else:
            for s in rec["spans"]:
                if not s[1]:
                    server_top[s[2]] += s[4] - s[3]
    return {"self": selfs, "counts": counts, "worker_busy_ns": busy,
            "server_top": server_top}

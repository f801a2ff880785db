"""Structured execution spans: the run's who-did-what-when tree.

The paper's methodology correlates the *operator execution plan* with
*per-node resource utilisation*.  The simulator already produces both
halves — :class:`~repro.engines.common.execution.OperatorSpan` windows
on one side, :class:`~repro.cluster.trace.StepSeries` capacity traces
on the other — but nothing joins them.  A :class:`SpanTracer` records
that join as a **well-nested span tree** during a run:

    run → job → stage/superstep → operator → task

Each :class:`Span` carries its simulated ``[start, end]`` window, the
node(s) it executed on and (for tasks) the phase's per-node resource
demand, so any span can later be asked "what was I bottlenecked on?"
(:mod:`repro.observability.attribution`) or "am I on the critical
path?" (:mod:`repro.observability.critical_path`).

Design constraints, in force everywhere the tracer is wired:

* **zero simulation impact** — the tracer only *reads* ``sim.now``; it
  never schedules events, so attaching one cannot change durations,
  event counts or traces (pinned by regression tests);
* **zero overhead when off** — every hook site guards with
  ``if tracer is not None``; with no tracer attached the only cost is
  that attribute check;
* **picklable** — spans are plain data (ints, floats, strings, dicts),
  so traced runs cross process boundaries in the parallel harness and
  merge in submission order, bit-identical across ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Span", "SpanTracer", "SpanTree", "SPAN_KINDS"]

#: Valid span kinds, outermost first.  A child's kind must sit strictly
#: deeper than its parent's (a task cannot contain an operator).
#: ``queued``/``preempted`` are the cluster scheduler's wait intervals
#: (:mod:`repro.scheduler`): they nest under ``job`` spans and sit at
#: the deep end so the strict-deepening rule keeps holding for the
#: engine trees, which never record them.
SPAN_KINDS = ("run", "job", "stage", "operator", "task",
              "queued", "preempted")

_DEPTH = {kind: i for i, kind in enumerate(SPAN_KINDS)}


@dataclass
class Span:
    """One node of the span tree: a named, timed execution window."""

    id: int
    kind: str                      # one of SPAN_KINDS
    name: str                      # "FlatMap->MapToPair->ReduceByKey"
    start: float                   # simulated seconds
    end: float
    parent: Optional[int] = None   # parent span id (None for the root)
    key: str = ""                  # short figure label ("DC", "S", ...)
    #: Node index a task span executed on (None above task level).
    node: Optional[int] = None
    #: 1-based loop index for spans inside unrolled/native iterations.
    iteration: Optional[int] = None
    #: Free-form numeric facts: chunk counts, resource demand bytes...
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        where = f" node={self.node}" if self.node is not None else ""
        return (f"Span(#{self.id} {self.kind} {self.name!r} "
                f"[{self.start:.3f}, {self.end:.3f}]{where})")


class SpanTracer:
    """Records the span tree of one simulated run.

    The engine driver is a single logical thread, so enclosing spans
    (run/job/stage) follow a strict begin/end stack discipline; the
    concurrent parts (operators racing in a pipelined group, per-node
    task shares) are recorded post-hoc with :meth:`record`, passing the
    parent explicitly.  Times are always explicit simulated timestamps
    — the tracer never looks at a clock itself.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, kind: str, name: str, start: float, key: str = "",
              iteration: Optional[int] = None, **meta: float) -> Span:
        """Open an enclosing span and make it the current parent."""
        span = self._make(kind, name, start, start, key=key,
                          iteration=iteration, meta=dict(meta))
        self._stack.append(span)
        return span

    def end(self, span: Span, end: float,
            name: Optional[str] = None) -> Span:
        """Close the innermost open span (must be ``span``).

        Enclosing spans' names are sometimes only known at close time
        (e.g. Spark names a job "load" when the next one begins), so
        ``name`` may rename the span here.
        """
        if not self._stack or self._stack[-1] is not span:
            innermost = self._stack[-1] if self._stack else None
            raise ValueError(
                f"span close out of order: closing {span!r}, "
                f"innermost open is {innermost!r}")
        self._stack.pop()
        span.end = end
        if name is not None:
            span.name = name
        return span

    def cancel(self, span: Span) -> None:
        """Discard the innermost open span without recording it.

        Spark's driver speculatively opens the next job span when it
        closes one; the span opened after the final job has nothing in
        it and is cancelled instead of closed.
        """
        if not self._stack or self._stack[-1] is not span:
            innermost = self._stack[-1] if self._stack else None
            raise ValueError(
                f"span cancel out of order: cancelling {span!r}, "
                f"innermost open is {innermost!r}")
        self._stack.pop()
        self.spans.remove(span)

    def record(self, kind: str, name: str, start: float, end: float,
               parent: Optional[Span] = None, key: str = "",
               node: Optional[int] = None,
               iteration: Optional[int] = None, **meta: float) -> Span:
        """Record a complete span; parent defaults to the innermost
        open span (explicit parents serve the concurrent recorders)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = self._make(kind, name, start, end, key=key, node=node,
                          iteration=iteration, meta=dict(meta))
        span.parent = parent.id if parent is not None else None
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span (the default parent)."""
        return self._stack[-1] if self._stack else None

    def _make(self, kind: str, name: str, start: float, end: float,
              key: str = "", node: Optional[int] = None,
              iteration: Optional[int] = None,
              meta: Optional[Dict[str, float]] = None) -> Span:
        if kind not in _DEPTH:
            raise ValueError(f"unknown span kind {kind!r}; "
                             f"one of {SPAN_KINDS}")
        span = Span(id=self._next_id, kind=kind, name=name, start=start,
                    end=end, key=key, node=node, iteration=iteration,
                    meta=meta or {})
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span.parent = parent.id if parent is not None else None
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def tree(self) -> "SpanTree":
        """Freeze the recorded spans into an indexed tree."""
        return SpanTree(list(self.spans))


class SpanTree:
    """An indexed, queryable view over a recorded span list."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: s.id)
        self._by_id: Dict[int, Span] = {s.id: s for s in self.spans}
        self._children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent, []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    @property
    def root(self) -> Span:
        roots = self._children.get(None, [])
        if len(roots) != 1:
            raise ValueError(f"span tree needs exactly one root, "
                             f"found {len(roots)}")
        return roots[0]

    def span(self, span_id: int) -> Span:
        return self._by_id[span_id]

    def children(self, span: Span) -> List[Span]:
        """Children in id (== creation) order."""
        return list(self._children.get(span.id, []))

    def of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def nodes_under(self, span: Span) -> List[int]:
        """Distinct node indices of every task at or under ``span``."""
        out = set()
        stack = [span]
        while stack:
            s = stack.pop()
            if s.node is not None:
                out.add(s.node)
            stack.extend(self._children.get(s.id, ()))
        return sorted(out)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check(self, eps: float = 1e-9) -> List[str]:
        """Structural invariants; returns violation strings (empty = ok).

        * exactly one root, and it is a ``run`` span;
        * every parent id resolves, and parents are created first;
        * span kinds strictly deepen from parent to child;
        * every span has ``end >= start``;
        * well-nestedness: a child's window lies within its parent's;
        * sibling task spans live on distinct nodes (one share per node
          per operator, so two tasks of one operator never contend for
          the same cores).
        """
        problems: List[str] = []
        roots = self._children.get(None, [])
        if len(roots) != 1:
            problems.append(f"expected exactly 1 root span, got "
                            f"{len(roots)}")
        elif roots[0].kind != "run":
            problems.append(f"root span has kind {roots[0].kind!r}, "
                            f"expected 'run'")
        for span in self.spans:
            if span.end < span.start - eps:
                problems.append(f"span #{span.id} {span.name!r} ends "
                                f"before it starts "
                                f"({span.end} < {span.start})")
            if span.parent is None:
                continue
            parent = self._by_id.get(span.parent)
            if parent is None:
                problems.append(f"span #{span.id} has unknown parent "
                                f"#{span.parent}")
                continue
            if parent.id >= span.id:
                problems.append(f"span #{span.id} created before its "
                                f"parent #{parent.id}")
            if _DEPTH[span.kind] <= _DEPTH[parent.kind]:
                problems.append(
                    f"span #{span.id} kind {span.kind!r} does not "
                    f"deepen its parent's {parent.kind!r}")
            if span.start < parent.start - eps or \
                    span.end > parent.end + eps:
                problems.append(
                    f"span #{span.id} {span.name!r} "
                    f"[{span.start}, {span.end}] escapes parent "
                    f"#{parent.id} [{parent.start}, {parent.end}]")
        for parent_id, kids in self._children.items():
            if parent_id is None:
                continue
            seen_nodes: Dict[int, Span] = {}
            for kid in kids:
                if kid.kind != "task" or kid.node is None:
                    continue
                other = seen_nodes.get(kid.node)
                if other is not None:
                    problems.append(
                        f"sibling task spans #{other.id} and #{kid.id} "
                        f"share node {kid.node} under span "
                        f"#{parent_id}")
                seen_nodes[kid.node] = kid
        return problems

    # ------------------------------------------------------------------
    # serialisation (digest-friendly, picklable anyway)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-ish payload (see :mod:`repro.validation.digest`).

        ``"flows"`` is always empty; the key stays because the trace01
        golden digest covers it.
        """
        return {
            "spans": [
                {
                    "id": s.id, "kind": s.kind, "name": s.name,
                    "key": s.key, "start": s.start, "end": s.end,
                    "parent": s.parent, "node": s.node,
                    "iteration": s.iteration,
                    "meta": dict(sorted(s.meta.items())),
                } for s in self.spans
            ],
            "flows": [],
        }

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "SpanTree":
        return cls(list(spans))

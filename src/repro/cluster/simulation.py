"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based process simulator in the style
of SimPy, written from scratch so the reproduction has no dependencies
beyond NumPy.  The kernel provides:

* :class:`Event` — one-shot occurrences that processes can wait on;
* :class:`Timeout` — an event scheduled at ``now + delay``;
* :class:`Process` — a Python generator driven by the event loop; a
  process is itself an event that triggers when the generator returns;
* :class:`AllOf` / :class:`AnyOf` — barrier / race combinators;
* :class:`Wakeup` — an event that sees its instant's deferred work;
* :class:`Simulation` — the event heap and clock.

Deferred work: a scheduler may queue the changes of one instant (the
fluid scheduler queues every flow started at ``now``) and register in
``Simulation._unsettled``.  The kernel then calls its ``settle()``
before the clock advances, before a :class:`Wakeup` is dispatched, and
before :meth:`Simulation.run`, :meth:`Simulation.step` or
:meth:`Simulation.peek` returns, so no event and no caller can observe
the queue half-done.

Determinism: events scheduled at equal times are processed in schedule
order (a monotonically increasing sequence number breaks ties).  Two
runs with the same seed therefore dispatch the same events in the same
order.  Their traces are bit-identical when no sum depends on the
iteration order of a set of flows, which is hashed by address: a
contended fluid component mixing unequal rates can round its
aggregates differently from one run to the next in one process.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Wakeup",
    "Simulation",
    "SimulationError",
    "Interrupt",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    __slots__ = ("sim", "callbacks", "triggered", "ok", "value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        # Simulation._dispatch, inlined: succeed() runs once per flow
        # completion and once per process resumption.
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised inside waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.value = value
        sim._schedule(self, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Process(Event):
    """Drives a generator; the process is an event that fires on return."""

    __slots__ = ("generator", "_target")

    def __init__(self, sim: "Simulation", generator: Generator) -> None:
        super().__init__(sim)
        self.generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume the generator at the current simulation time.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        sim._schedule(boot, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        evt = Event(self.sim)
        evt.ok = False
        evt.value = Interrupt(cause)
        evt.callbacks.append(self._resume)
        evt.triggered = False
        self.sim._schedule_failure(evt)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            # A late interrupt (or a stale pre-triggered resume) can race
            # with normal completion; resuming a finished generator would
            # re-raise into dead code and corrupt the event state.
            return
        self._target = None
        gen = self.generator
        try:
            if event.ok:
                nxt = gen.send(event.value)
            else:
                exc = event.value
                if not isinstance(exc, BaseException):  # pragma: no cover
                    exc = SimulationError(repr(exc))
                nxt = gen.throw(exc)
        except StopIteration as stop:
            self.triggered = True
            self.ok = True
            self.value = stop.value
            self.sim._dispatch(self)
            return
        except BaseException as err:
            self.triggered = True
            self.ok = False
            self.value = err
            if not self.callbacks:
                # Nobody is waiting on this process: surface the crash.
                self.sim._crashed.append((self, err))
            self.sim._dispatch(self)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process yielded non-event {nxt!r}; yield Timeout/Event objects"
            )
        if nxt.triggered:
            # Already happened: resume immediately (next kernel step).
            imm = Event(self.sim)
            imm.ok = nxt.ok
            imm.value = nxt.value
            imm.callbacks.append(self._resume)
            self.sim._schedule(imm, 0.0, pre_triggered=True)
        else:
            self._target = nxt
            nxt.callbacks.append(self._resume)


class AllOf(Event):
    """Triggers once all child events have triggered (a barrier).

    The event value is the list of child values in construction order.
    If any child fails, this event fails with the first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = 0
        for evt in self._children:
            if not evt.triggered:
                self._remaining += 1
                evt.callbacks.append(self._on_child)
            elif not evt.ok:
                self._remaining = -1
        if self._remaining == 0:
            sim._schedule(self, 0.0, pre_triggered=True)
            self.value = [e.value for e in self._children]
            self.triggered = False
        elif self._remaining == -1:
            failed = next(e for e in self._children if e.triggered and not e.ok)
            self.ok = False
            self.value = failed.value
            sim._schedule_failure(self)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value if isinstance(child.value, BaseException)
                      else SimulationError(repr(child.value)))
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._children])


class AnyOf(Event):
    """Triggers as soon as any child event triggers (a race)."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        done = next((e for e in self._children if e.triggered), None)
        if done is not None:
            self.value = done.value
            self.ok = done.ok
            sim._schedule(self, 0.0, pre_triggered=True)
            self.triggered = False
            return
        for evt in self._children:
            evt.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed(child.value)
        else:
            self.fail(child.value if isinstance(child.value, BaseException)
                      else SimulationError(repr(child.value)))


class Wakeup(Event):
    """An event whose callbacks read state that deferred work changes.

    The kernel settles every unsettled scheduler before dispatching a
    wakeup, so a wakeup made stale by work deferred earlier in its
    instant is cancelled instead of dispatched.
    """

    __slots__ = ()


class Simulation:
    """The event loop: a clock plus a heap of scheduled events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._seq = 0
        self._crashed: List = []
        #: Total events dispatched (cancelled pops excluded).
        self.steps_executed = 0
        #: Kernel observers (e.g. :class:`repro.validation.InvariantChecker`
        #: or a trace recorder): objects with an
        #: ``on_kernel_step(sim, time, event, pre_triggered, cancelled)``
        #: method, called on every heap pop.  Empty by default.
        self.observers: List = []
        #: Schedulers holding work deferred within the current instant
        #: (objects with a ``settle()`` that removes them from here).
        self._unsettled: List = []

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float, pre_triggered: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event, pre_triggered))

    def _schedule_failure(self, event: Event) -> None:
        """Schedule an already-failed event for dispatch."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, event, True))

    def _dispatch(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def _settle(self) -> None:
        """Let every scheduler with deferred work finish it at ``now``."""
        unsettled = self._unsettled
        while unsettled:
            unsettled[0].settle()

    def step(self) -> None:
        """Process the next scheduled event, leaving its instant settled."""
        if self._unsettled:
            self._settle()
        self._step()
        if self._unsettled:
            self._settle()

    def _step(self) -> None:
        time, _seq, event, pre_triggered = heapq.heappop(self._heap)
        if time < self.now:  # pragma: no cover - guarded by _schedule
            raise SimulationError("event heap time went backwards")
        self.now = time
        cancelled = event.callbacks is None
        if self.observers:
            for obs in self.observers:
                obs.on_kernel_step(self, time, event, pre_triggered, cancelled)
        if cancelled:
            return  # cancelled / already dispatched
        event.triggered = True
        self.steps_executed += 1
        self._dispatch(event)

    def run(self, until: Optional[float] = None,
            until_event: Optional[Event] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        ``until_event`` stops the loop as soon as that event has
        triggered, leaving any later-scheduled events (e.g. pending
        fault-injection timers) un-dispatched on the heap.  Every path
        returns with deferred work settled.

        Raises the first unhandled exception from a crashed process.
        """
        heap = self._heap
        unsettled = self._unsettled
        if until is None and until_event is None:
            # Common case (run to quiescence): drive the heap directly
            # instead of paying the stop-condition checks and a method
            # call per event — this loop is the whole simulation's spine.
            pop = heapq.heappop
            crashed = self._crashed
            while heap or unsettled:
                if unsettled and (not heap or heap[0][0] > self.now
                                  or type(heap[0][2]) is Wakeup):
                    self._settle()
                    continue
                time, _seq, event, pre_triggered = pop(heap)
                self.now = time
                if event.callbacks is None:
                    if self.observers:
                        for obs in self.observers:
                            obs.on_kernel_step(self, time, event,
                                               pre_triggered, True)
                    continue  # cancelled / already dispatched
                if self.observers:
                    for obs in self.observers:
                        obs.on_kernel_step(self, time, event,
                                           pre_triggered, False)
                event.triggered = True
                self.steps_executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if crashed:
                    self._raise_crash()
            return
        while heap or unsettled:
            if unsettled and (not heap or heap[0][0] > self.now
                              or type(heap[0][2]) is Wakeup):
                self._settle()
                continue
            if until_event is not None and until_event.triggered:
                if unsettled:
                    self._settle()
                return
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            self._step()
            if self._crashed:
                self._raise_crash()
        if until is not None and self.now < until:
            self.now = until

    def _raise_crash(self) -> None:
        """Settle, then raise the first unhandled process exception."""
        self._settle()
        _proc, err = self._crashed[0]
        self._crashed.clear()
        raise err

    def peek(self) -> float:
        """Time of the next scheduled event (inf if none)."""
        if self._unsettled:
            self._settle()
        return self._heap[0][0] if self._heap else float("inf")

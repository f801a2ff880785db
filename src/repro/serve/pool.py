"""Process-isolated worker pool for the asyncio service and ``repro plan``.

:func:`~repro.harness.parallel.robust_map` gives batch campaigns
process isolation, per-task timeouts and bounded retry — but it blocks
its caller, and a service needs the same guarantees *per request*,
concurrently, with real cancellation: when a request's deadline fires
or the service drains, the simulation work in flight for it must stop
consuming a core, not just be abandoned.

:class:`AsyncWorkerPool` keeps up to ``jobs`` warm worker processes
for its lifetime, one per slot, running the same worker loop as
``robust_map`` (:func:`repro.harness.parallel._worker_loop`), and
awaits each reply on the event loop.  A worker is forked on first use
and serves attempt after attempt; an attempt that fails by crash,
timeout or cancellation SIGKILLs its worker, and the slot's next
attempt gets a fresh fork.  Guarantees:

* a worker that dies raises :class:`TaskCrashed` for the attempt it
  was running only; a worker killed while idle is replaced before its
  next attempt and costs no attempt at all;
* an attempt exceeding ``task_timeout`` (if set) is SIGKILLed and
  raises :class:`TaskTimedOut`;
* :func:`~repro.harness.parallel.retry_delay`, the attempt policy
  shared with ``robust_map``, retries crashes and timeouts up to
  ``retries`` times; an in-task exception (:class:`TaskFailed`) is
  raised at once;
* cancelling the awaiting coroutine — a request deadline, a drain —
  SIGKILLs the in-flight worker *before* the cancellation propagates:
  no orphaned simulation keeps burning CPU for an answer nobody wants;
* every attempt outcome is reported to the optional circuit breaker
  and counted on the serving ledger, so the accounting always balances;
* :meth:`AsyncWorkerPool.close` reaps the idle workers.  Workers are
  daemonic, so a pool nobody closed never blocks interpreter exit.

Workers use the ``fork`` start method, for three reasons: they must
inherit the imported simulator (and, in traced benchmark runs, the
layer wrappers installed around it); they stay direct children of the
service, where the CI churn job finds them with ``pgrep -P``; and
forking is safe because the service process is single-threaded (only
``MainThread`` runs after :meth:`AdvisorService.start`).  A worker
forked while a connection is open inherits that socket, which is why
the service ends every reply with an explicit FIN.

``chaos`` is the deterministic fault-injection hook for the chaos
harness: consulted before each attempt with ``(tag, attempt)``, it may
return ``"kill"`` to SIGKILL the attempt's worker instead of sending it
the task — a real process death, with none of the nondeterminism of
racing a signal against real work.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple

from ..harness.parallel import _Worker, retry_delay
from .breaker import CircuitBreaker
from .ledger import ServingLedger

__all__ = ["AsyncWorkerPool", "TaskCrashed", "TaskTimedOut",
           "TaskFailed", "PoolError"]


class PoolError(RuntimeError):
    """Base class for attempt failures inside the pool; ``kind`` is a
    :attr:`~repro.harness.parallel.TaskFailure.kind`."""


class TaskCrashed(PoolError):
    """The worker process died before reporting a result."""

    kind = "crash"


class TaskTimedOut(PoolError):
    """The attempt exceeded the per-task timeout and was killed."""

    kind = "timeout"


class TaskFailed(PoolError):
    """The task function raised inside the worker (not retried: the
    task is deterministic, so the exception is too)."""

    kind = "exception"

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class AsyncWorkerPool:
    """Bounded async fan-out of module-level functions to warm worker
    processes."""

    def __init__(self, jobs: int = 2,
                 task_timeout: Optional[float] = 30.0, retries: int = 1,
                 ledger: Optional[ServingLedger] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 chaos: Optional[Callable[[str, int],
                                          Optional[str]]] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {task_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.retries = retries
        self.ledger = ledger if ledger is not None else ServingLedger()
        self.breaker = breaker
        self.chaos = chaos
        self._slots = asyncio.Semaphore(jobs)
        #: Warm workers not running an attempt; with the ones that are,
        #: never more than ``jobs``.
        self._idle: List[_Worker] = []
        self._closed = False

    # ------------------------------------------------------------------
    async def run(self, fn: Callable, args: Tuple, tag: str = "") -> Any:
        """Run ``fn(*args)`` in a worker; retry crashes and timeouts.

        ``tag`` identifies the task to the chaos hook and in errors.
        Raises :class:`TaskFailed` on an in-task exception (first
        attempt — deterministic), or :class:`TaskCrashed` /
        :class:`TaskTimedOut` once the retry budget is exhausted.
        """
        if self._closed:
            raise PoolError("pool is closed")
        attempt = 0
        while True:
            attempt += 1
            try:
                result = await self._attempt(fn, args, tag, attempt)
            except (TaskFailed, TaskCrashed, TaskTimedOut) as exc:
                # An in-task exception is not a pool-health signal.
                if self.breaker is not None and exc.kind != "exception":
                    self.breaker.record_failure()
                delay = retry_delay(exc.kind, attempt, self.retries)
                if delay is None:
                    if isinstance(exc, TaskFailed):
                        raise
                    self.ledger.sim_exhausted += 1
                    raise type(exc)(
                        f"{exc} [task {tag or getattr(fn, '__name__', fn)}"
                        f" gave up after {attempt} attempt(s)]") from exc
                self.ledger.sim_retried += 1
                await asyncio.sleep(delay)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result

    async def _attempt(self, fn: Callable, args: Tuple, tag: str,
                       attempt: int) -> Any:
        async with self._slots:
            action = self.chaos(tag, attempt) if self.chaos else None
            worker = _Worker.checkout(self._idle)
            reusable = False
            try:
                if action == "kill":
                    worker.proc.kill()
                else:
                    worker.send(fn, args)
                self.ledger.sim_attempts += 1
                try:
                    if not await self._readable(worker.conn):
                        self.ledger.sim_timeout += 1
                        raise TaskTimedOut(
                            f"attempt {attempt} exceeded the "
                            f"{self.task_timeout}s task timeout")
                except asyncio.CancelledError:
                    # Real cancellation: the deadline/drain kills the
                    # in-flight simulation, it does not orphan it.
                    self.ledger.sim_cancelled += 1
                    raise
                try:
                    kind_payload = worker.conn.recv()
                except (EOFError, OSError):
                    self.ledger.sim_crashed += 1
                    worker.stop()
                    raise TaskCrashed(
                        f"worker exited with code {worker.proc.exitcode} "
                        f"before reporting (attempt {attempt})") from None
                reusable = True
                if kind_payload[0] == "ok":
                    self.ledger.sim_ok += 1
                    return kind_payload[1]
                self.ledger.sim_error += 1
                raise TaskFailed(kind_payload[1], kind_payload[2])
            finally:
                if reusable and not self._closed:
                    self._idle.append(worker)
                else:
                    worker.stop()

    async def _readable(self, conn) -> bool:
        """Wait until ``conn`` has a reply (or EOF); False on timeout."""
        loop = asyncio.get_running_loop()
        readable: asyncio.Future = loop.create_future()
        fd = conn.fileno()
        loop.add_reader(fd, lambda: (not readable.done()
                                     and readable.set_result(None)))
        try:
            # asyncio.wait, not wait_for: on 3.10/3.11 a wait_for whose
            # inner future completes in the same tick as a cancellation
            # SWALLOWS the cancellation (gh-86296) — here that would
            # leave a drained request's retry loop running to its full
            # deadline.
            done, _ = await asyncio.wait((readable,),
                                         timeout=self.task_timeout)
        finally:
            loop.remove_reader(fd)
        return bool(done)

    async def close(self) -> None:
        """Refuse new work and reap the idle workers.  An attempt still
        in flight reaps its own worker when it ends."""
        self._closed = True
        while self._idle:
            self._idle.pop().stop()

"""Parallel execution of independent simulation runs.

Every experiment in the harness decomposes into *independent* runs:
each :func:`~repro.harness.runner.run_once` deploys a fresh cluster
seeded explicitly, so no state flows between runs (the global flow-id
counter only breaks ties *within* one simulation and never leaks into
results).  That makes fan-out across worker processes safe: a worker
computes exactly what the serial loop would have computed, and results
are collected in **task order**, so the output of a parallel sweep or
figure is bit-identical to the serial one.

``jobs`` resolution order: explicit argument, then the ``REPRO_JOBS``
environment variable, then 1 (serial).  ``jobs=0`` (argument or
environment) means "use every core" (``os.cpu_count()``).  ``jobs=1``
short-circuits to a plain in-process loop — no workers, no pickling —
so the default path is byte-for-byte the historical behaviour.

There is one fan-out, :func:`robust_map`: a task that raises, crashes
its worker or exceeds a per-task timeout fails *that task only*
(recorded as a :class:`TaskFailure` with full task identity, retried
as :func:`retry_delay` says); every other task still completes and
the results keep their task-order slots.  Campaigns reach it through
:func:`~repro.harness.campaign.run_campaign`, which adds checkpoint
journaling and resume.  :func:`parallel_map` is the all-or-nothing
form for callers that want a plain list: at ``jobs >= 2`` it runs on
:func:`robust_map` and raises a ``RuntimeError`` naming the lowest
failed task once the others have finished.

:func:`robust_map` and the service's
:class:`~repro.serve.pool.AsyncWorkerPool` share one kind of worker: a
*warm* forked process running :func:`_worker_loop`, which takes
``(fn, args)`` requests over a duplex pipe until EOF.  Each worker slot
keeps its process across tasks, so cluster set-up runs in a warm heap
instead of a freshly forked one.  An attempt that crashes, times out
or is cancelled SIGKILLs the worker running it; the next attempt gets
a fresh fork.  Reuse cannot change a result, for the same reason the
fan-out cannot: no module-level state carries from one task to the
next (every RNG is a seeded generator, and the global flow-id counter
only orders flows inside one run).  Both also share one attempt
policy, :func:`retry_delay`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["ENV_JOBS", "RETRY_BACKOFF", "TaskFailure", "parallel_map",
           "resolve_jobs", "retry_delay", "robust_map"]

#: Environment variable consulted when no explicit job count is given.
ENV_JOBS = "REPRO_JOBS"

#: Scheduler poll interval for :func:`robust_map` (wall-clock seconds);
#: only bounds how quickly timeouts/crashes are *noticed*, never what
#: any task computes.
_POLL_SECONDS = 0.05

#: Wall-clock seconds before a failed task's first retry; the delay
#: doubles with every further attempt.
RETRY_BACKOFF = 0.05


def retry_delay(kind: str, attempts: int, retries: int) -> Optional[float]:
    """Seconds to wait after a task's ``attempts``-th failed attempt of
    ``kind`` (a :attr:`TaskFailure.kind`), or ``None``: failed for good.

    A crash or timeout is retried ``retries`` times.  An exception is
    not: every task is seeded, so it would raise again.
    """
    if kind == "exception" or attempts > retries:
        return None
    return RETRY_BACKOFF * 2 ** (attempts - 1)


@dataclass(frozen=True)
class TaskFailure:
    """One task :func:`robust_map` could not complete.

    Carries the task's full identity — index into the task list, the
    function name and the argument tuple's ``repr`` — so a single
    failed trial inside a 200-trial campaign is diagnosable from the
    report alone.
    """

    index: int
    fn_name: str
    args_repr: str
    kind: str          #: ``"exception"`` | ``"crash"`` | ``"timeout"``
    error_type: str
    message: str
    attempts: int = 1

    def describe(self) -> str:
        return (f"task #{self.index} {self.fn_name}{self.args_repr}: "
                f"{self.kind} after {self.attempts} attempt(s) — "
                f"{self.error_type}: {self.message}")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: argument > ``$REPRO_JOBS`` > 1.

    ``0`` (from either source) means "use every core":
    ``os.cpu_count()``.  Negative counts are rejected.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {raw!r}") from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _args_repr(args: Tuple, limit: int = 200) -> str:
    try:
        text = repr(tuple(args))
    except Exception:  # pragma: no cover - repr() of exotic arguments
        text = "(<unreprable arguments>)"
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def _fn_name(fn: Callable) -> str:
    return getattr(fn, "__name__", repr(fn))


def _annotate(exc: BaseException, fn: Callable, index: int,
              args: Tuple) -> BaseException:
    """Rebuild ``exc`` with the failing task's identity in its message.

    The original exception *type* is preserved whenever it can be
    constructed from a single message string (the common case);
    otherwise a ``RuntimeError`` carries the identity instead.  Either
    way the returned exception exposes ``task_index`` / ``task_args``.
    """
    note = (f"{exc} [while running task #{index}: "
            f"{_fn_name(fn)}{_args_repr(args)}]")
    try:
        annotated: BaseException = type(exc)(note)
    except Exception:
        annotated = RuntimeError(f"{type(exc).__name__}: {note}")
    annotated.task_index = index          # type: ignore[attr-defined]
    annotated.task_args = _args_repr(args)  # type: ignore[attr-defined]
    return annotated


def _call_identified(fn: Callable, index: int, args: Tuple) -> Any:
    """Run one task; re-raise any failure with the task identity."""
    try:
        return fn(*args)
    except Exception as exc:
        raise _annotate(exc, fn, index, args) from exc


def parallel_map(fn: Callable, tasks: Sequence[Tuple],
                 jobs: Optional[int] = None) -> List:
    """Apply ``fn`` to argument tuples, returning results in task order.

    With ``jobs <= 1`` (or fewer than two tasks) this is literally
    ``[fn(*t) for t in tasks]``, in process: ``fn`` may be a closure,
    and a failing task raises its original exception type with the
    task's index and arguments added to the message.

    Otherwise the tasks run on :func:`robust_map`'s warm workers (no
    timeout, no retries), so ``fn`` must be a module-level function and
    the arguments and results must pickle.  If any task raised or
    crashed its worker, a ``RuntimeError`` carrying the lowest failed
    task's :meth:`TaskFailure.describe` is raised once the others have
    finished.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [_call_identified(fn, i, t) for i, t in enumerate(tasks)]
    results, failures = robust_map(fn, tasks, jobs=jobs)
    if failures:
        raise RuntimeError(failures[0].describe())
    return results


# ----------------------------------------------------------------------
# warm workers, shared with repro.serve.pool
# ----------------------------------------------------------------------
def _worker_loop(conn, parent_end) -> None:
    """Warm worker body: run ``(fn, args)`` requests until EOF.

    Replies ``("ok", result)`` or ``("err", type name, message)``.
    Exceptions travel as plain strings, so an unpicklable exception
    cannot take the channel down with it.  A worker that dies shows up
    in the parent as EOF on the pipe, and a parent that dies shows up
    here the same way, so no worker outlives it.
    """
    parent_end.close()  # the fork copied it; holding it would hide EOF
    # A terminal Ctrl-C goes to the whole foreground process group:
    # leave it to the coordinator, which kills the workers and reports
    # once instead of one traceback per worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Forked from the asyncio service, a worker inherits the loop's
    # SIGTERM handler and signal wakeup fd: a SIGTERM would then wake
    # the service's loop instead of ending the worker.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", fn(*args))
        except Exception as exc:
            reply = ("err", type(exc).__name__, str(exc))
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone


class _Worker:
    """One warm worker: a forked daemonic process running
    :func:`_worker_loop`, and the parent's end of its pipe.

    Daemonic, so a pool nobody closed never blocks interpreter exit
    (a daemonic worker cannot fork workers of its own).
    """

    __slots__ = ("conn", "proc")

    def __init__(self) -> None:
        ctx = get_context("fork")
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_loop,
                                args=(child, self.conn), daemon=True)
        self.proc.start()
        child.close()

    @classmethod
    def checkout(cls, idle: List["_Worker"]) -> "_Worker":
        """A live worker from ``idle``, else a fresh fork.  A worker
        killed while idle is reaped here and costs no attempt."""
        while idle:
            worker = idle.pop()
            if worker.proc.is_alive():
                return worker
            worker.stop()
        return cls()

    def send(self, fn: Callable, args: Tuple) -> None:
        try:
            self.conn.send((fn, args))
        except OSError:
            pass  # died since checkout: the EOF that follows reports it

    def stop(self) -> None:
        """SIGKILL the worker and reap it; idempotent."""
        self.conn.close()
        self.proc.kill()
        self.proc.join()


# ----------------------------------------------------------------------
# robust_map: graceful degradation for long campaigns
# ----------------------------------------------------------------------
@dataclass
class _Running:
    index: int
    attempts: int
    worker: _Worker
    started: float


def robust_map(fn: Callable, tasks: Sequence[Tuple],
               jobs: Optional[int] = None,
               timeout: Optional[float] = None, retries: int = 0,
               on_result: Optional[Callable[[int, Any], None]] = None
               ) -> Tuple[List[Optional[Any]], List[TaskFailure]]:
    """Apply ``fn`` to every task, surviving per-task failures.

    Returns ``(results, failures)``: ``results[i]`` is the task's value,
    or ``None`` for a failed task; each failed task contributes one
    :class:`TaskFailure` (sorted by index) naming the task, the failure
    kind (``exception`` / ``crash`` / ``timeout``) and the attempt
    count.  The campaign itself always completes — graceful degradation
    instead of abort.

    With ``jobs >= 2`` tasks run in up to ``jobs`` warm worker
    processes, kept for this call and reaped when it returns.  A hung
    task is killed with its worker (``timeout`` seconds of wall clock,
    checked every ~50 ms), and a crashed worker takes down only its
    own task; either way the next task gets a fresh fork.  ``fn``, the
    task arguments and the results cross a pipe, so all must pickle.
    After each failed attempt :func:`retry_delay` decides: a crash or a
    timeout is retried up to ``retries`` times, an exception never.
    ``on_result(index, result)`` runs in the calling process as each
    task succeeds: the journal hook of :func:`~repro.harness.campaign.
    run_campaign`.

    Serially (``jobs <= 1``) exceptions are caught per task but
    ``timeout`` cannot be enforced (there is no worker to kill) and
    crashes are fatal by nature; campaigns that need the full
    protection should run with ``jobs >= 2``.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    results: List[Optional[Any]] = [None] * len(tasks)
    failures: List[TaskFailure] = []

    if jobs <= 1:
        for i, t in enumerate(tasks):
            try:
                results[i] = fn(*t)
            except Exception as exc:
                failures.append(TaskFailure(
                    index=i, fn_name=_fn_name(fn), args_repr=_args_repr(t),
                    kind="exception", error_type=type(exc).__name__,
                    message=str(exc)))
                continue
            if on_result is not None:
                on_result(i, results[i])
        return results, failures

    #: (index, attempts_so_far, earliest_start) — retries wait out
    #: their retry delay without blocking other tasks.
    queue: List[Tuple[int, int, float]] = [(i, 0, 0.0)
                                           for i in range(len(tasks))]
    running: List[_Running] = []
    idle: List[_Worker] = []

    def _fail_or_retry(run: _Running, kind: str, error_type: str,
                       message: str) -> None:
        attempts = run.attempts + 1
        delay = retry_delay(kind, attempts, retries)
        if delay is not None:
            queue.append((run.index, attempts, time.monotonic() + delay))
            return
        failures.append(TaskFailure(
            index=run.index, fn_name=_fn_name(fn),
            args_repr=_args_repr(tasks[run.index]), kind=kind,
            error_type=error_type, message=message, attempts=attempts))

    try:
        while queue or running:
            now = time.monotonic()
            # Launch eligible tasks into free worker slots.
            queue.sort(key=lambda q: (q[2], q[0]))
            while queue and len(running) < jobs and queue[0][2] <= now:
                index, attempts, _ = queue.pop(0)
                worker = _Worker.checkout(idle)
                running.append(_Running(index=index, attempts=attempts,
                                        worker=worker,
                                        started=time.monotonic()))
                worker.send(fn, tasks[index])
            if not running:
                # Only backed-off retries remain: sleep to eligibility.
                if queue:
                    time.sleep(max(0.0, min(
                        queue[0][2] - time.monotonic(), _POLL_SECONDS)))
                continue
            ready = _conn_wait([r.worker.conn for r in running],
                               timeout=_POLL_SECONDS)
            for run in [r for r in running if r.worker.conn in ready]:
                running.remove(run)
                try:
                    kind_payload = run.worker.conn.recv()
                except (EOFError, OSError):
                    # Closed without a report: the worker died.
                    run.worker.stop()
                    _fail_or_retry(
                        run, "crash", "TaskCrashed",
                        f"worker exited with code "
                        f"{run.worker.proc.exitcode} before reporting "
                        f"a result")
                    continue
                idle.append(run.worker)
                if kind_payload[0] == "ok":
                    results[run.index] = kind_payload[1]
                    if on_result is not None:
                        on_result(run.index, kind_payload[1])
                else:
                    _fail_or_retry(run, "exception", kind_payload[1],
                                   kind_payload[2])
            if timeout is not None:
                now = time.monotonic()
                for run in [r for r in running
                            if now - r.started > timeout]:
                    running.remove(run)
                    run.worker.stop()
                    _fail_or_retry(
                        run, "timeout", "TaskTimedOut",
                        f"exceeded the per-task timeout of {timeout}s")
    finally:
        for worker in idle + [r.worker for r in running]:
            worker.stop()
    failures.sort(key=lambda f: f.index)
    return results, failures

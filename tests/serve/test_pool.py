"""AsyncWorkerPool: isolation, retry, timeout, real cancellation,
warm-worker lifecycle."""

import asyncio
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.serve import (AsyncWorkerPool, CapacityQuery, CircuitBreaker,
                         ServingLedger, TaskCrashed, TaskFailed,
                         TaskTimedOut, candidate_descriptors,
                         evaluate_candidate)
from repro.validation.digest import digest_payload

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _square(x):
    return x * x


def _crash():
    os._exit(3)


def _raise():
    raise ValueError("deterministic failure")


def _sleep_forever():
    time.sleep(600)


def _pid():
    return os.getpid()


def _in_worker(fn, *args):
    """``fn(*args)`` and the pid of the process that computed it."""
    return os.getpid(), fn(*args)


def run(coro):
    return asyncio.run(coro)


def test_runs_a_function_in_a_worker():
    async def main():
        pool = AsyncWorkerPool(jobs=2)
        result = await pool.run(_square, (7,))
        assert result == 49
        snap = pool.ledger.snapshot()
        assert snap["sim_attempts"] == 1 and snap["sim_ok"] == 1
    run(main())


def test_concurrent_tasks_all_complete():
    async def main():
        pool = AsyncWorkerPool(jobs=2)
        results = await asyncio.gather(
            *(pool.run(_square, (i,)) for i in range(6)))
        assert results == [i * i for i in range(6)]
        assert pool.ledger.sim_ok == 6
    run(main())


def test_worker_crash_is_retried_then_reported():
    async def main():
        pool = AsyncWorkerPool(jobs=1, retries=1)
        with pytest.raises(TaskCrashed) as err:
            await pool.run(_crash, (), tag="boom")
        assert "gave up after 2 attempt(s)" in str(err.value)
        snap = pool.ledger.snapshot()
        assert snap["sim_crashed"] == 2
        assert snap["sim_retried"] == 1
        assert snap["sim_exhausted"] == 1
    run(main())


def test_timeout_kills_the_worker():
    async def main():
        pool = AsyncWorkerPool(jobs=1, task_timeout=0.3, retries=0)
        start = time.monotonic()
        with pytest.raises(TaskTimedOut):
            await pool.run(_sleep_forever, ())
        assert time.monotonic() - start < 5.0, (
            "the hung worker must be killed, not joined to completion")
        assert pool.ledger.sim_timeout == 1
    run(main())


def test_task_exception_is_not_retried():
    async def main():
        pool = AsyncWorkerPool(jobs=1, retries=3)
        with pytest.raises(TaskFailed) as err:
            await pool.run(_raise, ())
        assert err.value.error_type == "ValueError"
        assert "deterministic failure" in err.value.message
        assert pool.ledger.sim_attempts == 1, (
            "a deterministic exception re-raises identically; retrying "
            "it would just burn workers")
    run(main())


def test_cancellation_kills_the_inflight_child():
    async def main():
        pool = AsyncWorkerPool(jobs=1, task_timeout=600.0)
        task = asyncio.ensure_future(pool.run(_sleep_forever, ()))
        while pool.ledger.sim_attempts == 0:
            await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert pool.ledger.sim_cancelled == 1
        # The semaphore slot was released: the pool is immediately
        # usable again (a leaked child would hold the slot).
        assert await asyncio.wait_for(pool.run(_square, (3,)), 30) == 9
    run(main())


def test_chaos_kill_is_a_real_crash_and_retry_recovers():
    killed = []

    def chaos(tag, attempt):
        if attempt == 1:
            killed.append(tag)
            return "kill"
        return None

    async def main():
        pool = AsyncWorkerPool(jobs=1, retries=1, chaos=chaos)
        result = await pool.run(_square, (5,), tag="victim")
        assert result == 25
        assert killed == ["victim"]
        snap = pool.ledger.snapshot()
        assert snap["sim_crashed"] == 1 and snap["sim_retried"] == 1
        assert snap["sim_ok"] == 1
    run(main())


def test_failures_and_successes_feed_the_breaker():
    async def main():
        breaker = CircuitBreaker(threshold=2, reset_timeout=60.0)
        pool = AsyncWorkerPool(jobs=1, retries=0, breaker=breaker,
                               chaos=lambda _tag, _attempt: "kill")
        for _ in range(2):
            with pytest.raises(TaskCrashed):
                await pool.run(_square, (1,))
        assert breaker.state == "open"
    run(main())


def test_ledger_attempts_always_balance():
    def chaos(tag, attempt):
        return "kill" if tag == "die" and attempt == 1 else None

    async def main():
        ledger = ServingLedger()
        pool = AsyncWorkerPool(jobs=2, retries=1, ledger=ledger, chaos=chaos)
        await pool.run(_square, (2,), tag="live")
        await pool.run(_square, (3,), tag="die")
        with pytest.raises(TaskFailed):
            await pool.run(_raise, (), tag="raise")
        snap = ledger.snapshot()
        assert snap["sim_attempts"] == (
            snap["sim_ok"] + snap["sim_crashed"] + snap["sim_timeout"]
            + snap["sim_error"] + snap["sim_cancelled"])
        assert (snap["sim_crashed"] + snap["sim_timeout"]
                == snap["sim_retried"] + snap["sim_exhausted"])
    run(main())


def test_closed_pool_refuses_work():
    async def main():
        pool = AsyncWorkerPool(jobs=1)
        await pool.close()
        with pytest.raises(Exception):
            await pool.run(_square, (1,))
    run(main())


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AsyncWorkerPool(jobs=0)
    with pytest.raises(ValueError):
        AsyncWorkerPool(task_timeout=0)
    with pytest.raises(ValueError):
        AsyncWorkerPool(retries=-1)


# ----------------------------------------------------------------------
# warm workers
# ----------------------------------------------------------------------
def _reaped(pid):
    """True once ``pid`` is gone: dead *and* waited for."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_consecutive_attempts_reuse_one_worker():
    async def main():
        pool = AsyncWorkerPool(jobs=1)
        pids = [await pool.run(_pid, ()) for _ in range(3)]
        assert len(set(pids)) == 1 and pids[0] != os.getpid()
        assert pool.ledger.sim_attempts == pool.ledger.sim_ok == 3
        await pool.close()
    run(main())


async def _fail_by_crash(pool):
    with pytest.raises(TaskCrashed):
        await pool.run(_crash, ())


async def _fail_by_timeout(pool):
    pool.task_timeout = 0.3
    with pytest.raises(TaskTimedOut):
        await pool.run(_sleep_forever, ())
    pool.task_timeout = 30.0


async def _fail_by_cancel(pool):
    task = asyncio.ensure_future(pool.run(_sleep_forever, ()))
    while pool.ledger.sim_attempts < 2:
        await asyncio.sleep(0.01)
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task


async def _fail_by_chaos_kill(pool):
    pool.chaos = lambda tag, attempt: "kill" if tag == "victim" else None
    with pytest.raises(TaskCrashed):
        await pool.run(_square, (2,), tag="victim")


@pytest.mark.parametrize("fail", [_fail_by_crash, _fail_by_timeout,
                                  _fail_by_cancel, _fail_by_chaos_kill],
                         ids=["crash", "timeout", "cancel", "chaos-kill"])
def test_failed_attempt_replaces_the_worker(fail):
    async def main():
        pool = AsyncWorkerPool(jobs=1, retries=0)
        first = await pool.run(_pid, ())
        await fail(pool)
        assert _reaped(first), "the failed attempt's worker is reaped"
        second = await pool.run(_pid, ())
        assert second != first, "the next attempt gets a fresh fork"
        snap = pool.ledger.snapshot()
        assert snap["sim_attempts"] == 3 and snap["sim_ok"] == 2
        await pool.close()
    run(main())


def test_idle_worker_killed_from_outside_costs_no_attempt():
    # The CI churn job SIGKILLs whatever child it finds, idle or busy.
    async def main():
        pool = AsyncWorkerPool(jobs=1, retries=0)
        first = await pool.run(_pid, ())
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while first in _child_pids():  # waits for (and reaps) the death
            assert time.monotonic() < deadline
            await asyncio.sleep(0.01)
        second = await pool.run(_pid, ())
        assert second != first
        snap = pool.ledger.snapshot()
        assert snap["sim_crashed"] == 0
        assert snap["sim_attempts"] == snap["sim_ok"] == 2
        await pool.close()
    run(main())


def test_close_reaps_every_worker():
    async def main():
        before = _child_pids()
        pool = AsyncWorkerPool(jobs=2)
        pids = await asyncio.gather(*(pool.run(_pid, ())
                                      for _ in range(6)))
        assert len(set(pids)) <= 2
        assert set(pids) <= _child_pids(), "workers stay warm"
        await pool.close()
        assert _child_pids() - before == set()
        assert all(_reaped(pid) for pid in pids)
    run(main())


def test_unclosed_pool_does_not_block_interpreter_exit():
    # The signal handler mirrors the service's: a worker forked under
    # it must still die of the SIGTERM sent to daemonic children at
    # exit.
    script = textwrap.dedent("""
        import asyncio, signal
        from repro.serve import AsyncWorkerPool

        def _square(x):
            return x * x

        async def main():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, lambda: None)
            pool = AsyncWorkerPool(jobs=2)
            assert await pool.run(_square, (3,)) == 9

        asyncio.run(main())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 0, result.stderr


def _gone(pid):
    """Dead, whether or not the adopting init has reaped it yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_workers_exit_when_their_parent_is_killed():
    # A SIGKILLed parent runs no cleanup; its idle workers must notice
    # the EOF on their pipes and exit on their own.
    script = textwrap.dedent("""
        import asyncio, os, time
        from repro.serve import AsyncWorkerPool

        def _pid():
            return os.getpid()

        async def main():
            pool = AsyncWorkerPool(jobs=2)
            pids = await asyncio.gather(pool.run(_pid, ()),
                                        pool.run(_pid, ()))
            print(*sorted(set(pids)), flush=True)
            time.sleep(60)

        asyncio.run(main())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "the script never reported its workers"
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert workers
        finally:
            proc.kill()
    deadline = time.monotonic() + 10
    while not all(_gone(pid) for pid in workers):
        assert time.monotonic() < deadline, "orphaned workers linger"
        time.sleep(0.05)


def test_warm_worker_reuse_leaves_results_bit_identical():
    query = CapacityQuery(workload="wordcount", slo_seconds=1.0,
                          data_scale=0.05)
    descs = candidate_descriptors(query, 2)
    first, then = descs[-1], descs[0]
    assert first["engine"] != then["engine"]

    async def main():
        warm = AsyncWorkerPool(jobs=1)
        pid_a, _ = await warm.run(_in_worker, (evaluate_candidate, first))
        pid_b, reused = await warm.run(_in_worker,
                                       (evaluate_candidate, then))
        await warm.close()
        assert pid_a == pid_b, "both candidates ran in one warm worker"
        fresh = AsyncWorkerPool(jobs=1)
        pid_f, alone = await fresh.run(_in_worker,
                                       (evaluate_candidate, then))
        await fresh.close()
        assert pid_f != pid_b
        assert digest_payload(reused) == digest_payload(alone)
    run(main())

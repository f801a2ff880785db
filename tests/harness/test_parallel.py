"""Tests for the parallel experiment harness.

The load-bearing claim (see ``repro/harness/parallel.py``) is that a
parallel run is *bit-identical* to the serial one: every run is an
independently seeded simulation and results are collected in submission
order.  These tests pin that claim with canonical digests over full
figure payloads, and cover the failure modes (worker exceptions, worker
crashes) and the ``jobs`` resolution rules.
"""

import math
import multiprocessing
import os
import time

import pytest

from repro.config.presets import wordcount_grep_preset
from repro.harness import figures
from repro.harness.parallel import (ENV_JOBS, RETRY_BACKOFF, TaskFailure,
                                    _Worker, parallel_map, resolve_jobs,
                                    retry_delay, robust_map)
from repro.harness.sweep import sweep
from repro.resilience import default_workloads
from repro.resilience.sweep import _cell_task
from repro.validation.digest import (digest_payload, fault_payload,
                                     scaling_payload)
from repro.workloads import WordCount

GiB = 2**30


# ----------------------------------------------------------------------
# serial == parallel, by canonical digest
# ----------------------------------------------------------------------
def test_scaling_figure_parallel_matches_serial():
    serial = figures.fig01_wordcount_weak(trials=2, nodes=(2, 4))
    fanned = figures.fig01_wordcount_weak(trials=2, nodes=(2, 4), jobs=2)
    assert (digest_payload(scaling_payload(serial))
            == digest_payload(scaling_payload(fanned)))


def test_fault_figure_parallel_matches_serial():
    serial = figures.fig18_fault_recovery(nodes=4, fractions=(0.5,))
    fanned = figures.fig18_fault_recovery(nodes=4, fractions=(0.5,), jobs=2)
    assert (digest_payload(fault_payload(serial))
            == digest_payload(fault_payload(fanned)))


def test_sweep_parallel_matches_serial():
    workload = WordCount(2 * 24 * GiB)
    cfg = wordcount_grep_preset(2)
    grid = {"spark.default_parallelism": [64, 384],
            "hdfs_block_size": [128 * 2**20, 256 * 2**20]}
    serial = sweep("spark", workload, cfg, grid, trials=2, base_seed=7)
    fanned = sweep("spark", workload, cfg, grid, trials=2, base_seed=7,
                   jobs=2)
    assert all(not math.isnan(float(r["mean_seconds"])) for r in serial)
    assert serial == fanned


# ----------------------------------------------------------------------
# parallel_map mechanics
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _die(_x):
    os._exit(1)


def test_parallel_map_preserves_task_order():
    tasks = [(i,) for i in range(20)]
    assert parallel_map(_square, tasks, jobs=4) == [i * i for i in range(20)]


def test_parallel_map_serial_path_runs_in_process():
    # jobs=1 must not spawn workers: a closure (unpicklable) works.
    seen = []
    assert parallel_map(lambda x: seen.append(x) or x, [(1,), (2,)],
                        jobs=1) == [1, 2]
    assert seen == [1, 2]


def test_parallel_map_single_task_stays_serial():
    # One task short-circuits to serial even with jobs > 1.
    assert parallel_map(lambda x: x + 1, [(41,)], jobs=8) == [42]


def test_parallel_map_serial_failure_keeps_its_type_and_names_the_task():
    # In process, the original exception type survives and the message
    # names the failing task: index, function and arguments.
    with pytest.raises(ValueError) as info:
        parallel_map(_flaky, [(1,), (13,)], jobs=1)
    assert "task #1" in str(info.value)
    assert "_flaky" in str(info.value) and "13" in str(info.value)


def _mark_unless(mode, marker):
    """Raise, crash the worker, or record that this task finished."""
    if mode == "raise":
        raise ValueError("unlucky")
    if mode == "crash":
        os._exit(1)
    with open(marker, "w") as fh:
        fh.write("done")
    return marker


@pytest.mark.parametrize("mode, kind, error_type", [
    ("raise", "exception", "ValueError: unlucky"),
    ("crash", "crash", "TaskCrashed"),
], ids=["raise", "crash"])
def test_parallel_map_failure_is_a_runtime_error_after_the_rest_finish(
        mode, kind, error_type, tmp_path):
    before = _child_pids()
    tasks = [("ok", str(tmp_path / f"{i}")) for i in range(6)]
    for i in (1, 4):
        tasks[i] = (mode, str(tmp_path / f"{i}"))
    with pytest.raises(RuntimeError) as info:
        parallel_map(_mark_unless, tasks, jobs=2)
    # The lowest failed task, named like TaskFailure.describe().
    assert type(info.value) is RuntimeError
    text = str(info.value)
    assert text.startswith(f"task #1 _mark_unless{tasks[1]!r}: {kind} "), text
    assert error_type in text
    # Every other task still ran to completion, and no worker is left.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "2", "3", "5"]
    assert _child_pids() - before == set()


# ----------------------------------------------------------------------
# robust_map: graceful degradation
# ----------------------------------------------------------------------
def _flaky(x):
    if x == 13:
        raise ValueError("unlucky")
    return x * 10


def _hang(_x):
    time.sleep(60)


def test_robust_map_isolates_exceptions():
    for jobs in (1, 2):
        results, failures = robust_map(_flaky, [(1,), (13,), (3,)],
                                       jobs=jobs)
        assert results == [10, None, 30]
        assert len(failures) == 1
        f = failures[0]
        assert (f.index, f.kind, f.error_type) == (1, "exception",
                                                   "ValueError")
        assert "unlucky" in f.message and "13" in f.args_repr


def test_robust_map_isolates_crashes():
    results, failures = robust_map(_die, [(1,)], jobs=2)
    assert results == [None]
    assert failures[0].kind == "crash"


def test_robust_map_kills_hung_workers():
    start = time.monotonic()
    results, failures = robust_map(_hang, [(1,)], jobs=2, timeout=0.5)
    assert time.monotonic() - start < 30
    assert results == [None]
    assert (failures[0].kind, failures[0].error_type) == ("timeout",
                                                          "TaskTimedOut")


# ----------------------------------------------------------------------
# the attempt policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind, attempts, retries, delay", [
    ("exception", 1, 0, None),
    ("exception", 1, 5, None),     # seeded: it would raise again
    ("crash", 1, 0, None),
    ("crash", 1, 1, RETRY_BACKOFF),
    ("crash", 2, 1, None),
    ("timeout", 1, 3, RETRY_BACKOFF),
    ("timeout", 2, 3, 2 * RETRY_BACKOFF),
    ("timeout", 3, 3, 4 * RETRY_BACKOFF),
    ("timeout", 4, 3, None),
])
def test_retry_delay_policy(kind, attempts, retries, delay):
    assert retry_delay(kind, attempts, retries) == delay


@pytest.mark.parametrize("jobs", [1, 2])
def test_robust_map_does_not_retry_exceptions(jobs):
    results, failures = robust_map(_flaky, [(13,)], jobs=jobs, retries=2)
    assert results == [None]
    assert (failures[0].kind, failures[0].attempts) == ("exception", 1)


def test_robust_map_retries_crashes_and_records_attempts():
    results, failures = robust_map(_die, [(1,)], jobs=2, retries=2)
    assert results == [None]
    f = failures[0]
    assert (f.kind, f.error_type, f.attempts) == ("crash", "TaskCrashed", 3)
    assert "3 attempt(s)" in f.describe()


def _crash_once(marker):
    """Crash the worker on the first attempt only."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return "recovered"


def test_robust_map_retry_recovers_a_crashed_attempt(tmp_path):
    marker = str(tmp_path / "crashed")
    results, failures = robust_map(_crash_once, [(marker,)], jobs=2,
                                   retries=1)
    assert (results, failures) == (["recovered"], [])


# ----------------------------------------------------------------------
# warm workers
# ----------------------------------------------------------------------
def _pid(_x):
    return os.getpid()


def _pid_unless(mode, pid_file):
    """Record this worker's pid, then return it, crash or hang."""
    with open(pid_file, "w") as fh:
        fh.write(str(os.getpid()))
    if mode == "crash":
        os._exit(1)
    if mode == "hang":
        time.sleep(60)
    return os.getpid()


def _reaped(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_robust_map_reuses_warm_workers_and_reaps_them():
    before = _child_pids()
    results, failures = robust_map(_pid, [(i,) for i in range(8)], jobs=2)
    assert not failures
    assert len(set(results)) <= 2 and os.getpid() not in results
    assert _child_pids() - before == set()
    assert all(_reaped(pid) for pid in results)


@pytest.mark.parametrize("mode", ["crash", "hang"])
def test_robust_map_replaces_a_failed_worker(mode, tmp_path):
    before = _child_pids()
    pid_file = tmp_path / "pid"
    tasks = [(mode, str(pid_file))] + [("ok", str(tmp_path / f"{i}"))
                                       for i in range(4)]
    results, failures = robust_map(_pid_unless, tasks, jobs=2, timeout=2.0)
    assert [(f.index, f.kind) for f in failures] == [
        (0, "crash" if mode == "crash" else "timeout")]
    assert _reaped(int(pid_file.read_text()))
    assert _child_pids() - before == set()


def _ask(worker, fn, *args):
    worker.send(fn, args)
    assert worker.conn.poll(120), "the worker never replied"
    reply = worker.conn.recv()
    assert reply[0] == "ok", reply
    return reply[1]


def test_warm_worker_cell_is_bit_identical_to_a_fresh_one():
    (name_a, wl_a, cfg_a), (name_b, wl_b, cfg_b) = [
        w for w in default_workloads(nodes=4)
        if w[0] in ("terasort", "wordcount")]
    cell_a = ("flink", wl_a, cfg_a, name_a, 1.0, 0, 3, 0, True)
    cell_b = ("spark", wl_b, cfg_b, name_b, 1.0, 0, 7, 0, True)
    warm, fresh = _Worker(), _Worker()
    try:
        _ask(warm, _cell_task, *cell_a)
        reused = _ask(warm, _cell_task, *cell_b)
        alone = _ask(fresh, _cell_task, *cell_b)
    finally:
        warm.stop()
        fresh.stop()
    assert digest_payload(reused) == digest_payload(alone)


def test_task_failure_describe_is_informative():
    f = TaskFailure(index=4, fn_name="_cell_task", args_repr="('spark',)",
                    kind="timeout", error_type="TaskTimedOut",
                    message="exceeded 5.0s")
    text = f.describe()
    assert "task #4" in text and "_cell_task" in text
    assert "timeout" in text


# ----------------------------------------------------------------------
# jobs resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(ENV_JOBS, raising=False)
    assert resolve_jobs() == 1


def test_resolve_jobs_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENV_JOBS, "8")
    assert resolve_jobs(3) == 3
    assert resolve_jobs() == 8


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    # 0 = "use every core", like make -j / xargs -P 0.
    cores = os.cpu_count() or 1
    assert resolve_jobs(0) == cores
    monkeypatch.setenv(ENV_JOBS, "0")
    assert resolve_jobs() == cores


def test_resolve_jobs_rejects_bad_values(monkeypatch):
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    monkeypatch.setenv(ENV_JOBS, "many")
    with pytest.raises(ValueError):
        resolve_jobs()

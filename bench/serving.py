"""The ``serve`` workload: a real ``repro serve`` process, closed loop.

Two client connections each send their next ``/v1/plan`` request only
after the previous one answered (the service closes every connection
after one response, so a connection here is one request at a time).
Requests come from :mod:`stream` in order.  The loop runs until the
measuring window has elapsed and at least ``MIN_REQUESTS`` requests
have completed; those first requests carry the pinned answer digests.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stream import iter_stream

CONNECTIONS = 2
#: wall_s of this workload is the median time to complete this many
#: consecutive requests.
BLOCK = 100
MIN_REQUESTS = 300
#: Restarts for setup_s replay this many journal records, so set-up
#: cost does not grow with how many requests the window happened to fit.
SETUP_RECORDS = 300
SERVER_ARGS = ("serve", "--port", "0", "--jobs", "2")
BANNER = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


@dataclass
class Reply:
    index: int
    kind: str
    first: int
    status: int
    start_ns: int
    end_ns: int
    answer_digest: Optional[str]
    cached: Optional[bool]
    cells: int

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns


class ServerError(RuntimeError):
    """The service did not start, or did not drain cleanly."""


def server_command(root: Path, cache: Path,
                   spool: Optional[Path] = None) -> List[str]:
    if spool is None:
        return [sys.executable, "-m", "repro", *SERVER_ARGS,
                "--cache", str(cache)]
    return [sys.executable, str(root / "bench" / "serve_launcher.py"),
            str(spool), *SERVER_ARGS, "--cache", str(cache)]


def start_server(cmd: List[str], env: Dict[str, str], cwd: Path
                 ) -> Tuple[subprocess.Popen, int, int]:
    """Spawn the service; returns (process, port, ns until it listens)."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env,
                            cwd=str(cwd))
    seen = []
    for line in proc.stdout:
        match = BANNER.search(line)
        if match:
            return proc, int(match.group(1)), time.perf_counter_ns() - start
        seen.append(line)
    proc.wait()
    raise ServerError(f"repro serve exited with code {proc.returncode} "
                      f"before listening: {''.join(seen)[-2000:]}")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM, then require a clean drain (exit 0, 'drained' line)."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ServerError("repro serve did not drain within 60 s") from None
    if proc.returncode != 0 or "drained" not in out:
        raise ServerError(f"repro serve exited with code {proc.returncode}: "
                          f"{out[-2000:]}")


async def http(port: int, method: str, path: str,
               body: Optional[dict] = None) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 120)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)
    if len(status) < 2 or not status[1].isdigit():
        raise ValueError(f"not an HTTP reply: {raw[:80]!r}")
    return int(status[1]), json.loads(payload)


async def drive(port: int, seed: int, seconds: float
                ) -> Tuple[Dict[int, Reply], int, int, int]:
    """The closed loop.  Returns (replies by index, start ns, end ns,
    how many times a client waited for a request it depends on)."""
    stream = iter_stream(seed)
    replies: Dict[int, Reply] = {}
    done: Dict[int, asyncio.Event] = {}
    waits = 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)

    async def client() -> None:
        nonlocal waits
        while (time.perf_counter_ns() < deadline
               or len(replies) < MIN_REQUESTS):
            req = next(stream, None)
            if req is None:
                return
            done.setdefault(req.index, asyncio.Event())
            if req.after is not None:
                dependency = done.setdefault(req.after, asyncio.Event())
                if not dependency.is_set():
                    waits += 1
                    await dependency.wait()
            t0 = time.perf_counter_ns()
            try:
                status, payload = await http(port, "POST", "/v1/plan",
                                             req.body)
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                status, payload = 0, {"error": repr(exc)}
            t1 = time.perf_counter_ns()
            replies[req.index] = Reply(
                index=req.index, kind=req.kind, first=req.first,
                status=status, start_ns=t0, end_ns=t1,
                answer_digest=payload.get("answer_digest"),
                cached=payload.get("cached"),
                cells=len(payload.get("cells", ())))
            done[req.index].set()

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return replies, start, time.perf_counter_ns(), waits


def block_times(replies: Dict[int, Reply], start_ns: int) -> List[int]:
    """Time to complete each successive ``BLOCK`` of requests (ns)."""
    ends = sorted(r.end_ns for r in replies.values())
    marks = [start_ns] + ends[BLOCK - 1::BLOCK]
    return [b - a for a, b in zip(marks, marks[1:])]


def check_replies(replies: Dict[int, Reply]) -> Tuple[List[str], int]:
    """Per-request correctness; returns (problems, expected attempts).

    Every request must answer 200; a repeat must be an answer-cache hit
    with its first answer's digest; cold and cell requests are fresh
    answers.  Only cold requests simulate, one attempt per candidate.
    """
    problems = []
    attempts = 0
    for i in sorted(replies):
        r = replies[i]
        if r.status != 200:
            problems.append(f"request {i} ({r.kind}): HTTP {r.status}")
            continue
        if r.kind == "repeat":
            first = replies[r.first]
            if r.cached is not True or r.answer_digest != first.answer_digest:
                problems.append(f"request {i}: repeat of {r.first} was not "
                                f"served its first answer from the cache")
        elif r.cached is not False:
            problems.append(f"request {i} ({r.kind}): new query served "
                            f"from the answer cache")
        if r.kind == "cold":
            attempts += r.cells
    return problems, attempts


def copy_journal_prefix(cache: Path, dest: Path, records: int) -> None:
    dest.mkdir(parents=True)
    shutil.copy(cache / "manifest.json", dest / "manifest.json")
    with open(cache / "journal.jsonl", encoding="utf-8") as src, \
            open(dest / "journal.jsonl", "w", encoding="utf-8") as out:
        for n, line in enumerate(src):
            if n == records:
                break
            out.write(line)


def restart_times(root: Path, cache: Path, env: Dict[str, str], cwd: Path,
                  count: int) -> List[int]:
    """Cold starts of the service on an existing journal (ns each)."""
    times = []
    for _ in range(count):
        proc, _port, ns = start_server(server_command(root, cache), env, cwd)
        try:
            stop_server(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(ns)
    return times


def server_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_JOBS", None)
    return env

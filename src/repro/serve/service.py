"""The capacity-advisor service: ``python -m repro serve``.

A long-running asyncio HTTP service (stdlib only — hand-rolled
HTTP/1.1 over :func:`asyncio.start_server`, one request per
connection) that answers the operator question the paper leaves open:
*what is the smallest cluster size × engine × configuration that meets
this SLO for this workload?*  Planning queries fan candidate
configurations out as simulations over process-isolated workers
(:class:`~repro.serve.pool.AsyncWorkerPool`); answers are cached by
canonical digest at two tiers (whole answer, individual candidate) and
re-verified on every read (:class:`~repro.serve.cache.DigestCache`).

Robustness is the contract, not a wishlist — each guarantee maps to a
ledger bucket and a chaos test:

* **deadlines cancel work** — a request past its deadline gets a 504
  *and* its in-flight simulation worker is SIGKILLed (no orphaned work);
* **bounded admission** — more than ``queue_limit`` concurrent plans
  sheds with 429 + ``Retry-After``, it never queues unboundedly;
* **circuit breaker** — repeated worker crashes/timeouts trip it;
  while open, plans shed with 503 + ``Retry-After`` instead of feeding
  a sick pool; half-open probes recover it;
* **crash retry** — worker deaths fail only the attempt they hit, and
  are retried on a fresh worker after a doubling delay before the
  request fails with 500;
* **verified cache** — corrupt entries are quarantined and recomputed,
  never served;
* **liveness vs readiness** — ``/healthz`` answers as long as the loop
  runs; ``/readyz`` says whether new work is welcome;
* **graceful drain** — SIGTERM stops admission, lets in-flight
  requests finish within ``drain_grace``, sheds the rest explicitly,
  reaps the simulation workers, flushes the cache journal, and leaves
  ``in_flight == 0``.

Every request terminates in exactly one
:class:`~repro.serve.ledger.ServingLedger` bucket;
``InvariantChecker.audit_serving`` proves the books balance.

Endpoints::

    GET  /healthz    liveness (200 while the loop is alive, even draining)
    GET  /readyz     readiness (200 accepting / 503 draining or breaker open)
    GET  /statz      ledger + breaker + cache + pool snapshot
    POST /v1/advise  advisor rules only, no simulation
    POST /v1/plan    full capacity plan (body: CapacityQuery fields,
                     optional "deadline_seconds")
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Set, Tuple

from ..workloads.catalogue import build_config, build_workload
from .breaker import CircuitBreaker
from .cache import DigestCache
from .ledger import ServingLedger
from .planner import (CapacityQuery, PlanError, apply_overrides,
                      evaluate_on_pool, plan_capacity_async,
                      _advice_payload, _advise)
from .pool import AsyncWorkerPool, PoolError

__all__ = ["AdvisorService", "MAX_BODY_BYTES"]

#: Largest request body we will read; beyond this is a 413 rejection.
MAX_BODY_BYTES = 64 * 1024


def _json_response(status: int, payload: Any,
                   extra_headers: Tuple[Tuple[str, str], ...] = ()
                   ) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 408: "Request Timeout",
               413: "Payload Too Large", 429: "Too Many Requests",
               500: "Internal Server Error", 503: "Service Unavailable",
               504: "Gateway Timeout"}
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{k}: {v}" for k, v in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class _BadRequest(Exception):
    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status
        self.error = error


class AdvisorService:
    """The fault-tolerant capacity-advisor service.

    ``chaos`` (deterministic fault hook for the chaos harness) is
    passed through to the worker pool; ``clock`` feeds the breaker.
    All tunables mirror the ``repro serve`` CLI flags.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 2, queue_limit: int = 8,
                 default_deadline: float = 30.0,
                 client_timeout: float = 5.0,
                 task_timeout: float = 30.0, retries: int = 1,
                 breaker_threshold: int = 5,
                 breaker_reset: float = 0.5,
                 drain_grace: float = 10.0,
                 cache_store=None, clock=None, chaos=None) -> None:
        if queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {queue_limit}")
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.client_timeout = client_timeout
        self.drain_grace = drain_grace
        self.ledger = ServingLedger()
        breaker_kw: Dict[str, Any] = {}
        if clock is not None:
            breaker_kw["clock"] = clock
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, reset_timeout=breaker_reset,
            max_timeout=30.0,
            on_transition=self._on_breaker_transition, **breaker_kw)
        self.pool = AsyncWorkerPool(
            jobs=jobs, task_timeout=task_timeout, retries=retries,
            ledger=self.ledger, breaker=self.breaker, chaos=chaos)
        self._store = cache_store
        self.cache = DigestCache(store=cache_store)
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._drained = asyncio.Event()
        #: In-flight *work* futures (plan evaluations), cancellable by
        #: the drain; handler tasks are never cancelled directly.
        self._work: Set[asyncio.Task] = set()
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; sets ``self.port`` to the actual
        bound port (useful with ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown()))

    async def serve_forever(self) -> None:
        await self._drained.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish or shed in-flight,
        reap the workers, flush the cache journal.  Idempotent."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight work finish within the grace period...
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_grace)
        except asyncio.TimeoutError:
            # ...then shed what remains, explicitly and accountably.
            for task in list(self._work):
                task.cancel()
            await asyncio.gather(*self._work, return_exceptions=True)
            # The shed handlers still need a tick to send their 503s
            # and settle the in-flight gauge back to zero.
            try:
                await asyncio.wait_for(self._idle.wait(), 5.0)
            except asyncio.TimeoutError:  # pragma: no cover
                pass
        await self.pool.close()
        if self._store is not None:
            self._store.close()
        self._drained.set()

    # -- bookkeeping ---------------------------------------------------
    def _on_breaker_transition(self, previous: str, state: str) -> None:
        if state == "open" and previous == "closed":
            self.ledger.breaker_trips += 1
        elif state == "closed":
            self.ledger.breaker_recoveries += 1

    def _sync_cache_counters(self) -> None:
        snap = self.cache.snapshot()
        self.ledger.cache_lookups = snap["lookups"]
        self.ledger.cache_hits = snap["hits"]
        self.ledger.cache_misses = snap["misses"]
        self.ledger.cache_quarantined = snap["quarantined"]

    def statz(self) -> Dict[str, Any]:
        self._sync_cache_counters()
        return {"ledger": self.ledger.snapshot(),
                "breaker": self.breaker.snapshot(),
                "cache": self.cache.snapshot(),
                "draining": self._draining,
                "queue_limit": self.queue_limit,
                "jobs": self.pool.jobs}

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.ledger.received += 1
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as exc:
                if exc.status == 408:
                    self.ledger.rejected_slow += 1
                else:
                    self.ledger.rejected_invalid += 1
                await self._send(writer,
                                 _json_response(exc.status,
                                                {"error": exc.error}))
                return
            await self._dispatch(writer, method, path, body)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the ledger already has a bucket
        finally:
            # FIN first: a worker forked while this connection was open
            # holds a copy of its socket, so closing our descriptor
            # alone would leave the client waiting for that worker.
            try:
                writer.write_eof()
            except OSError:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Optional[Any]]:
        """Parse one HTTP/1.1 request; :class:`_BadRequest` on garbage,
        oversized bodies, or clients slower than ``client_timeout``."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), self.client_timeout)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise _BadRequest(400, "malformed request line")
            method, path = parts[0].upper(), parts[1]
            content_length = 0
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), self.client_timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        raise _BadRequest(
                            400, "unreadable Content-Length") from None
            if content_length > MAX_BODY_BYTES:
                raise _BadRequest(
                    413, f"body of {content_length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte limit")
            raw = b""
            if content_length:
                raw = await asyncio.wait_for(
                    reader.readexactly(content_length),
                    self.client_timeout)
        except asyncio.TimeoutError:
            raise _BadRequest(
                408, f"client did not deliver the request within "
                     f"{self.client_timeout}s") from None
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "body shorter than "
                                   "Content-Length") from None
        except UnicodeDecodeError:
            raise _BadRequest(400, "undecodable request head") from None
        body: Optional[Any] = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise _BadRequest(400, "body is not valid JSON") from None
        return method, path, body

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        path: str, body: Optional[Any]) -> None:
        # Liveness and introspection stay up during a drain: a dying
        # service that stops answering /healthz looks crashed, not
        # draining.
        if path == "/healthz":
            self._complete()
            await self._send(writer, _json_response(
                200, {"ok": True,
                      "draining": self._draining}))
            return
        if path == "/readyz":
            self._complete()
            ready = not self._draining and not self.breaker.blocking()
            await self._send(writer, _json_response(
                200 if ready else 503,
                {"ready": ready, "draining": self._draining,
                 "breaker": self.breaker.state}))
            return
        if path == "/statz":
            self._complete()
            await self._send(writer, _json_response(200, self.statz()))
            return
        if path not in ("/v1/plan", "/v1/advise"):
            self.ledger.rejected_invalid += 1
            await self._send(writer, _json_response(
                404, {"error": f"unknown path {path!r}"}))
            return
        if method != "POST":
            self.ledger.rejected_invalid += 1
            await self._send(writer, _json_response(
                405, {"error": f"{path} expects POST, got {method}"}))
            return
        if self._draining:
            self.ledger.admitted += 1
            self.ledger.shed_drain += 1
            await self._send(writer, _json_response(
                503, {"error": "service is draining",
                      "shed": "drain"}))
            return
        if path == "/v1/advise":
            await self._handle_advise(writer, body)
            return
        await self._handle_plan(writer, body)

    def _complete(self) -> None:
        """A trivially-served request: admitted and completed at once."""
        self.ledger.admitted += 1
        self.ledger.completed += 1

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    # -- /v1/advise ----------------------------------------------------
    async def _handle_advise(self, writer: asyncio.StreamWriter,
                             body: Optional[Any]) -> None:
        """Advisor rules only — cheap enough to answer inline."""
        try:
            payload = self._advise_payload(body)
        except _BadRequest as exc:
            self.ledger.rejected_invalid += 1
            await self._send(writer, _json_response(
                exc.status, {"error": exc.error}))
            return
        self.ledger.admitted += 1
        self.ledger.in_flight += 1
        try:
            self.ledger.completed += 1
            await self._send(writer, _json_response(200, payload))
        finally:
            self.ledger.in_flight -= 1

    def _advise_payload(self, body: Optional[Any]) -> Dict[str, Any]:
        if not isinstance(body, dict):
            raise _BadRequest(400, "advise body must be a JSON object")
        try:
            workload = body["workload"]
            engine = body["engine"]
            nodes = body["nodes"]
        except KeyError as exc:
            raise _BadRequest(
                400, f"advise body needs {exc.args[0]!r}") from None
        if engine not in ("spark", "flink"):
            raise _BadRequest(400, f"unknown engine {engine!r}")
        if not isinstance(nodes, int) or nodes < 1:
            raise _BadRequest(400, "nodes must be a positive integer")
        try:
            config = apply_overrides(
                build_config(workload, nodes), engine,
                dict(body.get("overrides") or {}))
            plan_wl = build_workload(workload, nodes)
        except ValueError as exc:  # PlanError, ConfigError included
            raise _BadRequest(400, str(exc)) from None
        advice = _advise(engine, config, nodes,
                         plan_wl.jobs(engine)[0])
        return {"workload": workload, "engine": engine, "nodes": nodes,
                "advice": _advice_payload(advice),
                "fatal": any(a.severity == "fatal" for a in advice)}

    # -- /v1/plan ------------------------------------------------------
    async def _handle_plan(self, writer: asyncio.StreamWriter,
                           body: Optional[Any]) -> None:
        try:
            query, deadline = self._parse_plan_body(body)
        except (PlanError, _BadRequest) as exc:
            status = exc.status if isinstance(exc, _BadRequest) else 400
            self.ledger.rejected_invalid += 1
            await self._send(writer, _json_response(
                status, {"error": str(exc)}))
            return
        self.ledger.admitted += 1
        # Bounded admission: shed rather than queue without limit.
        if self.ledger.in_flight >= self.queue_limit:
            self.ledger.shed_queue_full += 1
            await self._send(writer, _json_response(
                429, {"error": f"queue full "
                               f"({self.queue_limit} in flight)",
                      "shed": "queue_full"},
                (("Retry-After", "1"),)))
            return
        # Open breaker: fail fast instead of feeding a sick pool.
        if self.breaker.blocking():
            self.ledger.shed_breaker += 1
            retry = max(1, int(self.breaker.retry_after() + 0.5))
            await self._send(writer, _json_response(
                503, {"error": "worker pool circuit breaker is open",
                      "shed": "breaker",
                      "breaker": self.breaker.snapshot()},
                (("Retry-After", str(retry)),)))
            return
        self.ledger.in_flight += 1
        self._idle.clear()
        try:
            await self._run_plan(writer, query, deadline)
        finally:
            self.ledger.in_flight -= 1
            if self.ledger.in_flight == 0:
                self._idle.set()

    async def _run_plan(self, writer: asyncio.StreamWriter,
                        query: CapacityQuery, deadline: float) -> None:
        answer_key = "answer:" + query.digest()
        cached = self.cache.get(answer_key)
        self._sync_cache_counters()
        if cached is not None:
            self.ledger.completed += 1
            self.ledger.completed_cache_hits += 1
            await self._send(writer, _json_response(
                200, dict(cached, cached=True)))
            return
        work = asyncio.ensure_future(self._plan_work(query))
        self._work.add(work)
        work.add_done_callback(self._work.discard)
        try:
            payload = await asyncio.wait_for(work, deadline)
        except asyncio.TimeoutError:
            # wait_for already cancelled the work task, which killed
            # any in-flight worker child: real cancellation.
            self.ledger.failed_deadline += 1
            await self._send(writer, _json_response(
                504, {"error": f"deadline of {deadline:g}s exceeded",
                      "query_digest": query.digest()}))
            return
        except asyncio.CancelledError:
            if self._draining:
                self.ledger.shed_drain += 1
                await self._send(writer, _json_response(
                    503, {"error": "shed during drain",
                          "shed": "drain"}))
                return
            raise
        except PoolError as exc:
            self.ledger.failed_worker += 1
            await self._send(writer, _json_response(
                500, {"error": f"worker pool exhausted: {exc}",
                      "query_digest": query.digest()}))
            return
        except Exception as exc:  # noqa: BLE001 - terminal bucket
            self.ledger.failed_internal += 1
            await self._send(writer, _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}))
            return
        self.cache.put(answer_key, payload)
        self._sync_cache_counters()
        self.ledger.completed += 1
        await self._send(writer, _json_response(
            200, dict(payload, cached=False)))

    def _parse_plan_body(self, body: Optional[Any]
                         ) -> Tuple[CapacityQuery, float]:
        if not isinstance(body, dict):
            raise PlanError("plan body must be a JSON object")
        body = dict(body)
        deadline = body.pop("deadline_seconds", self.default_deadline)
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            raise PlanError(f"deadline_seconds must be a positive "
                            f"number, got {deadline!r}")
        return CapacityQuery.from_payload(body), float(deadline)

    async def _plan_work(self, query: CapacityQuery) -> Dict[str, Any]:
        """The search, with candidate-level caching over the pool."""
        return await plan_capacity_async(
            query, lambda descs: evaluate_on_pool(self.pool, descs,
                                                  self.cache))

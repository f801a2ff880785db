"""AdvisorService routes, shedding, deadlines, drain — in-process."""

import asyncio
import multiprocessing
import time

import pytest

from repro.serve import AdvisorService
from repro.validation import InvariantChecker

from .client import request, slow_request

QUICK = {"workload": "wordcount", "slo_seconds": 200.0,
         "nodes_candidates": [2], "data_scale": 0.05}


def audit(service, draining=False):
    checker = InvariantChecker()
    checker.audit_serving(dict(service.ledger.snapshot(),
                               draining=draining))
    checker.require_clean("serving ledger")


def run_service_test(body, **service_kw):
    async def main():
        service_kw.setdefault("jobs", 2)
        service = AdvisorService(port=0, **service_kw)
        await service.start()
        try:
            await body(service)
        finally:
            await service.shutdown()
        audit(service, draining=True)
    asyncio.run(main())


# ----------------------------------------------------------------------
def test_health_ready_stats_endpoints():
    async def body(service):
        status, payload = await request(service.port, "GET", "/healthz")
        assert (status, payload["ok"]) == (200, True)
        status, payload = await request(service.port, "GET", "/readyz")
        assert status == 200 and payload["ready"]
        status, payload = await request(service.port, "GET", "/statz")
        assert status == 200
        assert payload["ledger"]["received"] == 3
        assert payload["breaker"]["state"] == "closed"
    run_service_test(body)


def test_reply_ends_while_a_forked_child_holds_the_socket():
    # A worker forked while a connection is open inherits its socket;
    # the reply must still end at once, not when that worker exits.
    async def body(service):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       service.port)
        while service.ledger.received == 0:  # the handler owns it now
            await asyncio.sleep(0.01)
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(3,), daemon=True)
        child.start()
        try:
            writer.write(b"GET /healthz HTTP/1.1\r\n"
                         b"Content-Length: 0\r\n\r\n")
            await writer.drain()
            start = time.monotonic()
            raw = await asyncio.wait_for(reader.read(), 10)
            elapsed = time.monotonic() - start
        finally:
            child.kill()
            child.join()
            writer.close()
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert elapsed < 0.5, f"EOF took {elapsed:.3f}s"
    run_service_test(body)


def test_plan_then_cache_hit_is_digest_identical():
    async def body(service):
        status, first = await request(service.port, "POST", "/v1/plan",
                                      QUICK)
        assert status == 200 and first["cached"] is False
        assert first["answer"]["feasible"]
        status, second = await request(service.port, "POST", "/v1/plan",
                                       QUICK)
        assert status == 200 and second["cached"] is True
        assert second["answer_digest"] == first["answer_digest"]
        assert service.ledger.completed_cache_hits == 1
    run_service_test(body)


def test_advise_endpoint_runs_the_rules():
    async def body(service):
        status, payload = await request(
            service.port, "POST", "/v1/advise",
            {"workload": "pagerank", "engine": "spark", "nodes": 2})
        assert status == 200
        assert payload["fatal"] is True
        assert all(a["paper_ref"] for a in payload["advice"])
    run_service_test(body)


def test_garbage_requests_are_rejected_not_crashed():
    async def body(service):
        status, _ = await request(service.port, "GET", "/nope")
        assert status == 404
        status, _ = await request(service.port, "GET", "/v1/plan")
        assert status == 405
        status, _ = await request(service.port, "POST", "/v1/plan",
                                  {"workload": "nope", "slo_seconds": 1})
        assert status == 400
        status, _ = await request(service.port, "POST", "/v1/plan",
                                  {"workload": "grep", "slo_seconds": 1,
                                   "turbo": True})
        assert status == 400
        status, _ = await request(
            service.port, "POST", "/v1/advise",
            {"workload": "grep", "engine": "hadoop", "nodes": 2})
        assert status == 400
        assert service.ledger.rejected_invalid == 5
        assert service.ledger.admitted == 0
        # ...and the service is still perfectly healthy.
        status, _ = await request(service.port, "GET", "/healthz")
        assert status == 200
    run_service_test(body)


def test_unparseable_body_is_rejected():
    async def body(service):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       service.port)
        blob = b"{not json"
        writer.write(b"POST /v1/plan HTTP/1.1\r\nContent-Length: "
                     + str(len(blob)).encode() + b"\r\n\r\n" + blob)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 10)
        writer.close()
        assert b" 400 " in raw.partition(b"\r\n")[0] + b" "
        assert service.ledger.rejected_invalid == 1
    run_service_test(body)


def test_slow_client_gets_408_not_a_wedged_acceptor():
    async def body(service):
        status = await slow_request(service.port, timeout=10.0)
        assert status == 408
        assert service.ledger.rejected_slow == 1
        status, _ = await request(service.port, "GET", "/healthz")
        assert status == 200
    run_service_test(body, client_timeout=0.2)


def test_oversized_body_is_rejected_413():
    async def body(service):
        big = {"workload": "x" * (70 * 1024), "slo_seconds": 1}
        status, payload = await request(service.port, "POST",
                                        "/v1/plan", big)
        assert status == 413
        assert "exceeds" in payload["error"]
    run_service_test(body)


def test_deadline_returns_504_and_sheds_the_work():
    async def body(service):
        query = dict(QUICK, deadline_seconds=0.001)
        status, payload = await request(service.port, "POST",
                                        "/v1/plan", query)
        assert status == 504
        assert "deadline" in payload["error"]
        assert service.ledger.failed_deadline == 1
        assert not service._work, "the deadline must cancel the work"
    run_service_test(body)


def test_queue_limit_sheds_with_429():
    async def body(service):
        queries = [dict(QUICK, data_scale=0.05 + i * 0.001)
                   for i in range(8)]
        outcomes = await asyncio.gather(
            *(request(service.port, "POST", "/v1/plan", q)
              for q in queries))
        statuses = sorted(s for s, _ in outcomes)
        assert statuses.count(429) >= 1, statuses
        assert statuses.count(200) >= 1, statuses
        retry_shed = [p for s, p in outcomes if s == 429]
        assert all(p["shed"] == "queue_full" for p in retry_shed)
        snap = service.ledger.snapshot()
        assert snap["shed_queue_full"] == statuses.count(429)
    run_service_test(body, jobs=1, queue_limit=2)


def test_breaker_open_sheds_with_503_and_retry_after():
    async def body(service):
        # Every worker attempt dies with retries=0, so the first
        # query's candidate attempts trip the threshold-2 breaker
        # mid-request: the request itself fails with 500, and every
        # later query is shed at admission with 503.
        status, _ = await request(service.port, "POST", "/v1/plan",
                                  QUICK)
        assert status == 500
        assert service.breaker.state == "open"
        status, payload = await request(
            service.port, "POST", "/v1/plan",
            dict(QUICK, data_scale=0.051))
        assert status == 503 and payload["shed"] == "breaker"
        status, payload = await request(service.port, "GET", "/readyz")
        assert status == 503 and not payload["ready"]
        snap = service.ledger.snapshot()
        assert snap["failed_worker"] == 1
        assert snap["shed_breaker"] == 1
        assert snap["breaker_trips"] == 1
    run_service_test(body, jobs=1, retries=0, breaker_threshold=2,
                     breaker_reset=60.0,
                     chaos=lambda _tag, _attempt: "kill")


def test_drain_sheds_new_requests_and_empties_the_house():
    async def body(service):
        status, _ = await request(service.port, "POST", "/v1/plan",
                                  QUICK)
        assert status == 200
        await service.shutdown()
        # New connections are refused (listener closed)...
        with pytest.raises(OSError):
            await request(service.port, "POST", "/v1/plan", QUICK)
        assert service.ledger.in_flight == 0
    run_service_test(body)


def test_statz_ledger_always_balances_mid_flight():
    async def body(service):
        for i in range(3):
            await request(service.port, "POST", "/v1/plan",
                          dict(QUICK, data_scale=0.05 + i * 0.001))
        _status, payload = await request(service.port, "GET", "/statz")
        checker = InvariantChecker()
        checker.audit_serving(dict(payload["ledger"],
                                   draining=payload["draining"]))
        checker.require_clean("mid-flight statz snapshot")
        assert checker.checks["serving_audit"] == 1
    run_service_test(body)

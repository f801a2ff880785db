"""Deterministic chaos harness for the capacity-advisor service.

One long scenario per test, each an explicit-degradation story:

* worker SIGKILL churn — every first attempt dies, retries recover,
  and the answers are **digest-identical** to an undisturbed service;
* injected cache corruption — the poisoned answer is quarantined and
  recomputed, never served;
* overload burst — concurrent demand beyond the admission queue sheds
  with 429 while admitted requests still complete;
* breaker trip and half-open recovery under a controlled clock;
* graceful drain with requests still in the house.

After every scenario the serving ledger must balance to the last
request (``InvariantChecker.audit_serving``) — the service may degrade,
but every degradation is accounted for.
"""

import asyncio

from repro.serve import AdvisorService
from repro.validation import InvariantChecker

from .client import request

QUICK = {"workload": "wordcount", "slo_seconds": 200.0,
         "nodes_candidates": [2], "data_scale": 0.05}


def audit(service, draining=False):
    checker = InvariantChecker()
    checker.audit_serving(dict(service.ledger.snapshot(),
                               draining=draining))
    checker.require_clean("serving ledger after chaos")


async def start(**kw):
    kw.setdefault("jobs", 2)
    service = AdvisorService(port=0, **kw)
    await service.start()
    return service


# ----------------------------------------------------------------------
def test_sigkill_churn_yields_digest_identical_answers():
    async def main():
        # Baseline: no chaos.
        calm = await start()
        queries = [dict(QUICK, data_scale=0.05 + i * 0.002)
                   for i in range(4)]
        baseline = {}
        for query in queries:
            status, payload = await request(calm.port, "POST",
                                            "/v1/plan", query)
            assert status == 200
            baseline[payload["query_digest"]] = payload["answer_digest"]
        await calm.shutdown()
        audit(calm, draining=True)

        # Chaos: the first attempt of every simulation is SIGKILLed.
        stormy = await start(retries=2, breaker_threshold=100,
                             chaos=lambda _t, attempt:
                             "kill" if attempt == 1 else None)
        for query in queries:
            status, payload = await request(stormy.port, "POST",
                                            "/v1/plan", query)
            assert status == 200, "retries must absorb the churn"
            assert (baseline[payload["query_digest"]]
                    == payload["answer_digest"]), (
                "a crashing worker pool must not change the answer")
        snap = stormy.ledger.snapshot()
        assert snap["sim_crashed"] > 0, "the chaos must have bitten"
        assert snap["sim_retried"] == snap["sim_crashed"]
        assert snap["completed"] == len(queries)
        assert snap["failed"] == 0 and snap["shed"] == 0
        await stormy.shutdown()
        audit(stormy, draining=True)
    asyncio.run(main())


def test_cache_corruption_is_quarantined_and_recomputed():
    async def main():
        service = await start()
        status, first = await request(service.port, "POST", "/v1/plan",
                                      QUICK)
        assert status == 200
        key = "answer:" + first["query_digest"]
        assert service.cache.corrupt(key)
        status, again = await request(service.port, "POST", "/v1/plan",
                                      QUICK)
        assert status == 200
        assert again["cached"] is False, (
            "a corrupt cache entry must be recomputed, not served")
        assert again["answer_digest"] == first["answer_digest"]
        assert service.cache.quarantined == 1
        assert key in service.cache.quarantined_keys
        # Third time: the recomputed entry is a verified hit again.
        status, third = await request(service.port, "POST", "/v1/plan",
                                      QUICK)
        assert third["cached"] is True
        assert third["answer_digest"] == first["answer_digest"]
        await service.shutdown()
        audit(service, draining=True)
    asyncio.run(main())


def test_overload_burst_sheds_explicitly_and_recovers():
    async def main():
        service = await start(jobs=1, queue_limit=2)
        queries = [dict(QUICK, data_scale=0.05 + i * 0.001)
                   for i in range(10)]
        outcomes = await asyncio.gather(
            *(request(service.port, "POST", "/v1/plan", q)
              for q in queries))
        statuses = [s for s, _ in outcomes]
        assert statuses.count(429) >= 1, statuses
        completed = statuses.count(200)
        assert completed >= 1, statuses
        snap = service.ledger.snapshot()
        assert snap["shed_queue_full"] == statuses.count(429)
        assert snap["completed"] == completed
        assert snap["admitted"] == len(queries)
        # The burst passes; the service still answers afterwards.
        status, payload = await request(service.port, "POST",
                                        "/v1/plan", queries[0])
        assert status == 200
        await service.shutdown()
        audit(service, draining=True)
    asyncio.run(main())


def test_breaker_trips_then_half_open_probe_recovers():
    clock = {"now": 0.0}
    hostile = {"on": True}

    def chaos(_tag, _attempt):
        return "kill" if hostile["on"] else None

    async def main():
        service = await start(jobs=1, retries=0, breaker_threshold=2,
                              breaker_reset=5.0,
                              clock=lambda: clock["now"], chaos=chaos)
        # Sick pool: the first query fails and trips the breaker.
        status, _ = await request(service.port, "POST", "/v1/plan",
                                  QUICK)
        assert status == 500
        assert service.breaker.state == "open"
        status, payload = await request(
            service.port, "POST", "/v1/plan",
            dict(QUICK, data_scale=0.051))
        assert status == 503 and payload["shed"] == "breaker"
        assert int(payload["breaker"]["retry_after"]) >= 1

        # Let the first query's abandoned candidate attempts finish
        # crashing while the breaker is still open (absorbed), so none
        # of their failures lands in the half-open window below.
        def settled():
            snap = service.ledger.snapshot()
            return (service.pool._slots._value == service.pool.jobs
                    and snap["sim_retried"] + snap["sim_exhausted"]
                    == snap["sim_crashed"] + snap["sim_timeout"])

        while not settled():
            await asyncio.sleep(0.01)

        # The pool heals; the open window elapses; the next admitted
        # request is the half-open probe and closes the breaker.
        hostile["on"] = False
        clock["now"] = 5.0
        assert service.breaker.state == "half_open"
        status, payload = await request(service.port, "POST",
                                        "/v1/plan", QUICK)
        assert status == 200
        assert service.breaker.state == "closed"
        snap = service.ledger.snapshot()
        assert snap["breaker_trips"] == 1
        assert snap["breaker_recoveries"] == 1
        await service.shutdown()
        audit(service, draining=True)
    asyncio.run(main())


def test_drain_finishes_or_sheds_inflight_and_balances():
    async def main():
        # Workers die forever with a generous retry budget, so an
        # admitted request is guaranteed to still be in flight when
        # the drain starts, and the short grace forces a shed.
        service = await start(jobs=1, retries=50,
                              breaker_threshold=10_000,
                              drain_grace=0.2,
                              chaos=lambda _t, _a: "kill")
        doomed = asyncio.ensure_future(
            request(service.port, "POST", "/v1/plan", QUICK))
        while service.ledger.in_flight == 0:
            await asyncio.sleep(0.01)
        await service.shutdown()
        status, payload = await doomed
        assert status == 503 and payload["shed"] == "drain"
        snap = service.ledger.snapshot()
        assert snap["shed_drain"] == 1
        assert snap["in_flight"] == 0, "the drain must empty the house"
        audit(service, draining=True)
    asyncio.run(main())


def test_full_storm_ledger_still_balances():
    """Everything at once: churn + corruption + burst + drain."""
    counter = {"n": 0}

    def chaos(_tag, attempt):
        counter["n"] += 1
        return "kill" if attempt == 1 and counter["n"] % 3 == 0 else None

    async def main():
        service = await start(jobs=2, queue_limit=3, retries=2,
                              breaker_threshold=1000,
                              chaos=chaos)
        queries = [dict(QUICK, data_scale=0.05 + i * 0.001)
                   for i in range(12)]
        outcomes = await asyncio.gather(
            *(request(service.port, "POST", "/v1/plan", q)
              for q in queries))
        statuses = [s for s, _ in outcomes]
        assert set(statuses) <= {200, 429}, statuses
        # Poison whatever made it into the cache, then re-ask.
        for key in [k for k in list(service.cache._entries)
                    if k.startswith("answer:")][:2]:
            service.cache.corrupt(key)
        for query in queries[:4]:
            status, _ = await request(service.port, "POST", "/v1/plan",
                                      query)
            assert status == 200
        await service.shutdown()
        snap = service.ledger.snapshot()
        assert snap["received"] == (snap["admitted"]
                                    + snap["rejected_invalid"]
                                    + snap["rejected_slow"])
        assert snap["admitted"] == (snap["completed"] + snap["shed"]
                                    + snap["failed"])
        audit(service, draining=True)
    asyncio.run(main())

"""Serving ledger: every request and simulation attempt, accounted.

The robustness claim of :mod:`repro.serve` is not "it never fails" but
"it never fails *silently*": every request the service receives must
terminate in exactly one explicit bucket, and the buckets must balance
— the same discipline :meth:`~repro.validation.InvariantChecker.
audit_streaming` applies to records (``ingested == processed + dropped
+ lost``), applied to traffic.  The chaos harness drives the service
through crashes, corruption and overload and then calls
:meth:`~repro.validation.InvariantChecker.audit_serving` on a ledger
snapshot; any hole in the accounting is a test failure.

Request lifecycle::

    received ──┬── rejected_invalid   (unparseable / oversized request)
               ├── rejected_slow      (client hit the read timeout)
               └── admitted ──┬── completed        (+ cache_hit subset)
                              ├── shed_queue_full  (429, bounded queue)
                              ├── shed_breaker     (503, breaker open)
                              ├── shed_drain       (503, SIGTERM drain)
                              ├── failed_deadline  (504, deadline hit)
                              ├── failed_worker    (500, pool exhausted)
                              └── failed_internal  (500, handler bug)

Simulation-attempt lifecycle (one task = one candidate evaluation, one
attempt = one worker process)::

    sim_attempts == sim_ok + sim_crashed + sim_timeout + sim_error
                    + sim_cancelled
    sim_crashed + sim_timeout == sim_retried + sim_exhausted
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["ServingLedger", "REQUEST_TERMINAL_FIELDS"]

#: Terminal buckets an admitted request may land in (audit: they sum
#: to ``admitted``).
REQUEST_TERMINAL_FIELDS = (
    "completed", "shed_queue_full", "shed_breaker", "shed_drain",
    "failed_deadline", "failed_worker", "failed_internal",
)


@dataclass
class ServingLedger:
    """Monotonic counters plus the in-flight gauge.

    Mutated only from the service's event loop; snapshots are plain
    dicts (digest-friendly, JSON-friendly).
    """

    # -- requests ------------------------------------------------------
    received: int = 0
    admitted: int = 0
    rejected_invalid: int = 0
    rejected_slow: int = 0
    completed: int = 0
    completed_cache_hits: int = 0
    shed_queue_full: int = 0
    shed_breaker: int = 0
    shed_drain: int = 0
    failed_deadline: int = 0
    failed_worker: int = 0
    failed_internal: int = 0
    #: Admitted requests currently in the house (gauge; must be zero
    #: after a drain).
    in_flight: int = 0

    # -- digest-verified cache ----------------------------------------
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_quarantined: int = 0

    # -- circuit breaker ----------------------------------------------
    breaker_trips: int = 0
    breaker_recoveries: int = 0

    # -- simulation attempts (worker pool) ----------------------------
    sim_attempts: int = 0
    sim_ok: int = 0
    sim_crashed: int = 0
    sim_timeout: int = 0
    sim_error: int = 0
    sim_cancelled: int = 0
    sim_retried: int = 0
    sim_exhausted: int = 0

    # ------------------------------------------------------------------
    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_breaker + self.shed_drain

    @property
    def failed(self) -> int:
        return (self.failed_deadline + self.failed_worker
                + self.failed_internal)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, including the derived shed/failed totals."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["shed"] = self.shed
        out["failed"] = self.failed
        return out

    def describe(self) -> str:
        return (f"requests: {self.received} received, {self.admitted} "
                f"admitted -> {self.completed} completed "
                f"({self.completed_cache_hits} cache hits), "
                f"{self.shed} shed, {self.failed} failed; "
                f"cache: {self.cache_hits}/{self.cache_lookups} hits, "
                f"{self.cache_quarantined} quarantined; "
                f"breaker: {self.breaker_trips} trip(s), "
                f"{self.breaker_recoveries} recovery(ies); "
                f"sim: {self.sim_attempts} attempt(s), "
                f"{self.sim_crashed} crash(es), {self.sim_timeout} "
                f"timeout(s), {self.sim_retried} retried, "
                f"{self.sim_exhausted} exhausted")

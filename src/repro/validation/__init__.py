"""Runtime invariant checking and deterministic-replay validation.

The simulator's credibility rests on two properties that used to be
docstring claims only:

* **physical consistency** — bytes are conserved across every capacity,
  the max–min allocator is actually fair and work-conserving, memory
  accounting balances, utilisation stays within physical bounds;
* **bit determinism** — the same seed produces the identical trace.

:mod:`repro.validation.invariants` enforces the first at runtime (attach
an :class:`InvariantChecker`, or pass ``strict=True`` to the harness
runner / ``--strict`` on the CLI).  :mod:`repro.validation.digest`
and :mod:`repro.validation.replay` enforce the second: they hash the
full event+metric trace of a run and compare against golden digests
under ``tests/golden/`` (``repro validate --replay``).

``replay`` is intentionally *not* imported here: it depends on
:mod:`repro.harness.figures`, which itself imports the runner that uses
``invariants`` — import it as ``repro.validation.replay`` when needed.
"""

from .digest import (canonical, digest_payload, resource_payload,
                     scaling_payload, table_payload)
from .invariants import InvariantChecker, InvariantViolation

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "canonical",
    "digest_payload",
    "scaling_payload",
    "resource_payload",
    "table_payload",
]

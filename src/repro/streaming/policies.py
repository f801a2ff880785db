"""Overload-survival policies for the executed streaming engines.

PR 6's engines survive exactly one scripted crash with a hardcoded
restart delay, and above :func:`~repro.streaming.model.
max_stable_throughput` their queues grow without bound.  This module
supplies the three policy families that turn "recovers from one crash"
into "survives production weather":

* **Restart strategies** — mirrors of Flink's real restart-strategy
  configurations.  :class:`FixedDelayRestart` waits a constant delay
  and :class:`ExponentialBackoffRestart` grows the delay geometrically
  with deterministic seeded jitter.  Either declares the **job failed**
  once a crash would exceed its ``max_restarts`` budget — the engine
  then stops with an explicit ``job_failed`` result instead of
  restarting forever.

* **Load shedding** for the continuous engine — a bounded source
  queue.  :class:`ProbabilisticShedding` sheds an increasing
  *fraction* of each arriving slice as the queue climbs from
  ``target_queue_slices`` to ``max_queue_slices`` (the expected-value
  drop count, so runs stay digest-pinned without the engine drawing
  random numbers).  The source queue — and with it the latency of
  every record the engine *keeps* — is bounded at the measured cost
  of a loss fraction.

* **Adaptive micro-batching** for the D-Stream engine —
  :class:`AdaptiveBatchPolicy` + :class:`BatchIntervalController`, a
  deterministic PID-style feedback loop in the spirit of Spark
  Streaming's backpressure rate controller (``PIDRateEstimator``): the
  measured batch-time/interval ratio steers the next batch interval
  inside ``[min_interval, max_interval]`` (bounded staleness), and when
  stretching the interval cannot close the gap the receiver sheds
  records beyond the measured sustainable rate (bounded latency at the
  cost of a loss fraction).

Crash *schedules* come from PR 5's stochastic fault model:
:func:`compile_crash_schedule` compiles per-node Poisson crash
arrivals into a sorted tuple of absolute crash times, a run's
``crash_times``.  All randomness (jitter, arrivals) is a pure
function of the seed and is spent before or outside the simulation, so
every run remains bit-identical at any ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FixedDelayRestart", "ExponentialBackoffRestart",
    "ProbabilisticShedding",
    "AdaptiveBatchPolicy", "BatchIntervalController",
    "compile_crash_schedule", "resolve_policy", "DEGRADE_POLICIES",
]

#: Policy labels a degradation campaign sweeps: ``"none"`` is the PR 6
#: behaviour (fixed-delay restarts, no shedding), ``"degrade"`` maps to
#: each engine's graceful-degradation bundle (see :func:`resolve_policy`).
DEGRADE_POLICIES = ("none", "degrade")

#: Seed-stream tag for backoff jitter (spawn-key style, like the
#: arrival compilers' ``[seed, 0x5EA]``).
_JITTER_KEY = 0xB0FF


# ----------------------------------------------------------------------
# restart strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FixedDelayRestart:
    """Flink's ``fixed-delay`` restart strategy: wait ``delay`` seconds
    after every crash, give up after ``max_restarts`` restarts
    (``None`` = never)."""

    kind = "fixed"
    delay: float = 2.0
    max_restarts: Optional[int] = None

    def validate(self) -> None:
        if self.delay < 0:
            raise ValueError("restart delay must be >= 0")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0 or None")

    def decide(self, crashes: Sequence[float],
               seed: int) -> Optional[float]:
        """Restart delay for the crash sequence so far (the current
        crash is ``crashes[-1]``); ``None`` declares the job failed."""
        if (self.max_restarts is not None
                and len(crashes) > self.max_restarts):
            return None
        return self.delay

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "delay": self.delay,
                "max_restarts": self.max_restarts}


@dataclass(frozen=True)
class ExponentialBackoffRestart:
    """Flink's ``exponential-delay`` restart strategy: the delay grows
    geometrically per consecutive crash, capped at ``max_delay``, with
    ``jitter`` relative randomisation.  The jitter is a pure function
    of ``(seed, attempt)`` — drawn from a spawn-keyed generator, never
    from simulation state — so repeated runs are bit-identical."""

    kind = "backoff"
    initial_delay: float = 0.5
    max_delay: float = 8.0
    multiplier: float = 2.0
    jitter: float = 0.1
    max_restarts: Optional[int] = None

    def validate(self) -> None:
        if self.initial_delay <= 0:
            raise ValueError("initial_delay must be > 0")
        if self.max_delay < self.initial_delay:
            raise ValueError("max_delay must be >= initial_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0 or None")

    def decide(self, crashes: Sequence[float],
               seed: int) -> Optional[float]:
        if (self.max_restarts is not None
                and len(crashes) > self.max_restarts):
            return None
        attempt = len(crashes) - 1
        base = min(self.max_delay,
                   self.initial_delay * self.multiplier ** attempt)
        if self.jitter <= 0:
            return base
        rng = np.random.default_rng([seed, _JITTER_KEY, attempt])
        swing = float(rng.uniform(-1.0, 1.0))
        return base * (1.0 + self.jitter * swing)

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "initial_delay": self.initial_delay,
                "max_delay": self.max_delay,
                "multiplier": self.multiplier, "jitter": self.jitter,
                "max_restarts": self.max_restarts}


# ----------------------------------------------------------------------
# load shedding (continuous engine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbabilisticShedding:
    """Probabilistic (random early drop) shedding: below
    ``target_queue_slices`` nothing is shed; between target and
    ``max_queue_slices`` each arriving record would be dropped with
    probability rising linearly to 1.  The engine sheds the
    deterministic expected count ``round(p * count)`` instead of
    flipping coins, keeping runs digest-pinned.

    With at most ``max_queue_slices`` slices queued at the source plus
    the pipeline's in-flight depth (<= 4), every *kept* record waits a
    bounded number of slice services; under overload each service is a
    small multiple of the slice width (the pipeline still drains at
    capacity), so :meth:`p99_bound` and :meth:`drain_bound` are
    generous constants, not tuning knobs.  Crash downtime and
    checkpoint replay are accounted for separately by the auditor."""

    kind = "probabilistic"
    max_queue_slices: int = 8
    target_queue_slices: int = 3

    def validate(self) -> None:
        if self.max_queue_slices < 1:
            raise ValueError("max_queue_slices must be >= 1")
        if not 0 <= self.target_queue_slices < self.max_queue_slices:
            raise ValueError("need 0 <= target_queue_slices "
                             "< max_queue_slices")

    def shed(self, queued: int, count: int) -> int:
        """Records to drop from an arriving slice of ``count`` records
        given ``queued`` slices already waiting at the source."""
        if queued <= self.target_queue_slices:
            return 0
        if queued >= self.max_queue_slices:
            return count
        span = self.max_queue_slices - self.target_queue_slices
        fraction = (queued - self.target_queue_slices) / span
        return min(count, int(count * fraction + 0.5))

    def p99_bound(self, slice_width: float) -> float:
        """Latency every kept record stays under while shedding is on."""
        return (self.max_queue_slices + 8) * 4.0 * slice_width

    def drain_bound(self, slice_width: float) -> float:
        """Post-load drain bound: the residual queue is bounded, so the
        drain is too — a shedding run is *stable* by construction."""
        return (self.max_queue_slices + 8) * 3.0 * slice_width

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "max_queue_slices": self.max_queue_slices,
                "target_queue_slices": self.target_queue_slices}


# ----------------------------------------------------------------------
# adaptive micro-batching (D-Stream engine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveBatchPolicy:
    """Deterministic PID-style batch-interval controller with
    receiver-side shedding (Spark Streaming's backpressure rate
    controller, made exact).

    After every batch the controller observes the utilisation
    ``busy / interval`` and steers the next interval toward
    ``target_utilisation`` with proportional/integral/derivative
    terms, clamped to ``[min_interval, max_interval]`` — longer
    intervals trade staleness for throughput (capacity approaches the
    raw rate as the fixed per-batch overhead amortises).  When ``shed``
    is on, the receiver additionally admits at most
    ``target_utilisation * interval * measured_rate`` records per
    batch (drop-tail on the newest arrivals), which is what bounds
    latency once even ``max_interval`` cannot absorb the offered load.
    """

    kind = "pid"
    target_utilisation: float = 0.85
    kp: float = 0.6
    ki: float = 0.15
    kd: float = 0.1
    #: Lower interval clamp; ``None`` = the run's initial batch interval.
    min_interval: Optional[float] = None
    max_interval: float = 2.0
    shed: bool = True

    def validate(self) -> None:
        if not 0 < self.target_utilisation <= 1:
            raise ValueError("target_utilisation must be in (0, 1]")
        if self.min_interval is not None and self.min_interval <= 0:
            raise ValueError("min_interval must be > 0 or None")
        if self.max_interval <= 0:
            raise ValueError("max_interval must be > 0")
        if (self.min_interval is not None
                and self.max_interval < self.min_interval):
            raise ValueError("max_interval must be >= min_interval")

    def p99_bound(self, batch_interval: float) -> float:
        """Latency bound while the controller (with shedding) is on:
        at most the wait for a ``max_interval`` batch to close plus a
        few batch services — generous, crash-free."""
        top = max(self.max_interval, batch_interval)
        return 4.0 * top + 2.0

    def drain_bound(self, batch_interval: float,
                    batch_fixed_overhead: float) -> float:
        """Post-load drain bound: the final (possibly stretched and
        late) batch still has to run."""
        top = max(self.max_interval, batch_interval)
        return 2.5 * top + batch_fixed_overhead

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "target_utilisation": self.target_utilisation,
                "kp": self.kp, "ki": self.ki, "kd": self.kd,
                "min_interval": self.min_interval,
                "max_interval": self.max_interval, "shed": self.shed}


class BatchIntervalController:
    """Mutable per-run state of one :class:`AdaptiveBatchPolicy`.

    Pure arithmetic over observed (admitted, busy-seconds) pairs — no
    randomness, no wall clock — so the control trajectory is a
    deterministic function of the run."""

    #: Integral-term windup clamp (utilisation-error units).
    INTEGRAL_CLAMP = 3.0
    #: Per-step interval change clamp (multiplicative).
    STEP_CLAMP = 2.0

    def __init__(self, policy: AdaptiveBatchPolicy,
                 initial_interval: float) -> None:
        policy.validate()
        self.policy = policy
        self.interval = float(initial_interval)
        self.floor = (policy.min_interval
                      if policy.min_interval is not None
                      else float(initial_interval))
        self.ceiling = max(policy.max_interval, self.floor)
        self.integral = 0.0
        self.prev_error = 0.0
        #: Measured sustainable processing rate (records / busy second);
        #: infinite until the first non-empty batch completes.
        self.rate_estimate = math.inf
        self.intervals: List[float] = []

    def admissible(self) -> float:
        """Record budget for the next batch (inf = no shedding)."""
        if not self.policy.shed or not math.isfinite(self.rate_estimate):
            return math.inf
        return (self.rate_estimate * self.policy.target_utilisation
                * self.interval)

    def observe(self, admitted: int, busy: float) -> None:
        """Feed back one finished batch: ``admitted`` records processed
        in ``busy`` seconds; updates the interval for the next batch."""
        interval = self.interval
        self.intervals.append(interval)
        if admitted > 0 and busy > 0:
            self.rate_estimate = admitted / busy
        error = busy / interval - self.policy.target_utilisation
        clamp = self.INTEGRAL_CLAMP
        self.integral = max(-clamp, min(clamp, self.integral + error))
        derivative = error - self.prev_error
        self.prev_error = error
        scale = (1.0 + self.policy.kp * error
                 + self.policy.ki * self.integral
                 + self.policy.kd * derivative)
        scale = max(1.0 / self.STEP_CLAMP, min(self.STEP_CLAMP, scale))
        self.interval = max(self.floor,
                            min(self.ceiling, interval * scale))


# ----------------------------------------------------------------------
# crash schedules from the PR 5 stochastic fault model
# ----------------------------------------------------------------------
def compile_crash_schedule(seed: int, nodes: int, duration: float,
                           crash_rate: float,
                           model=None) -> Tuple[float, ...]:
    """Compile a repeated-crash schedule for one streaming run.

    Draws per-node Poisson crash arrivals from PR 5's
    :class:`~repro.resilience.stochastic.StochasticFaultModel`
    (``crash_rate`` expected crashes per node per run) and resolves the
    relative plan against ``duration``.  Any node's crash kills the
    whole pipeline (the Flink 0.10 / D-Stream driver failure model),
    so the nodes' arrivals merge into one sorted timeline.  Times of
    0.0 are nudged to the first representable instant after the run
    starts; the result is deterministic per ``(seed, nodes, duration,
    crash_rate)``.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    from ..faults.plan import NodeCrash
    from ..resilience.stochastic import StochasticFaultModel
    if model is None:
        model = StochasticFaultModel(crash_rate=crash_rate)
    plan = model.compile(seed, nodes)
    times = sorted(max(1e-9, event.at) * duration
                   for event in plan.events
                   if isinstance(event, NodeCrash))
    return tuple(float(t) for t in times)


# ----------------------------------------------------------------------
# campaign policy bundles
# ----------------------------------------------------------------------
def resolve_policy(engine: str, policy: str):
    """Map a campaign policy label to one engine's mechanism bundle:
    ``(restart_strategy, shedding, batch_policy)``.

    ``"none"`` is the PR 6 baseline (fixed-delay restarts, queues grow
    without bound under overload); ``"degrade"`` enables exponential
    backoff restarts plus probabilistic source shedding (continuous
    engine) or the PID batch-interval controller (D-Stream engine).
    """
    if policy == "none":
        return FixedDelayRestart(), None, None
    if policy == "degrade":
        strategy = ExponentialBackoffRestart()
        if engine == "flink":
            return strategy, ProbabilisticShedding(), None
        return strategy, None, AdaptiveBatchPolicy()
    raise ValueError(f"unknown degradation policy {policy!r}; "
                     f"one of {DEGRADE_POLICIES}")

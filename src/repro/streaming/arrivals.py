"""Seedable stochastic arrival processes for the streaming engines.

Mirrors the resilience engine's discipline (:mod:`repro.resilience.
stochastic`): randomness lives *outside* the simulation.  An
:class:`ArrivalProcess` plus a seed compiles — before any simulated
event fires — into a deterministic :class:`ArrivalPlan`: the record
count of every ingest slice of the run.  The simulation then executes
the plan with no RNG of its own, so every streaming figure is
digest-pinned and bit-identical at any ``--jobs`` value.

Two processes cover the paper-era workload shapes:

* :class:`PoissonArrivals` — steady memoryless traffic (the M in the
  analytic model's M/D/c view of the pipeline);
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process:
  calm and burst phases with exponential sojourns, the classical bursty
  workload model.  Its long-run mean equals ``rate``, so stability
  comparisons against :func:`~repro.streaming.model.
  max_stable_throughput` stay meaningful.

Records are aggregated per *slice* (a fixed ingest granularity of
:data:`DEFAULT_SLICE_WIDTH` seconds) rather than simulated one event
per record: at paper rates (10^5..10^6 records/s) per-record events
would swamp the kernel, while per-slice fluid demands keep a full
figure campaign in CI budget.  A slice's records are treated as
arriving uniformly within it; latency accounting uses the slice
midpoint (see :mod:`repro.streaming.engines`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from ..validation.digest import digest_payload

__all__ = ["ArrivalPlan", "PoissonArrivals", "MMPPArrivals",
           "ARRIVAL_KINDS", "make_arrivals", "DEFAULT_SLICE_WIDTH",
           "slice_count"]

#: Ingest granularity (seconds) the plans are compiled at.
DEFAULT_SLICE_WIDTH = 0.25


@dataclass(frozen=True)
class ArrivalPlan:
    """A compiled arrival trace: one record count per ingest slice.

    Slice ``k`` covers simulated time ``[k*w, (k+1)*w)`` and becomes
    processable when it closes at ``(k+1)*w``.
    """

    kind: str
    rate: float          # requested long-run mean (records/second)
    duration: float
    slice_width: float
    seed: int
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.slice_width <= 0:
            raise ValueError("slice_width must be positive")
        if any(c < 0 for c in self.counts):
            raise ValueError("slice counts must be >= 0")

    @property
    def num_slices(self) -> int:
        return len(self.counts)

    @property
    def total_records(self) -> int:
        return int(sum(self.counts))

    @property
    def offered_rate(self) -> float:
        """Realised mean rate of the compiled trace."""
        if self.duration <= 0:
            return 0.0
        return self.total_records / self.duration

    def slice_close(self, k: int) -> float:
        """Time the slice becomes available to the engines."""
        return (k + 1) * self.slice_width

    def slice_midpoint(self, k: int) -> float:
        """Mean arrival time of the slice's records (event time)."""
        return (k + 0.5) * self.slice_width

    def payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "rate": self.rate,
            "duration": self.duration, "slice_width": self.slice_width,
            "seed": self.seed, "counts": [int(c) for c in self.counts],
        }

    def digest(self) -> str:
        return digest_payload(self.payload())


def slice_count(duration: float,
                slice_width: float = DEFAULT_SLICE_WIDTH) -> int:
    """The number of ingest slices in ``duration``.

    ``duration`` must be a positive whole number of slices (to a
    relative 1e-9): a plan that ended before or after ``duration``
    would skew every rate, goodput and drain that divides by it.
    """
    count = round(duration / slice_width) if math.isfinite(duration) else 0
    if count < 1 or abs(count * slice_width - duration) > 1e-9 * duration:
        raise ValueError(f"duration must be a positive whole number of "
                         f"{slice_width:g}s slices, got {duration:g}")
    return count


@dataclass(frozen=True)
class PoissonArrivals:
    """Steady traffic: i.i.d. Poisson counts per slice."""

    rate: float
    kind: str = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def compile(self, seed: int, duration: float,
                slice_width: float = DEFAULT_SLICE_WIDTH) -> ArrivalPlan:
        n = slice_count(duration, slice_width)
        rng = np.random.default_rng([int(seed), 0x5EA])
        counts = rng.poisson(self.rate * slice_width, size=n)
        return ArrivalPlan(kind=self.kind, rate=self.rate,
                           duration=duration, slice_width=slice_width,
                           seed=int(seed),
                           counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class MMPPArrivals:
    """Bursty traffic: a two-state Markov-modulated Poisson process.

    The chain alternates exponential sojourns in a *calm* and a *burst*
    state whose rates are ``rate * calm_factor`` and ``rate *
    burst_factor``.  The defaults are chosen so the stationary mean is
    exactly ``rate``: with mean sojourns 6 s calm / 2 s burst the chain
    spends 3/4 of its time calm, and ``0.75*0.8 + 0.25*1.6 = 1``.
    The burst factor of 1.6 keeps bursts *transiently* above capacity
    only once the mean load passes ~0.6 of it, so the long-run
    stability boundary stays governed by the mean rate while the tail
    percentiles (the fig20 story) feel the bursts.
    The modulating state is sampled at slice granularity (the state at
    a slice's open governs its whole slice).
    """

    rate: float
    calm_factor: float = 0.8
    burst_factor: float = 1.6
    calm_sojourn: float = 6.0
    burst_sojourn: float = 2.0
    kind: str = "mmpp"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if min(self.calm_factor, self.burst_factor) < 0:
            raise ValueError("rate factors must be >= 0")
        if min(self.calm_sojourn, self.burst_sojourn) <= 0:
            raise ValueError("sojourn times must be positive")

    @property
    def stationary_mean_factor(self) -> float:
        total = self.calm_sojourn + self.burst_sojourn
        return (self.calm_sojourn * self.calm_factor
                + self.burst_sojourn * self.burst_factor) / total

    def compile(self, seed: int, duration: float,
                slice_width: float = DEFAULT_SLICE_WIDTH) -> ArrivalPlan:
        n = slice_count(duration, slice_width)
        rng = np.random.default_rng([int(seed), 0xB5B])
        counts = []
        burst = False            # start calm: bursts are the exception
        switch_at = float(rng.exponential(self.calm_sojourn))
        for k in range(n):
            t = k * slice_width
            while t >= switch_at:
                burst = not burst
                sojourn = (self.burst_sojourn if burst
                           else self.calm_sojourn)
                switch_at += float(rng.exponential(sojourn))
            factor = self.burst_factor if burst else self.calm_factor
            counts.append(int(rng.poisson(self.rate * factor
                                          * slice_width)))
        return ArrivalPlan(kind=self.kind, rate=self.rate,
                           duration=duration, slice_width=slice_width,
                           seed=int(seed), counts=tuple(counts))


ARRIVAL_KINDS = ("poisson", "mmpp")


def make_arrivals(kind: str, rate: float):
    """Factory keyed by the CLI/figure spelling of the process."""
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "mmpp":
        return MMPPArrivals(rate)
    raise ValueError(f"unknown arrival process {kind!r}; "
                     f"one of {ARRIVAL_KINDS}")

"""Memory accounting for simulated nodes.

The paper attributes several findings to memory behaviour: Spark jobs
die when the working set exceeds the configured heap fractions, Flink
operators spill to disk and survive with little memory — except the
delta-iteration CoGroup whose in-memory solution set destroys the JVM
on the Large graph (Table VII).  Garbage-collection overhead grows with
heap occupancy.

:class:`MemoryAccount` is a hierarchical reservation ledger: a node has
one *physical* account, and each framework carves sub-accounts out of
it (Spark: storage / shuffle fractions of the executor heap; Flink: JVM
heap vs managed memory, on- or off-heap).  Reservations either succeed,
spill (caller's choice) or raise :class:`OutOfMemoryError`.
"""

from __future__ import annotations

from typing import List, Optional

from .simulation import Simulation, SimulationError
from .trace import StepSeries

__all__ = ["MemoryAccount", "OutOfMemoryError"]


class OutOfMemoryError(SimulationError):
    """A reservation exceeded the account's capacity."""

    def __init__(self, account: "MemoryAccount", requested: float) -> None:
        super().__init__(
            f"out of memory in {account.path}: requested "
            f"{requested / 2**30:.2f} GiB, free {account.free / 2**30:.2f} GiB "
            f"of {account.capacity / 2**30:.2f} GiB")
        self.account = account
        self.requested = requested


class MemoryAccount:
    """A named memory budget with optional parent accounting."""

    def __init__(self, sim: Simulation, name: str, capacity: float,
                 parent: Optional["MemoryAccount"] = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = float(capacity)
        self.parent = parent
        self.used = 0.0
        self.peak = 0.0
        self.usage = StepSeries()
        self.children: List["MemoryAccount"] = []
        if parent is not None:
            parent.children.append(self)

    @property
    def path(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.path}/{self.name}"

    @property
    def free(self) -> float:
        return self.capacity - self.used

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use (0..1)."""
        if self.capacity == 0:
            return 1.0 if self.used > 0 else 0.0
        return self.used / self.capacity

    # ------------------------------------------------------------------
    def sub_account(self, name: str, capacity: float) -> "MemoryAccount":
        """Carve a child budget out of this account.

        Child capacities may oversubscribe the parent (like JVM settings
        can); actual reservations are charged to the whole chain, so the
        first exhausted ancestor wins.
        """
        return MemoryAccount(self.sim, name, capacity, parent=self)

    def reserve(self, amount: float) -> None:
        """Reserve ``amount`` bytes here and in every ancestor, or raise."""
        if amount < 0:
            raise ValueError(f"reserve amount must be >= 0, got {amount}")
        chain = self._chain()
        for acct in chain:
            if acct.used + amount > acct.capacity * (1.0 + 1e-9):
                raise OutOfMemoryError(acct, amount)
        for acct in chain:
            acct._apply(amount)

    def try_reserve(self, amount: float) -> bool:
        """Like :meth:`reserve` but returns False instead of raising."""
        try:
            self.reserve(amount)
            return True
        except OutOfMemoryError:
            return False

    def release(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"release amount must be >= 0, got {amount}")
        for acct in self._chain():
            # Accumulated float drift across many reserve/release pairs
            # can leave `used` a few ULPs short of the exact sum.  The
            # drift scales with the *largest* value the account has held
            # (one ULP of 128 GiB is ~2e-5 bytes), not the current one,
            # and grows with the number of operations — a ppm of the
            # release is still far below any real accounting bug.
            tolerance = max(1e-6, acct.peak * 1e-9, amount * 1e-6)
            if amount > acct.used + tolerance:
                raise SimulationError(
                    f"{acct.path}: releasing {amount} > {acct.used} used")
            acct._apply(-min(amount, acct.used))

    # ------------------------------------------------------------------
    def _chain(self) -> List["MemoryAccount"]:
        chain = []
        acct: Optional[MemoryAccount] = self
        while acct is not None:
            chain.append(acct)
            acct = acct.parent
        return chain

    def _apply(self, delta: float) -> None:
        self.used = max(0.0, self.used + delta)
        self.peak = max(self.peak, self.used)
        self.usage.append(self.sim.now, self.used)

    def audit(self, tolerance: float = 1.0) -> List[str]:
        """Check accounting invariants on this subtree.

        Returns a list of human-readable violation strings (empty when
        the subtree is consistent):

        * ``0 <= used <= capacity`` (within ``tolerance`` bytes);
        * ``used`` never exceeded ``peak``;
        * the parent charge covers the direct children: because every
          reservation is charged to the whole ancestor chain, a parent's
          ``used`` must be at least the sum of its children's.
        * the usage trace never went negative or above capacity.
        """
        problems: List[str] = []
        if self.used < -tolerance:
            problems.append(f"{self.path}: used {self.used} < 0")
        if self.used > self.capacity + tolerance:
            problems.append(
                f"{self.path}: used {self.used} > capacity {self.capacity}")
        if self.used > self.peak + tolerance:
            problems.append(
                f"{self.path}: used {self.used} > peak {self.peak}")
        if self.children:
            child_sum = sum(c.used for c in self.children)
            if child_sum > self.used + tolerance + 1e-9 * max(self.peak, 1.0):
                problems.append(
                    f"{self.path}: children hold {child_sum} > {self.used} "
                    f"charged to parent")
        for _t, v in self.usage:
            if v < -tolerance or v > self.capacity + tolerance:
                problems.append(
                    f"{self.path}: usage trace value {v} outside "
                    f"[0, {self.capacity}]")
                break
        for child in self.children:
            problems.extend(child.audit(tolerance))
        return problems

    def occupancy_series_percent(self) -> StepSeries:
        """Usage as percent-of-capacity (for "Memory %" figure panels)."""
        out = StepSeries()
        if self.capacity == 0:
            return out
        for t, v in self.usage:
            out.append(t, 100.0 * v / self.capacity)
        return out

    def __repr__(self) -> str:
        return (f"MemoryAccount({self.path!r}, "
                f"{self.used / 2**30:.2f}/{self.capacity / 2**30:.2f} GiB)")

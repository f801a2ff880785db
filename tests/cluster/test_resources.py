"""Tests for MemoryAccount."""

import pytest

from repro.cluster.memory import MemoryAccount, OutOfMemoryError
from repro.cluster.simulation import Simulation, SimulationError


# ----------------------------------------------------------------------
# MemoryAccount
# ----------------------------------------------------------------------
def test_memory_reserve_release_cycle():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)
    acct.reserve(40.0)
    assert acct.used == 40.0
    assert acct.free == 60.0
    acct.release(40.0)
    assert acct.used == 0.0


def test_memory_oom_raises_with_context():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)
    acct.reserve(90.0)
    with pytest.raises(OutOfMemoryError, match="ram"):
        acct.reserve(20.0)
    # Failed reservation must not change usage.
    assert acct.used == 90.0


def test_memory_hierarchy_charges_ancestors():
    sim = Simulation()
    ram = MemoryAccount(sim, "ram", 100.0)
    heap = ram.sub_account("heap", 60.0)
    heap.reserve(50.0)
    assert ram.used == 50.0
    assert heap.used == 50.0
    with pytest.raises(OutOfMemoryError, match="heap"):
        heap.reserve(20.0)


def test_memory_parent_exhaustion_wins():
    sim = Simulation()
    ram = MemoryAccount(sim, "ram", 100.0)
    a = ram.sub_account("a", 80.0)
    b = ram.sub_account("b", 80.0)
    a.reserve(70.0)
    with pytest.raises(OutOfMemoryError, match="ram"):
        b.reserve(50.0)


def test_memory_try_reserve():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 10.0)
    assert acct.try_reserve(5.0)
    assert not acct.try_reserve(6.0)
    assert acct.used == 5.0


def test_memory_occupancy_and_peak():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)
    acct.reserve(75.0)
    assert acct.occupancy == pytest.approx(0.75)
    acct.release(50.0)
    assert acct.peak == 75.0
    assert acct.occupancy == pytest.approx(0.25)


def test_memory_release_too_much():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)
    acct.reserve(10.0)
    with pytest.raises(SimulationError):
        acct.release(20.0)


def test_memory_usage_trace():
    sim = Simulation()
    acct = MemoryAccount(sim, "ram", 100.0)

    def proc():
        acct.reserve(50.0)
        yield sim.timeout(10.0)
        acct.release(50.0)

    sim.process(proc())
    sim.run()
    pct = acct.occupancy_series_percent()
    assert pct.value_at(5.0) == pytest.approx(50.0)
    assert pct.value_at(10.5) == pytest.approx(0.0)

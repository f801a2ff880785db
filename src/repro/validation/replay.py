"""Deterministic-replay harness: golden digests for paper scenarios.

Each :class:`ReplayScenario` runs one paper artefact at a reduced (but
still multi-node, multi-stage) scale and reduces its full observable
trace to one SHA-256 digest via :mod:`repro.validation.digest`.  The
golden digests live in ``tests/golden/digests.json``; replaying a
scenario and getting a different digest means the simulator's event
trace changed — either an intended model change (regenerate the
goldens) or a determinism regression (fix it).

Workflow::

    repro validate                    # strict invariant pass only
    repro validate --replay           # ...plus digest comparison
    repro validate --replay --update-golden   # re-record after a change

The golden file path resolves, in order: the ``REPRO_GOLDEN_PATH``
environment variable, ``tests/golden/digests.json`` upward from this
module (the in-repo layout), then the current working directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..harness import figures
from .digest import (digest_payload, fault_payload, resilience_payload,
                     resource_payload, scaling_payload, streaming_payload,
                     table_payload, tenancy_payload, trace_payload)

__all__ = [
    "ReplayScenario",
    "SCENARIOS",
    "GOLDEN_ENV",
    "golden_path",
    "load_golden",
    "save_golden",
    "compute_digests",
    "verify_replay",
]

GOLDEN_ENV = "REPRO_GOLDEN_PATH"
GOLDEN_RELPATH = Path("tests") / "golden" / "digests.json"


@dataclass(frozen=True)
class ReplayScenario:
    """One replayable paper artefact at regression-test scale.

    ``run(seed)`` always audits: every scenario passes ``strict=True``,
    so a digest is never taken from an unchecked run.
    """

    name: str
    description: str
    run: Callable[[int], Any]

    def digest(self, seed: int = 0) -> str:
        return digest_payload(self.run(seed))


def _fig01(seed: int) -> Any:
    fig = figures.fig01_wordcount_weak(trials=1, seed=seed, nodes=(2, 4),
                                       strict=True)
    return scaling_payload(fig)


def _fig10(seed: int) -> Any:
    fig = figures.fig10_kmeans_resources(seed=seed, nodes=8, strict=True)
    return resource_payload(fig)


def _tab07(seed: int) -> Any:
    cells = figures.tab07_large_graph(seed=seed, node_counts=(27,),
                                      strict=True)
    return table_payload(cells)


def _fig18(seed: int) -> Any:
    fig = figures.fig18_fault_recovery(seed=seed, nodes=4,
                                       fractions=(0.5,), strict=True)
    return fault_payload(fig)


def _fig19(seed: int) -> Any:
    fig = figures.fig19_resilience(
        seed=seed, nodes=8, rates=(0.0, 1.0), trials=1,
        workload_names=("wordcount", "terasort", "pagerank"),
        strict=True)
    return resilience_payload(fig)


def _fig20(seed: int) -> Any:
    fig = figures.fig20_streaming_latency(
        seed=seed, nodes=4, load_fractions=(0.3, 0.9), duration=20.0,
        strict=True)
    return streaming_payload(fig)


def _fig21(seed: int) -> Any:
    fig = figures.fig21_streaming_recovery(
        seed=seed, nodes=4, checkpoint_intervals=(2.0, 9.0),
        crash_at=13.0, duration=24.0, strict=True)
    return streaming_payload(fig)


def _fig22(seed: int) -> Any:
    fig = figures.fig22_degradation(
        seed=seed, nodes=4, load_multiples=(1.0, 1.5),
        fault_rates=(0.0, 0.5), duration=16.0, strict=True)
    return streaming_payload(fig)


def _fig23(seed: int) -> Any:
    fig = figures.fig23_tenancy(
        seed=seed, nodes=4, loads=(0.5, 0.9), trials=1, jobs_target=6,
        strict=True)
    return tenancy_payload(fig)


def _trace01(seed: int) -> Any:
    from ..config.presets import GiB, wordcount_grep_preset
    from ..harness.runner import run_traced
    from ..workloads import WordCount
    nodes = 8
    traced = run_traced("spark", WordCount(total_bytes=nodes * 24 * GiB),
                        wordcount_grep_preset(nodes), seed=seed,
                        strict=True)
    return trace_payload(traced)


#: The replay suite: the ISSUE's minimum bar (Fig. 1, Fig. 10, Tab. 7)
#: plus the fault-recovery sweep (Fig. 18 extension) and the span-trace
#: export of one pinned run (the observability golden).
SCENARIOS: Dict[str, ReplayScenario] = {
    "fig01": ReplayScenario(
        "fig01", "Word Count weak scaling (2 and 4 nodes, 1 trial)", _fig01),
    "fig10": ReplayScenario(
        "fig10", "K-Means resource panels (8 nodes, 10 iterations)", _fig10),
    "tab07": ReplayScenario(
        "tab07", "Table VII Large-graph grid (27 nodes)", _tab07),
    "fig18": ReplayScenario(
        "fig18", "Failure recovery overhead (4 nodes, crash at 50%)", _fig18),
    "fig19": ReplayScenario(
        "fig19", "Stochastic resilience curves (8 nodes, rates 0 and 1, "
        "three workloads)", _fig19),
    "fig20": ReplayScenario(
        "fig20", "Streaming latency vs load (4 nodes, Poisson + MMPP, "
        "two load points)", _fig20),
    "fig21": ReplayScenario(
        "fig21", "Streaming recovery vs checkpoint interval (4 nodes, "
        "crash at 13s)", _fig21),
    "fig22": ReplayScenario(
        "fig22", "Streaming overload survival (4 nodes, two load "
        "multiples x two fault rates x both policies)", _fig22),
    "fig23": ReplayScenario(
        "fig23", "Multi-tenant scheduling (4 nodes, three policies x "
        "two loads)", _fig23),
    "trace01": ReplayScenario(
        "trace01", "Word Count span trace + Chrome export (Spark, 8 nodes)",
        _trace01),
}


# ----------------------------------------------------------------------
# golden file handling
# ----------------------------------------------------------------------
def golden_path() -> Path:
    """Locate the golden digest file (see module docstring for order)."""
    env = os.environ.get(GOLDEN_ENV)
    if env:
        return Path(env)
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / GOLDEN_RELPATH
        if candidate.exists():
            return candidate
    return Path.cwd() / GOLDEN_RELPATH


def load_golden(path: Optional[Path] = None) -> Dict[str, str]:
    path = Path(path) if path is not None else golden_path()
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return dict(data.get("digests", {}))


def save_golden(digests: Dict[str, str], path: Optional[Path] = None,
                seed: int = 0) -> Path:
    path = Path(path) if path is not None else golden_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = load_golden(path)
    existing.update(digests)
    payload = {
        "comment": "Golden trace digests; regenerate with "
                   "`repro validate --replay --update-golden`.",
        "seed": seed,
        "digests": {k: existing[k] for k in sorted(existing)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def _select(names: Optional[Sequence[str]]) -> List[ReplayScenario]:
    if not names:
        return list(SCENARIOS.values())
    missing = [n for n in names if n not in SCENARIOS]
    if missing:
        raise KeyError(
            f"unknown replay scenario(s) {missing}; available: "
            f"{sorted(SCENARIOS)}")
    return [SCENARIOS[n] for n in names]


def compute_digests(names: Optional[Sequence[str]] = None,
                    seed: int = 0) -> Dict[str, str]:
    """Run the selected scenarios and return their digests."""
    return {sc.name: sc.digest(seed=seed) for sc in _select(names)}


def verify_replay(names: Optional[Sequence[str]] = None, seed: int = 0,
                  path: Optional[Path] = None) -> List[str]:
    """Replay scenarios against the golden digests.

    Returns mismatch descriptions (empty when everything reproduces).
    Scenarios with no recorded golden are reported too — an unrecorded
    scenario silently passing would defeat the regression.
    """
    golden = load_golden(path)
    problems: List[str] = []
    for scenario in _select(names):
        digest = scenario.digest(seed=seed)
        expected = golden.get(scenario.name)
        if expected is None:
            problems.append(
                f"{scenario.name}: no golden digest recorded (got {digest}); "
                f"run with --update-golden")
        elif digest != expected:
            problems.append(
                f"{scenario.name}: digest {digest} != golden {expected} "
                f"(trace changed)")
    return problems

"""Chaos suite: fuzzed tenancy runs and SIGKILL kill-and-resume.

Two escalation levels:

* **fuzz** — randomly generated :class:`WorkloadMix` plans (random
  widths, queues, priorities, rates) crossed with every policy, random
  seeds and compiled mid-run :class:`NodeCrash` faults, all executed
  under ``strict=True``: every run must terminate with a balanced
  ledger and a clean scheduling audit, whatever the draw.  Synthetic
  service times keep the whole sweep fast — the event loop under test
  is identical.
* **kill -9** — a real fig23 campaign subprocess is SIGKILLed
  mid-flight and resumed from its checkpoint journal; the resumed
  figure's digest must equal an uninterrupted run's, the
  ``--checkpoint/--resume`` contract the CLI exposes.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig23_tenancy
from repro.scheduler import (JobTemplate, QueueConfig, WorkloadMix,
                             compile_crash_plan, make_policy, run_tenancy)
from repro.scheduler.sweep import DEFAULT_POLICIES
from repro.validation.digest import digest_payload, tenancy_payload

WORKLOADS = ("wordcount", "grep", "terasort", "kmeans")
ENGINES = ("spark", "flink")
QUEUES = ("default", "prod", "batch")


def _random_scenario(seed):
    """One fuzz draw: templates, queues, services, plan and crashes."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(2, 13))
    n_templates = int(rng.integers(1, 5))
    templates = []
    services = {}
    for i in range(n_templates):
        name = f"t{i}"
        templates.append(JobTemplate(
            name=name,
            engine=ENGINES[int(rng.integers(0, 2))],
            workload=WORKLOADS[int(rng.integers(0, 4))],
            width=int(rng.integers(1, nodes + 1)),
            queue=QUEUES[int(rng.integers(0, 3))],
            priority=int(rng.integers(0, 3)),
            granules=int(rng.integers(1, 17))))
        services[name] = float(rng.uniform(5.0, 120.0))
    queues = []
    if rng.random() < 0.5:
        queues.append(QueueConfig("batch",
                                  quota=int(rng.integers(0, nodes + 1))))
    if rng.random() < 0.5:
        queues.append(QueueConfig("prod",
                                  max_jobs=int(rng.integers(1, 4))))
    horizon = float(rng.uniform(30.0, 200.0))
    mix = WorkloadMix(templates=tuple(templates),
                      arrival_rate=float(rng.uniform(0.02, 0.3)),
                      horizon=horizon)
    plan = mix.compile(seed)
    crashes = compile_crash_plan(seed + 1, nodes,
                                 float(rng.uniform(0.0, 1.5)), horizon)
    return nodes, queues, services, plan, crashes


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_fuzzed_runs_terminate_clean_under_strict_audit(policy, seed):
    nodes, queues, services, plan, crashes = _random_scenario(seed)
    # strict=True: any invariant violation raises out of run_tenancy.
    res = run_tenancy(plan, make_policy(policy), services, nodes=nodes,
                      queues=queues, crashes=crashes, strict=True)
    assert res.submitted == len(plan)
    assert res.submitted == res.completed + res.failed + res.rejected
    for rec in res.records:
        assert rec.status in ("completed", "failed", "rejected")
        if rec.status == "completed":
            # Preempted work was fully re-executed: the ledger closes.
            assert rec.executed == pytest.approx(
                rec.service + rec.wasted, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_runs_are_replay_identical(seed):
    nodes, queues, services, plan, crashes = _random_scenario(seed + 100)
    kw = dict(nodes=nodes, queues=queues, crashes=crashes, strict=True)
    a = run_tenancy(plan, make_policy("fair"), services, **kw)
    b = run_tenancy(plan, make_policy("fair"), services, **kw)
    assert digest_payload(a.payload()) == digest_payload(b.payload())


# ----------------------------------------------------------------------
# the real thing: SIGKILL mid-campaign, then resume
# ----------------------------------------------------------------------
LOADS = (0.5, 0.9)
KW = dict(nodes=4, loads=LOADS, trials=1, jobs_target=6)

FIG23_FP = {"figure_id": "fig23", "policies": ["fifo", "fair", "capacity"],
            "loads": [0.5, 0.9], "trials": 1, "nodes": 4, "seed": 0,
            "crash_rate": 0.0, "jobs_target": 6,
            "templates": ["wc-spark", "grep-flink", "sort-flink",
                          "kmeans-spark"]}

_CHILD = f"""
import sys
from repro.harness.checkpoint import CheckpointStore
from repro.harness.figures import fig23_tenancy

root = sys.argv[1]
fp = {FIG23_FP!r}
with CheckpointStore(root, fp, resume=len(sys.argv) > 2) as store:
    fig23_tenancy(nodes=4, loads=(0.5, 0.9), trials=1, jobs_target=6,
                  checkpoint=store)
"""


def test_sigkill_then_resume_reproduces_the_digest(tmp_path):
    baseline = fig23_tenancy(**KW)
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_TENANCY_DELAY="0.2")  # slow cells: killable
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(root)],
                            env=env)
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 120
    try:
        # Wait until some (not all 6) cells are journaled, then kill -9.
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_text().count("\n") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never journaled its first cells")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    done_before = journal.read_text().count("\n")
    assert 0 < done_before < 6, "kill landed before/after the campaign"

    with CheckpointStore(root, FIG23_FP, resume=True) as store:
        resumed = fig23_tenancy(**KW, checkpoint=store)
        assert len(store) == 6
    assert not resumed.gaps
    assert (digest_payload(tenancy_payload(resumed))
            == digest_payload(tenancy_payload(baseline)))

"""What-if (blocked-time) analysis: re-simulate with one resource made
effectively infinite.

The paper's related work highlights blocked-time analysis [43]
("Making sense of performance in data analytics frameworks") as the
way "to understand the impact of disk and network" and suggests it
"could be applied to Flink as well, where stragglers are caused by the
I/O interference in the execution pipelines".  A simulator can do the
idealised version directly: rerun the identical workload on a cluster
whose disk (or network) is effectively unlimited and report the
speedup bound.  (CPU is not offered: engine task slots, not core
counts, bound compute rates, so "infinite CPU" is not meaningful at
constant configuration.)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Sequence

from ..cluster.node import GRID5000_PARAVANCE, HardwareSpec
from ..config.presets import ExperimentConfig
from ..workloads.base import Workload

__all__ = ["WhatIfResult", "what_if", "blocked_time_report", "RESOURCES"]

#: Resources that can be idealised.
RESOURCES = ("disk", "network")

_HUGE = 1e6  # x base bandwidth: effectively unlimited


def _idealised_spec(base: HardwareSpec, resource: str) -> HardwareSpec:
    if resource == "disk":
        return dataclasses.replace(base,
                                   disk_read_bw=base.disk_read_bw * _HUGE,
                                   disk_write_bw=base.disk_write_bw * _HUGE,
                                   disk_contention_alpha=0.0)
    if resource == "network":
        return dataclasses.replace(base, nic_bw=base.nic_bw * _HUGE)
    raise ValueError(f"unknown resource {resource!r}; "
                     f"choose from {RESOURCES}")


@dataclass
class WhatIfResult:
    """Speedup bound from idealising one resource."""

    engine: str
    workload: str
    resource: str
    baseline_seconds: float
    idealised_seconds: float

    @property
    def speedup(self) -> float:
        if self.idealised_seconds <= 0:
            return math.nan
        return self.baseline_seconds / self.idealised_seconds

    @property
    def blocked_fraction(self) -> float:
        """Upper bound on the run fraction attributable to the resource
        (1 - idealised/baseline, the blocked-time bound)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return max(0.0, 1.0 - self.idealised_seconds /
                   self.baseline_seconds)

    def describe(self) -> str:
        return (f"{self.engine}/{self.workload}: infinitely fast "
                f"{self.resource} -> {self.speedup:.2f}x "
                f"(<= {100 * self.blocked_fraction:.0f}% blocked on it)")


def _what_ifs(engine: str, workload: Workload, config: ExperimentConfig,
              resources: Sequence[str], seed: int,
              base_spec: HardwareSpec) -> Dict[str, WhatIfResult]:
    """One baseline run, then one idealised run per resource."""
    # Local import to avoid a harness<->core cycle.
    from ..harness.runner import RunFailed, deploy
    specs = [base_spec] + [_idealised_spec(base_spec, r) for r in resources]
    seconds = []
    for spec in specs:
        # Durations only: nothing reads the cluster's resource traces.
        result = deploy(engine, workload, config, seed=seed, spec=spec,
                        trace_detail="off").run(workload)
        if not result.success:
            raise RunFailed(f"what-if run failed: {result.failure}")
        seconds.append(result.duration)
    return {r: WhatIfResult(engine, workload.name, r, seconds[0], s)
            for r, s in zip(resources, seconds[1:])}


def what_if(engine: str, workload: Workload, config: ExperimentConfig,
            resource: str, seed: int = 0,
            base_spec: HardwareSpec = GRID5000_PARAVANCE) -> WhatIfResult:
    """Speedup bound if ``resource`` were infinitely fast.  Raises
    :class:`~repro.harness.runner.RunFailed` if either run fails."""
    return _what_ifs(engine, workload, config, (resource,), seed,
                     base_spec)[resource]


def blocked_time_report(engine: str, workload: Workload,
                        config: ExperimentConfig, seed: int = 0
                        ) -> Dict[str, WhatIfResult]:
    """The full blocked-time table: one what-if per resource, all
    against a single baseline run."""
    return _what_ifs(engine, workload, config, RESOURCES, seed,
                     GRID5000_PARAVANCE)

"""Streaming: the paper's declared future work (§VIII), executed.

Four layers:

* :mod:`repro.streaming.model` — the original closed-form sketch, now
  the differential oracle for the executed engines;
* :mod:`repro.streaming.arrivals` + :mod:`repro.streaming.engines` —
  seedable arrival processes compiled to deterministic plans, executed
  by a continuous-operator (Flink-style) and a micro-batch D-Stream
  (Spark-style) engine on the fluid simulation kernel;
* :mod:`repro.streaming.policies` — overload-survival policies:
  restart strategies (fixed delay / exponential backoff, each with an
  optional restart budget), probabilistic load shedding, and the PID
  adaptive batch-interval controller;
* :mod:`repro.streaming.sweep` — the fig20/fig21/fig22 campaigns with
  checkpointed, gap-reporting fan-out.
"""

from .arrivals import (ARRIVAL_KINDS, DEFAULT_SLICE_WIDTH, ArrivalPlan,
                       MMPPArrivals, PoissonArrivals, make_arrivals)
from .engines import (DEFAULT_BARRIER_SYNC, STREAMING_ENGINES,
                      StreamingRunResult, queue_depth_from_buffers,
                      run_streaming, stable_drain_bound)
from .model import (StreamingResult, StreamingWorkloadModel,
                    max_stable_throughput, simulate_flink_streaming,
                    simulate_spark_dstreams)
from .policies import (DEGRADE_POLICIES, AdaptiveBatchPolicy,
                       BatchIntervalController, ExponentialBackoffRestart,
                       FixedDelayRestart, ProbabilisticShedding,
                       compile_crash_schedule, resolve_policy)
from .sweep import (DEFAULT_CHECKPOINT_INTERVALS, DEFAULT_DURATION,
                    DEFAULT_FAULT_RATES, DEFAULT_LOAD_FRACTIONS,
                    DEFAULT_LOAD_MULTIPLES, FIG21_CRASH_AT,
                    FIG21_LOAD_FRACTION, DegradeCell, StreamingCell,
                    StreamingFigure, degradation_sweep, streaming_sweep)

__all__ = [
    "StreamingResult", "StreamingWorkloadModel", "max_stable_throughput",
    "simulate_flink_streaming", "simulate_spark_dstreams",
    "ArrivalPlan", "PoissonArrivals", "MMPPArrivals", "make_arrivals",
    "ARRIVAL_KINDS", "DEFAULT_SLICE_WIDTH",
    "StreamingRunResult", "run_streaming", "STREAMING_ENGINES",
    "queue_depth_from_buffers", "stable_drain_bound",
    "DEFAULT_BARRIER_SYNC",
    "FixedDelayRestart", "ExponentialBackoffRestart",
    "ProbabilisticShedding", "AdaptiveBatchPolicy",
    "BatchIntervalController", "compile_crash_schedule",
    "resolve_policy", "DEGRADE_POLICIES",
    "StreamingCell", "StreamingFigure", "streaming_sweep",
    "DEFAULT_LOAD_FRACTIONS", "DEFAULT_CHECKPOINT_INTERVALS",
    "FIG21_LOAD_FRACTION", "FIG21_CRASH_AT", "DEFAULT_DURATION",
    "DegradeCell", "degradation_sweep",
    "DEFAULT_LOAD_MULTIPLES", "DEFAULT_FAULT_RATES",
]

"""Experiment lifecycle and figure/table regeneration."""

from . import figures
from .checkpoint import CheckpointError, CheckpointStore
from .parallel import TaskFailure, parallel_map, resolve_jobs, robust_map
from .runner import (Deployment, TrialStats, run_correlated, run_once,
                     run_trials)
from .faults import FaultRecoveryResult, run_with_failure
from .sweep import best_row, sweep, sweep_rows_to_csv

__all__ = ["CheckpointError", "CheckpointStore", "Deployment",
           "FaultRecoveryResult", "TaskFailure", "TrialStats", "best_row",
           "figures", "parallel_map", "resolve_jobs", "robust_map",
           "run_correlated", "run_once", "run_trials", "run_with_failure",
           "sweep", "sweep_rows_to_csv"]

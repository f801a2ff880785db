"""Discrete-event cluster substrate (the simulated Grid'5000 testbed).

This subpackage contains no framework logic at all: it is the hardware.
Engines (``repro.engines.spark`` / ``repro.engines.flink``) run on top
of it, HDFS (``repro.hdfs``) stores blocks in it, and the monitoring
layer (``repro.monitoring``) reads its resource traces.
"""

from .allocation import fractional_max_min, grant_integer_max_min
from .fluid import Capacity, Flow, FluidScheduler
from .memory import MemoryAccount, OutOfMemoryError
from .node import GRID5000_PARAVANCE, HardwareSpec, Node
from .resources import BufferPool, CorePool, InsufficientBuffersError
from .simulation import (AllOf, AnyOf, Event, Interrupt, Process, Simulation,
                         SimulationError, Timeout)
from .topology import Cluster
from .trace import StepSeries

__all__ = [
    "AllOf", "AnyOf", "BufferPool", "Capacity", "Cluster", "CorePool",
    "Event", "Flow", "FluidScheduler", "GRID5000_PARAVANCE", "HardwareSpec",
    "InsufficientBuffersError", "Interrupt", "MemoryAccount", "Node",
    "OutOfMemoryError", "Process", "Simulation", "SimulationError",
    "StepSeries", "Timeout", "fractional_max_min",
    "grant_integer_max_min",
]

"""Deterministic discrete-event cluster simulator.

This package is the hardware substrate of the reproduction: a
virtual-time machine on which the real Scioto protocols (split queues,
work stealing, termination waves) execute unmodified.  See
``DESIGN.md`` for the substitution rationale.
"""

from repro.sim.engine import Engine, Proc, SchedulingStrategy, SimResult, run_spmd
from repro.sim.machines import (
    MachineSpec,
    cray_xt4,
    heterogeneous_cluster,
    uniform_cluster,
)
from repro.sim.resources import SimBarrier, SimMutex
from repro.sim.counters import Counters

__all__ = [
    "Engine",
    "Proc",
    "SchedulingStrategy",
    "SimResult",
    "run_spmd",
    "MachineSpec",
    "uniform_cluster",
    "heterogeneous_cluster",
    "cray_xt4",
    "SimBarrier",
    "SimMutex",
    "Counters",
]

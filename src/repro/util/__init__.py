"""Shared utilities: errors, formatting, and experiment records."""

from repro.util.errors import (
    ReproError,
    SimDeadlockError,
    SimLimitError,
    SimShutdown,
    CommError,
    TaskCollectionError,
)
from repro.util.format import format_table
from repro.util.records import Series, SweepResult

__all__ = [
    "ReproError",
    "SimDeadlockError",
    "SimLimitError",
    "SimShutdown",
    "CommError",
    "TaskCollectionError",
    "format_table",
    "Series",
    "SweepResult",
]

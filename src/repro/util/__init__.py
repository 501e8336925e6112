"""Shared utilities: errors, formatting, and experiment records."""

from repro.util.errors import (
    ReproError,
    SimDeadlockError,
    SimLimitError,
    SimShutdown,
    CommError,
    TaskCollectionError,
)
from repro.util.format import format_table, format_us, format_rate
from repro.util.records import Series, SweepResult

__all__ = [
    "ReproError",
    "SimDeadlockError",
    "SimLimitError",
    "SimShutdown",
    "CommError",
    "TaskCollectionError",
    "format_table",
    "format_us",
    "format_rate",
    "Series",
    "SweepResult",
]

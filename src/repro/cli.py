"""Argument types and shared flags of the ``python -m repro.*`` command lines.

A value out of range exits 2 (argparse's usage error) with the flag
named on stderr, never a traceback from deeper down.
"""

from __future__ import annotations

import argparse
import math

__all__ = [
    "positive_int",
    "positive_float",
    "non_negative_float",
    "seed_int",
    "add_jobs_argument",
    "print_progress",
]


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer >= 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for engine seeds: an integer >= 0 (numpy's domain)."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def positive_float(text: str) -> float:
    """argparse type for intervals: a finite number > 0."""
    value = _float(text)
    if not 0.0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type for thresholds: a number >= 0."""
    value = _float(text)
    if not value >= 0.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return value


def add_jobs_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="fleet worker processes (default: 1, in this process); "
        "the answer is the same for any N",
    )


def print_progress(stats: dict) -> None:
    """Fleet progress callback: one line per report."""
    print(
        f"  [{stats['wall_s']:6.1f}s] {stats['done']}/{stats['total']} jobs  "
        f"{stats['jobs_per_sec']:5.1f} jobs/s  "
        f"occupancy {stats['occupancy']:.0%}"
        + (f"  requeues {stats['requeues']}" if stats["requeues"] else ""),
        flush=True,
    )

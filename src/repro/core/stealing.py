"""Victim selection for work stealing.

The paper steals from a uniformly random victim (§5.1).  The choice is
a deterministic function of the per-rank RNG stream, preserving the
simulator's reproducibility.
"""

from __future__ import annotations

from repro.sim.engine import Proc

__all__ = ["RandomSelector"]


class RandomSelector:
    """Uniform choice over the other ranks."""

    def __init__(self, proc: Proc) -> None:
        self.proc = proc

    def next_victim(self) -> int:
        victim = int(self.proc.rng.integers(0, self.proc.nprocs - 1))
        return victim + 1 if victim >= self.proc.rank else victim

    def report(self, victim: int, success: bool) -> None:
        """Outcome of a steal from ``victim``; uniform choice ignores it."""

"""Shared global counters (GA ``read_inc``).

The original SCF and TCE codes the paper compares against balance load
by replicating the task list on every process and atomically
incrementing a shared counter to claim the next task (§6.2).  The
counter lives on one rank; every claim is a remote atomic that
serializes at the host — the contention the paper's Figures 5/6 show.
"""

from __future__ import annotations

from repro.armci.runtime import Armci
from repro.sim.engine import Engine, Proc

__all__ = ["GlobalCounter"]


class GlobalCounter:
    """An atomically-incremented counter hosted on ``host_rank``."""

    _KEY = "ga_counters"

    def __init__(self, engine: Engine, host_rank: int = 0) -> None:
        self.engine = engine
        self.host_rank = host_rank
        self.armci = Armci.attach(engine)
        self._value = 0

    @classmethod
    def co_create(cls, proc: Proc, host_rank: int = 0):
        """Collectively create a counter (call from every rank, in order)."""
        registry = proc.engine.state.setdefault(cls._KEY, {"counts": [0] * proc.nprocs, "objs": []})
        idx = registry["counts"][proc.rank]
        registry["counts"][proc.rank] += 1
        yield from proc.co_sync()
        if idx == len(registry["objs"]):
            registry["objs"].append(cls(proc.engine, host_rank))
        counter = registry["objs"][idx]
        yield from counter.armci.co_barrier(proc)
        return counter

    def co_read_inc(self, proc: Proc, amount: int = 1):
        """Atomically fetch the current value and add ``amount`` (NGA_Read_inc)."""

        def _fetch_add() -> int:
            v = self._value
            self._value += amount
            return v

        return (yield from self.armci.co_rmw(proc, self.host_rank, _fetch_add))

    def co_reset(self, proc: Proc):
        """Collectively reset the counter to zero."""
        yield from self.armci.co_barrier(proc)
        if proc.rank == self.host_rank:
            self._value = 0
        yield from self.armci.co_barrier(proc)

"""Replicated task list + shared global counter (original SCF/TCE scheme).

§6.2: "load balancing is achieved by replicating a work queue across all
processes and performing atomic increment on a shared counter to get the
next available task."  Every rank holds the complete task list; claiming
a task is one remote atomic ``read_inc`` on a counter hosted on rank 0.

The scheme is locality-oblivious — a task runs wherever it happens to be
claimed, so its data is remote with probability ``(p-1)/p`` — and the
counter serializes at its host.  Both effects grow with the process
count, producing the flattening speedups of Figures 5-6.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from types import GeneratorType
from typing import Any

from repro.armci.runtime import Armci
from repro.ga.counter import GlobalCounter
from repro.sim.engine import Proc

__all__ = ["GlobalCounterScheduler", "CounterRunStats"]


@dataclass
class CounterRunStats:
    """Per-rank outcome of a counter-scheduled phase."""

    rank: int
    tasks_claimed: int
    time_total: float
    time_working: float

    @property
    def time_overhead(self) -> float:
        return self.time_total - self.time_working


class GlobalCounterScheduler:
    """Dynamic load balancing via a shared ``read_inc`` counter.

    Build one collectively with ``yield from
    GlobalCounterScheduler.co_create(proc, execute)``, or around an
    existing counter with the constructor.
    """

    def __init__(
        self,
        proc: Proc,
        execute: Callable[[Proc, Any], None],
        counter: GlobalCounter,
    ) -> None:
        self.proc = proc
        self.execute = execute
        self.armci = Armci.attach(proc.engine)
        self.counter = counter

    @classmethod
    def co_create(
        cls,
        proc: Proc,
        execute: Callable[[Proc, Any], None],
        counter_host: int = 0,
    ):
        """Collective constructor: creates the shared counter on
        ``counter_host``."""
        counter = yield from GlobalCounter.co_create(proc, host_rank=counter_host)
        return cls(proc, execute, counter=counter)

    def co_run(self, tasks: Sequence[Any]):
        """Process the (replicated) ``tasks`` list to completion; collective.

        Every rank must pass an identical list; tasks execute exactly once
        across all ranks, in claim order.
        """
        proc = self.proc
        yield from self.armci.co_barrier(proc)
        t0 = proc.now
        working = 0.0
        claimed = 0
        while True:
            i = yield from self.counter.co_read_inc(proc)
            if i >= len(tasks):
                break
            w0 = proc.now
            res = self.execute(proc, tasks[i])
            if type(res) is GeneratorType:
                yield from res
            working += proc.now - w0
            claimed += 1
        yield from self.armci.co_barrier(proc)
        return CounterRunStats(
            rank=proc.rank,
            tasks_claimed=claimed,
            time_total=proc.now - t0,
            time_working=working,
        )

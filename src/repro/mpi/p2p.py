"""Two-sided point-to-point messaging with eager delivery semantics.

Each rank owns a FIFO mailbox of delivered messages.  ``send`` charges
the sender injection + transfer cost and delivers immediately (eager
protocol — appropriate for the small control messages the UTS-MPI
baseline exchanges).  ``recv`` blocks in virtual time until a matching
message is present; ``iprobe`` is a non-blocking check that charges the
explicit polling cost of the machine model.

Every call is a coroutine: ``yield from mpi.send(...)``, ``if (yield
from mpi.iprobe(...))``.  A call without ``yield from`` does nothing
(lint rule RPR007 flags it).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.sim.engine import Engine, Proc
from repro.sim.resources import SimBarrier
from repro.sim.counters import Counters
from repro.armci.collectives import mpi_barrier_cost
from repro.util.errors import CommError

__all__ = ["Mpi", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1

#: Fixed software overhead of matching/handling one two-sided message.
_MSG_OVERHEAD = 0.5e-6


class _Message:
    __slots__ = ("src", "tag", "payload")

    def __init__(self, src: int, tag: int, payload: Any) -> None:
        self.src = src
        self.tag = tag
        self.payload = payload


def _matches(msg: _Message, source: int, tag: int) -> bool:
    return (source in (ANY_SOURCE, msg.src)) and (tag in (ANY_TAG, msg.tag))


class Mpi:
    """Engine-wide MPI runtime: mailboxes, blocked receivers, barrier."""

    _KEY = "mpi"

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.counters = Counters()
        self._mailboxes: list[deque[_Message]] = [deque() for _ in range(engine.nprocs)]
        # rank -> (source, tag) the rank is blocked in recv() on, or None
        self._recv_wait: list[tuple[int, int] | None] = [None] * engine.nprocs
        self._barrier = SimBarrier(
            engine, engine.nprocs, lambda n: mpi_barrier_cost(engine.machine, n)
        )

    @classmethod
    def attach(cls, engine: Engine) -> "Mpi":
        """Return the engine's MPI runtime, creating it on first use."""
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine)
            engine.state[cls._KEY] = inst
        return inst

    # ------------------------------------------------------------------ #
    # Point to point
    # ------------------------------------------------------------------ #
    def send(
        self, proc: Proc, dest: int, tag: int, payload: Any, nbytes: int = 64
    ) -> Generator[Proc, None, None]:
        """Eager send: charge injection + transfer, deliver to ``dest``."""
        if dest == proc.rank:
            raise CommError("send to self is not supported")
        proc.advance(self.engine.machine.put_time(nbytes) + _MSG_OVERHEAD)
        yield from proc.co_sync()
        row = self.counters.row(proc.rank)
        row["sends"] += 1.0
        row["bytes_sent"] += nbytes
        msg = _Message(proc.rank, tag, payload)
        wait = self._recv_wait[dest]
        if wait is not None and _matches(msg, *wait):
            self._recv_wait[dest] = None
            self.engine.wake(self.engine.procs[dest], proc.now, msg)
        else:
            self._mailboxes[dest].append(msg)

    def recv(
        self, proc: Proc, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Proc, None, tuple[int, int, Any]]:
        """Blocking receive; returns ``(source, tag, payload)``."""
        proc.advance(_MSG_OVERHEAD)
        yield from proc.co_sync()
        box = self._mailboxes[proc.rank]
        for i, msg in enumerate(box):
            if _matches(msg, source, tag):
                del box[i]
                return (msg.src, msg.tag, msg.payload)
        self._recv_wait[proc.rank] = (source, tag)
        msg = yield from proc.co_park(f"MPI_Recv(src={source}, tag={tag})")
        return (msg.src, msg.tag, msg.payload)

    def iprobe(
        self, proc: Proc, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Proc, None, bool]:
        """Non-blocking probe; charges the explicit polling cost."""
        proc.advance(self.engine.machine.poll_cost)
        yield from proc.co_sync()
        self.counters.add(proc.rank, "polls")
        return any(_matches(msg, source, tag) for msg in self._mailboxes[proc.rank])

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def barrier(self, proc: Proc) -> Generator[Proc, None, None]:
        """MPI_Barrier (dissemination cost model)."""
        self.counters.add(proc.rank, "barrier")
        yield from self._barrier.co_wait(proc)

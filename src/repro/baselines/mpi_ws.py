"""Two-sided MPI work stealing with explicit polling (UTS-MPI baseline).

Reimplements the load balancer of the paper's comparison point (Dinan
et al., IPDPS 2007): each rank keeps a local work deque, processes items
LIFO, and every ``poll_interval`` items polls for steal *requests* from
idle peers, answering with a chunk of its oldest items (the biggest
subtrees) or a decline.  Idle ranks send requests to random victims and
wait — serving other requests and forwarding termination tokens while
they do, since nothing one-sided exists to make progress for them.

Termination uses the Dijkstra-Feijen-van Gasteren colored token ring:
rank 0 circulates a white token when idle; any rank that sent work since
its last token pass colors the token black; rank 0 declares termination
when a token returns white while itself idle and white.

The cost difference to Scioto is structural, exactly as §6.3 argues:
every steal needs the victim's attention (polling cost on the critical
path of *working* processes, waiting time on the thief), whereas
Scioto's thieves operate on the victim's queue one-sidedly.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.mpi import ANY_SOURCE, Mpi
from repro.sim.engine import Proc

__all__ = ["MpiWorkStealing", "WHITE", "BLACK"]

TAG_REQ = 101
TAG_RESP = 102
TAG_CTRL = 103  # termination tokens and the final done broadcast

WHITE = 0
BLACK = 1

#: Idle backoff between failed steal rounds.
_IDLE_BACKOFF = 0.5e-6


class MpiWorkStealing:
    """A message-passing work-stealing executor for one rank.

    Args:
        proc: This rank's simulated process.
        process_item: ``process_item(proc, item, push)`` — execute one
            work item; call ``push(new_item)`` for each item it spawns.
            A plain function: it must not suspend (no sync, no MPI call).
        item_bytes: Wire size of one work item.
        chunk: Maximum items handed over per steal.
        poll_interval: Items processed between polls for steal requests.
    """

    def __init__(
        self,
        proc: Proc,
        process_item: Callable[[Proc, Any, Callable[[Any], None]], None],
        item_bytes: int = 32,
        chunk: int = 10,
        poll_interval: int = 4,
    ) -> None:
        self.proc = proc
        self.mpi = Mpi.attach(proc.engine)
        self.process_item = process_item
        self.item_bytes = item_bytes
        self.chunk = chunk
        self.poll_interval = poll_interval
        self.deque: list[Any] = []
        self.color = WHITE
        self.token_in_hand: int | None = None
        self.probe_outstanding = False
        self.done = False
        self.processed = 0
        self.steals = 0
        self.steal_attempts = 0
        self._failed_rounds = 0  # consecutive declined steals, for backoff
        m = proc.machine
        self._push_cost = m.local_insert_overhead + m.local_copy_time(item_bytes)
        self._pop_cost = m.local_get_overhead + m.local_copy_time(item_bytes)

    # ------------------------------------------------------------------ #
    # Local deque with machine-model costs (no sync needed: rank-private)
    # ------------------------------------------------------------------ #
    def push(self, item: Any) -> None:
        self.proc.advance(self._push_cost)
        self.deque.append(item)

    def _pop(self) -> Any:
        self.proc.advance(self._pop_cost)
        return self.deque.pop()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, initial: list[Any]) -> Generator[Proc, None, int]:
        """Process ``initial`` and everything spawned from it; collective.

        Returns the number of items this rank processed.
        """
        proc = self.proc
        pop, push, process_item = self._pop, self.push, self.process_item
        yield from self.mpi.barrier(proc)
        for item in initial:
            push(item)
        if proc.nprocs == 1:
            while self.deque:
                process_item(proc, pop(), push)
                self.processed += 1
            return self.processed
        while not self.done:
            while self.deque and not self.done:
                for _ in range(min(self.poll_interval, len(self.deque))):
                    process_item(proc, pop(), push)
                    self.processed += 1
                yield from self._service(proc)
            if self.done:
                break
            yield from self._idle_round(proc)
        return self.processed

    # ------------------------------------------------------------------ #
    # Serving steal requests and control messages
    # ------------------------------------------------------------------ #
    def _service(self, proc: Proc) -> Generator[Proc, None, None]:
        """Poll for and serve steal requests; drain control messages."""
        while (yield from self.mpi.iprobe(proc, tag=TAG_REQ)):
            src, _, _ = yield from self.mpi.recv(proc, tag=TAG_REQ)
            if len(self.deque) > 1:
                k = min(self.chunk, len(self.deque) // 2)
                give = self.deque[:k]  # oldest items: the biggest subtrees
                del self.deque[:k]
                yield from self.mpi.send(
                    proc, src, TAG_RESP, give, nbytes=16 + k * self.item_bytes
                )
                self.color = BLACK  # transferred work since last token pass
            else:
                yield from self.mpi.send(proc, src, TAG_RESP, [], nbytes=16)
        yield from self._drain_control(proc)

    def _drain_control(self, proc: Proc) -> Generator[Proc, None, None]:
        while (yield from self.mpi.iprobe(proc, tag=TAG_CTRL)):
            _, _, msg = yield from self.mpi.recv(proc, tag=TAG_CTRL)
            if msg[0] == "token":
                self.token_in_hand = msg[1]
            else:  # done
                self.done = True

    def _token_step(self, proc: Proc) -> Generator[Proc, None, None]:
        """Forward / evaluate the termination token while idle."""
        if self.done or self.deque:
            return
        rank, n = proc.rank, proc.nprocs
        if rank == 0:
            if self.token_in_hand is not None:
                token = self.token_in_hand
                self.token_in_hand = None
                self.probe_outstanding = False
                if token == WHITE and self.color == WHITE:
                    self.done = True
                    for r in range(1, n):
                        yield from self.mpi.send(proc, r, TAG_CTRL, ("done",))
                    return
                self.color = WHITE  # accounted; restart probe below
            if not self.probe_outstanding:
                self.probe_outstanding = True
                self.color = WHITE
                yield from self.mpi.send(proc, 1, TAG_CTRL, ("token", WHITE))
        elif self.token_in_hand is not None:
            token = self.token_in_hand
            self.token_in_hand = None
            if self.color == BLACK:
                token = BLACK
            self.color = WHITE
            yield from self.mpi.send(proc, (rank + 1) % n, TAG_CTRL, ("token", token))

    # ------------------------------------------------------------------ #
    # Stealing
    # ------------------------------------------------------------------ #
    def _idle_round(self, proc: Proc) -> Generator[Proc, None, None]:
        """One idle iteration: try a random victim, keep the system live.

        Consecutive declines trigger exponential backoff (capped), the
        standard defence against steal-request storms: hundreds of idle
        ranks hammering the few loaded ones would otherwise spend the
        victims' cycles answering declines.
        """
        yield from self._token_step(proc)
        if self.done:
            return
        victim = int(proc.rng.integers(0, proc.nprocs - 1))
        if victim >= proc.rank:
            victim += 1
        self.steal_attempts += 1
        yield from self.mpi.send(proc, victim, TAG_REQ, None)
        while not self.done:
            if (yield from self.mpi.iprobe(proc, source=victim, tag=TAG_RESP)):
                _, _, items = yield from self.mpi.recv(proc, source=victim, tag=TAG_RESP)
                if items:
                    m = proc.machine
                    proc.advance(
                        m.local_insert_overhead
                        + m.local_copy_time(len(items) * self.item_bytes)
                    )
                    self.deque[:0] = items
                    self.steals += 1
                    self._failed_rounds = 0
                else:
                    self._failed_rounds += 1
                    backoff = min(
                        _IDLE_BACKOFF * (1 << min(self._failed_rounds, 16)),
                        50e-6,
                    )
                    yield from self._wait_idle(proc, backoff)
                return
            # while waiting: decline other thieves, move tokens along
            yield from self._service(proc)
            yield from self._token_step(proc)
            yield from proc.co_sleep(_IDLE_BACKOFF)

    def _wait_idle(self, proc: Proc, duration: float) -> Generator[Proc, None, None]:
        """Back off while staying responsive to requests and tokens."""
        deadline = proc.now + duration
        while proc.now < deadline and not self.done:
            yield from self._service(proc)
            yield from self._token_step(proc)
            if self.deque:
                return
            yield from proc.co_sleep(min(4.0e-6, max(deadline - proc.now, 1e-9)))

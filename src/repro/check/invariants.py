"""Protocol invariants checked online against the simulation event stream.

Each checker is built with the run's :class:`CheckContext` and
subscribes to the engine's :class:`~repro.obs.tracing.Tracer` for the
``kinds`` it reads; the tracer calls :meth:`~InvariantChecker.on_event`
as each event happens, and :meth:`~InvariantChecker.check` applies the
end-of-run rules.  Because the tracer records events at the protocol's
linearization points (queue mutations inside the one-sided closures,
mutex grants, the root's termination declaration), event order is the
global serialization order of the run — checkers reason over it in one
pass, keeping only the state their rule needs, never the event list.

Event vocabulary (emitted by hook points in ``core``/``sim``):

==============  =====================================================
kind            detail
==============  =====================================================
``task-add``    uid of the queued descriptor (``tc_add`` clone)
``task-exec``   uid, recorded at dispatch
``q-push``      ``(owner, uid)`` — owner local enqueue
``q-pop``       ``(owner, uid)`` — owner local dequeue
``q-steal``     ``(victim, (uid, ...))`` — removal at the victim
``q-absorb``    ``(thief, (uid, ...))`` — deposit into thief's queue
``q-add-remote``  ``(owner, uid)`` — remote insert at effect time
``mutex-acq``   mutex name, recorded at grant
``mutex-rel``   mutex name, recorded at release
``td-done``     wave number, recorded when the root declares
``graph-node``  task-graph node name, recorded at dispatch
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Violation",
    "CheckContext",
    "InvariantChecker",
    "ExactlyOnce",
    "NoEarlyTermination",
    "QueueConsistency",
    "MutexBalance",
    "GraphDependencyOrder",
]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a run's event stream."""

    invariant: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.invariant}] {self.message}"


@dataclass
class CheckContext:
    """Per-scenario facts the checkers need beyond the event stream.

    Attributes:
        capacity: Per-rank queue capacity (None disables the bound check).
        expect_complete: Whether every added task must have executed by
            the end of the run (True for ``tc_process`` workloads; False
            for open-ended queue stress where tasks may legally remain
            queued or in flight at the end).
        dag: ``{node: (dep, ...)}`` for task-graph scenarios.
    """

    capacity: int | None = None
    expect_complete: bool = True
    dag: dict[str, tuple[str, ...]] | None = None


class InvariantChecker:
    """Base checker: read the events of :attr:`kinds` as they happen,
    then return the violations from :meth:`check`."""

    name = "invariant"
    #: The event kinds :meth:`on_event` is called for.
    kinds: tuple[str, ...] = ()

    def __init__(self, ctx: CheckContext) -> None:
        self.ctx = ctx
        self.violations: list[Violation] = []

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        """Event ``i`` (its position among all tracer events) of one of
        :attr:`kinds`, recorded on ``rank``."""
        raise NotImplementedError

    def check(self) -> list[Violation]:
        """The violations of the whole run (call once, after it ends)."""
        return self.violations

    def _v(self, message: str) -> None:
        self.violations.append(Violation(self.name, message))


class ExactlyOnce(InvariantChecker):
    """Every added task executes exactly once (and, when the workload runs
    to termination, at least once) — the paper's core safety property."""

    name = "exactly-once"
    kinds = ("task-add", "task-exec")

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self.added: set[int] = set()
        self.execs: dict[int, int] = {}

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        if kind == "task-add":
            if detail in self.added:
                self._v(f"task uid {detail} added twice")
            self.added.add(detail)
        else:
            self.execs[detail] = self.execs.get(detail, 0) + 1

    def check(self) -> list[Violation]:
        added = self.added
        for uid, n in self.execs.items():
            if n > 1:
                self._v(f"task uid {uid} executed {n} times")
            if uid not in added:
                self._v(f"task uid {uid} executed but never added")
        if self.ctx.expect_complete:
            missing = sorted(added - self.execs.keys())
            if missing:
                self._v(
                    f"{len(missing)} added task(s) never executed "
                    f"(uids {missing[:8]}{'...' if len(missing) > 8 else ''})"
                )
        return self.violations


class NoEarlyTermination(InvariantChecker):
    """The root may declare termination only after all work is done: no
    task dispatch may appear after a ``td-done`` event in serialization
    order (§5.2's safety direction)."""

    name = "no-early-termination"
    kinds = ("td-done", "task-exec")

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self.done_at: int | None = None
        self.executed = False

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        if kind == "td-done":
            if self.done_at is None:
                self.done_at = i
            return
        self.executed = True
        if self.done_at is not None:
            self._v(
                f"task uid {detail} dispatched on rank {rank} after "
                f"termination was declared (event {i} > done at {self.done_at})"
            )

    def check(self) -> list[Violation]:
        if self.ctx.expect_complete and self.done_at is None and self.executed:
            self._v("run ended without a termination declaration")
        return self.violations


class QueueConsistency(InvariantChecker):
    """Split-queue state machine: every descriptor is in exactly one place.

    Replays the queue events against a per-uid location automaton
    (``queued@rank`` → ``popped`` / ``in-flight@thief`` → ``queued@thief``)
    and flags any transition the protocol forbids: popping or stealing a
    descriptor that is not in that queue, absorbing one that was never
    reserved, or a queue exceeding its capacity.  This is the list-storage
    analogue of the paper's head/split/tail index consistency — an index
    race shows up here as a descriptor that is lost (popped from nowhere)
    or duplicated (alive in two places).  Only live descriptors are kept.
    """

    name = "queue-consistency"
    kinds = ("q-push", "q-add-remote", "q-pop", "q-steal", "q-absorb")

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self.loc: dict[int, tuple[str, int]] = {}  # uid -> ("queued"|"inflight", rank)
        self.counts: dict[int, int] = {}  # rank -> descriptors currently queued

    def _enqueue(self, uid: int, rank: int, what: str) -> None:
        loc, counts, capacity = self.loc, self.counts, self.ctx.capacity
        if uid in loc:
            state, r = loc[uid]
            self._v(
                f"{what} of uid {uid} into rank {rank} queue while it is "
                f"already {state} at rank {r} (duplicated descriptor)"
            )
            return
        loc[uid] = ("queued", rank)
        counts[rank] = counts.get(rank, 0) + 1
        if capacity is not None and counts[rank] > capacity:
            self._v(f"rank {rank} queue holds {counts[rank]} descriptors, capacity {capacity}")

    def _dequeue(self, uid: int, rank: int, what: str) -> bool:
        state = self.loc.get(uid)
        if state != ("queued", rank):
            self._v(
                f"{what} of uid {uid} from rank {rank} queue but it is "
                f"{'absent' if state is None else f'{state[0]} at rank {state[1]}'}"
                " (lost or duplicated descriptor)"
            )
            return False
        del self.loc[uid]
        self.counts[rank] -= 1
        return True

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        if kind == "q-push":
            owner, uid = detail
            self._enqueue(uid, owner, "push")
        elif kind == "q-add-remote":
            owner, uid = detail
            self._enqueue(uid, owner, "remote add")
        elif kind == "q-pop":
            owner, uid = detail
            self._dequeue(uid, owner, "pop")
        elif kind == "q-steal":
            victim, uids = detail
            for uid in uids:
                if self._dequeue(uid, victim, "steal"):
                    self.loc[uid] = ("inflight", rank)
        else:  # q-absorb
            thief, uids = detail
            for uid in uids:
                state = self.loc.get(uid)
                if state != ("inflight", thief):
                    self._v(
                        f"absorb of uid {uid} at rank {thief} but it is "
                        f"{'absent' if state is None else f'{state[0]} at rank {state[1]}'}"
                    )
                    continue
                del self.loc[uid]
                self._enqueue(uid, thief, "absorb")


class MutexBalance(InvariantChecker):
    """Mutex acquire/release balance: grants alternate with releases by
    the same rank, and every mutex ends the run free."""

    name = "mutex-balance"
    kinds = ("mutex-acq", "mutex-rel")

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self.holder: dict[str, int] = {}  # mutex name -> rank holding it

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        holder = self.holder
        if kind == "mutex-acq":
            if detail in holder:
                self._v(
                    f"mutex {detail!r} granted to rank {rank} while "
                    f"held by rank {holder[detail]}"
                )
            holder[detail] = rank
        elif holder.pop(detail, None) != rank:
            self._v(f"mutex {detail!r} released by rank {rank} which does not hold it")

    def check(self) -> list[Violation]:
        for name, rank in sorted(self.holder.items()):
            self._v(f"mutex {name!r} still held by rank {rank} at end")
        return self.violations


class GraphDependencyOrder(InvariantChecker):
    """TaskGraph: a node dispatches only after all its dependencies, and
    each declared node runs exactly once."""

    name = "graph-deps"
    kinds = ("graph-node",)

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self.seen: dict[str, int] = {}  # node -> index of its dispatch

    def on_event(self, i: int, rank: int, kind: str, detail: Any) -> None:
        dag, seen = self.ctx.dag, self.seen
        if dag is None:
            return
        if detail in seen:
            self._v(f"graph node {detail!r} dispatched twice")
        seen[detail] = i
        for dep in dag.get(detail, ()):
            if dep not in seen or seen[dep] >= i:
                self._v(f"graph node {detail!r} dispatched before its dependency {dep!r}")

    def check(self) -> list[Violation]:
        dag = self.ctx.dag
        if dag is not None and self.ctx.expect_complete:
            missing = sorted(set(dag) - set(self.seen))
            if missing:
                self._v(f"graph nodes never executed: {missing}")
        return self.violations

"""Intentional protocol bugs, for validating the checker itself.

A model checker that has never caught a bug is indistinguishable from
one that cannot.  Each mutation here re-introduces a realistic race the
real protocol guards against — applied temporarily via monkey-patching
so the shipped protocol code stays untouched — and the test suite (and
``--mutate`` CLI flag) asserts that schedule exploration catches it and
produces a minimized, replayable trace.

This file implements bugs on purpose, so the lint rules that would
flag them are disabled for the whole file:

# repro: lint-disable-file=RPR001,RPR005
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.core.queue import REACQUIRE_FRACTION, SplitQueue
from repro.core.termination import TerminationDetector

__all__ = ["MUTATIONS", "apply_mutation"]


@contextlib.contextmanager
def unlocked_split() -> Iterator[None]:
    """Skip the split-pointer lock on the owner's reacquire move.

    The correct protocol adjusts the private/shared split under the queue
    mutex (or a reservation atomic in wait-free mode), so the move is
    atomic with respect to thieves.  This mutation performs the move as a
    read, a yield to the scheduler, then a write — the classic TOCTOU
    window: a thief that steals between the read and the write leaves the
    owner re-inserting descriptors that are already in flight, i.e. a
    duplicated task.  Caught by ``queue-consistency`` / ``exactly-once``.
    """
    orig = SplitQueue._co_reacquire

    def racy_reacquire(self: SplitQueue, proc):
        if not self._shared:
            return
        k = max(1, int(len(self._shared) * REACQUIRE_FRACTION))
        det = self.engine.detector
        if det is not None:
            det.record(proc, self._race_region, "r")
        moved = self._shared[:k]  # read the split window ...
        # ... unlocked, and spanning several scheduler yields — the
        # window a real one-sided metadata read/update pair leaves open
        for _ in range(3):
            yield from proc.co_sleep(self.engine.machine.local_lock_overhead)
        if det is not None:
            det.record(proc, self._race_region, "rw")
        self._private.extend(moved)
        del self._shared[:k]  # stale write-back of the split pointer
        self.counters.add(proc.rank, "reacquire_ops")
        self.counters.add(proc.rank, "tasks_reacquired", k)

    SplitQueue._co_reacquire = racy_reacquire
    try:
        yield
    finally:
        SplitQueue._co_reacquire = orig


@contextlib.contextmanager
def no_dirty_mark() -> Iterator[None]:
    """Drop §5.3's dirty marking entirely on steals.

    Without it a thief that already voted white can acquire work the
    detector never hears about, so the root can declare termination while
    stolen tasks are still queued.  Caught by ``no-early-termination`` /
    ``exactly-once`` (or by the scheduler's own protocol assertion).

    Use the ``steals`` target to catch this one: in workloads that also
    do remote adds, the add's piggybacked dirty mark (a separate,
    unmutated mechanism) blackens the victim's vote and the run
    self-heals on almost every schedule.
    """
    orig_mark = TerminationDetector.steal_mark
    orig_note = TerminationDetector.note_steal

    def no_steal_mark(self: TerminationDetector, proc, victim: int):
        return None

    def silent_note_steal(self: TerminationDetector, proc, victim: int) -> None:
        self.counters.add(proc.rank, "dirty_msgs_skipped")

    TerminationDetector.steal_mark = no_steal_mark
    TerminationDetector.note_steal = silent_note_steal
    try:
        yield
    finally:
        TerminationDetector.steal_mark = orig_mark
        TerminationDetector.note_steal = orig_note


@contextlib.contextmanager
def late_dirty_mark() -> Iterator[None]:
    """Deliver the §5.3 dirty mark as a separate fenced message *after*
    the steal, instead of inside the steal's locked transfer.

    This is the historical design of this codebase — and it is wrong:
    the fence orders the mark after the steal's transfers, but nothing
    orders it before the *victim's next vote*.  The victim can observe
    its emptied queue, vote white, and have the root complete an
    all-white wave before the mark lands, while the stolen work runs on
    a thief that also voted white.  Found by a task-graph property test
    (a dependent task enabled by the stolen work was never executed);
    kept as a mutation so the checker demonstrates the window is real.
    """
    orig_mark = TerminationDetector.steal_mark
    orig_note = TerminationDetector.note_steal

    def no_steal_mark(self: TerminationDetector, proc, victim: int):
        return None

    def late_note_steal(self: TerminationDetector, proc, victim: int):
        # A generator: the scheduler drives communicating note_steal
        # replacements (the production one is a plain function).
        self._mark_dirty(proc)
        if self._need_mark(victim):
            yield from self.armci.co_fence(proc, victim)
            victim_det = self.peers[victim]
            yield from self.armci.co_put(
                proc, victim, 8, lambda: victim_det._mark_dirty(proc, release=True)
            )
            self.counters.add(proc.rank, "dirty_msgs")
        else:
            self.counters.add(proc.rank, "dirty_msgs_skipped")

    TerminationDetector.steal_mark = no_steal_mark
    TerminationDetector.note_steal = late_note_steal
    try:
        yield
    finally:
        TerminationDetector.steal_mark = orig_mark
        TerminationDetector.note_steal = orig_note


@contextlib.contextmanager
def fence_elision() -> Iterator[None]:
    """Send the §5.3 dirty mark as a message without fencing the steal's
    transfers (the ``late_dirty_mark`` protocol minus its fence).

    A message-based mark must fence the thief's earlier one-sided ops to
    the victim first, so the victim cannot observe the mark, vote, and
    then have the steal's index update land afterwards.  This mutation
    skips the fence — the window is narrow and rarely corrupts state on
    random schedules, which is exactly why the race detector's fence
    discipline (``unfenced-flag-store``) is the right tool to catch it.
    """
    orig_mark = TerminationDetector.steal_mark
    orig_note = TerminationDetector.note_steal

    def no_steal_mark(self: TerminationDetector, proc, victim: int):
        return None

    def unfenced_note_steal(self: TerminationDetector, proc, victim: int):
        self._mark_dirty(proc)
        if self._need_mark(victim):
            victim_det = self.peers[victim]
            yield from self.armci.co_put(
                proc, victim, 8, lambda: victim_det._mark_dirty(proc, release=True)
            )
            self.counters.add(proc.rank, "dirty_msgs")
        else:
            self.counters.add(proc.rank, "dirty_msgs_skipped")

    TerminationDetector.steal_mark = no_steal_mark
    TerminationDetector.note_steal = unfenced_note_steal
    try:
        yield
    finally:
        TerminationDetector.steal_mark = orig_mark
        TerminationDetector.note_steal = orig_note


@contextlib.contextmanager
def lock_order_inversion() -> Iterator[None]:
    """Thieves lock their *own* queue before the victim's during a steal.

    A plausible "optimization": reserving absorb space up front so the
    stolen chunk can land without a second lock round. It creates the
    textbook deadlock recipe — rank A holds ``q[A]`` wanting ``q[B]``
    while rank B holds ``q[B]`` wanting ``q[A]`` — yet almost never
    hangs in practice because steal critical sections are short; on the
    default schedule every run completes.  That makes it the target for
    *predictive* lock-order analysis: the inverted order shows up in the
    lock-order graph of any trace with two-way stealing, and the
    deadlock witness strategy can steer the chains into an actual cycle
    (reported by the capture's wait-for monitor).

    The wrapper announces its inverted acquisition with a
    ``steal-own-lock`` protocol event — the gate the witness keys on.
    """
    orig_init = SplitQueue.__init__
    orig_steal = SplitQueue.co_steal_from

    def registering_init(self: SplitQueue, *args, **kwargs) -> None:
        orig_init(self, *args, **kwargs)
        self.engine.state.setdefault("queue-registry", {})[self.owner] = self

    def inverted_steal_from(
        self: SplitQueue, proc, want, probe_first=False, on_transfer=None
    ):
        own = self.engine.state.get("queue-registry", {}).get(proc.rank)
        if own is None or own.config.wait_free_steals or own is self:
            return (yield from orig_steal(
                self, proc, want, probe_first=probe_first, on_transfer=on_transfer
            ))
        det = self.engine.detector
        if det is not None:
            det.on_protocol(proc, "steal-own-lock", {"victim": self.owner})
        yield from own.mutex.co_acquire(proc)
        try:
            return (yield from orig_steal(
                self, proc, want, probe_first=probe_first, on_transfer=on_transfer
            ))
        finally:
            yield from own.mutex.co_release(proc)

    SplitQueue.__init__ = registering_init
    SplitQueue.co_steal_from = inverted_steal_from
    try:
        yield
    finally:
        SplitQueue.__init__ = orig_init
        SplitQueue.co_steal_from = orig_steal


@contextlib.contextmanager
def no_mutation() -> Iterator[None]:
    yield


#: CLI names for the available mutations.
MUTATIONS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "none": no_mutation,
    "unlocked_split": unlocked_split,
    "no_dirty_mark": no_dirty_mark,
    "late_dirty_mark": late_dirty_mark,
    "fence_elision": fence_elision,
    "lock_order_inversion": lock_order_inversion,
}


def apply_mutation(name: str | None) -> contextlib.AbstractContextManager:
    """Context manager applying mutation ``name`` (None/"none" = no-op)."""
    key = name if name is not None else "none"
    try:
        return MUTATIONS[key]()
    except KeyError:
        raise ValueError(
            f"unknown mutation {key!r}; choose from {sorted(MUTATIONS)}"
        ) from None

"""The split task queue (§5): lock-free local portion, locked shared portion.

Each process owns one queue; the aggregation of all queues is the task
collection.  The queue holds task descriptors ordered by affinity —
highest affinity at the *head* (executed locally first), lowest at the
*tail* (stolen first).  The queue is split into a private portion
(head side), accessed by the owner without locking, and a shared portion
(tail side), protected by an ARMCI mutex and accessible to thieves
through one-sided operations.  The owner moves tasks across the split
with cheap pointer adjustments: *release* feeds surplus private work to
the shared portion, *reacquire* reclaims shared work when the private
portion drains.

The paper's implementation stores descriptors in a contiguous circular
array so a chunk of tasks moves in a single one-sided transfer; here the
storage is a Python list and contiguity shows up purely in the cost
model (one lock + one metadata get + one bulk get per steal).

With ``split_queues=False`` the queue degenerates to the paper's
original fully-locked design: the owner takes the mutex for every local
operation and stalls behind in-progress steals (Figure 7's "No Split"
line).
"""

from __future__ import annotations

import bisect
from collections.abc import Callable

from repro.analyze import hooks
from repro.armci.runtime import Armci
from repro.core.config import SciotoConfig
from repro.core.task import Task
from repro.obs.record import Recorder, edge_here, edge_mark, observe, span
from repro.obs.tracing import Tracer, trace
from repro.sim.engine import Engine, Proc
from repro.sim.counters import Counters
from repro.util.errors import TaskCollectionError, check_count

__all__ = ["SplitQueue", "QUEUE_META_BYTES", "RELEASE_FRACTION", "REACQUIRE_FRACTION"]

#: Bytes of queue metadata (head/split/tail indices) read/written remotely.
QUEUE_META_BYTES = 24
#: Fraction of the private queue released to the shared portion when the
#: shared portion runs empty.
RELEASE_FRACTION = 0.5
#: Fraction of the shared portion reclaimed when the private portion runs
#: empty.
REACQUIRE_FRACTION = 0.5


class SplitQueue:
    """One process's patch of the distributed task collection."""

    def __init__(
        self,
        engine: Engine,
        owner: int,
        capacity: int,
        default_body_size: int,
        config: SciotoConfig,
        counters: Counters,
        name: str = "tq",
    ) -> None:
        check_count("capacity", capacity)
        self.engine = engine
        self.armci = Armci.attach(engine)
        self.owner = owner
        self.capacity = capacity
        self.default_body_size = default_body_size
        self.config = config
        self.counters = counters
        # Owner's live counter row, fetched lazily: an unused queue adds no empty row.
        self._row: dict[str, float] | None = None
        # Memoized push/pop costs per task body size: the cost model is a
        # pure function of the (immutable) machine spec, and body sizes
        # repeat, so the hot paths reuse the exact floats it computed.
        self._push_costs: dict[int | None, float] = {}
        self._copy_costs: dict[int | None, float] = {}
        self._get_overhead = engine.machine.local_get_overhead
        # Ordered descending by affinity; index 0 is the head.
        # In split mode _private is the owner's lock-free portion and
        # _shared the steal-able portion; in locked mode everything lives
        # in _shared and every operation takes the mutex.
        self._private: list[Task] = []
        self._shared: list[Task] = []
        self.mutex = self.armci.create_mutex(owner, f"{name}[{owner}]")
        # Race-detector region for the steal-able (shared) portion and its
        # metadata.  The private portion is owner-only by construction, so
        # only shared-portion touches are instrumented.
        self._race_region = ("queue", name, owner)
        # Causal-edge source key: the most recent point at which tasks
        # became stealable here (release / remote add / locked insert).
        # A successful steal emits a steal edge from that point.
        self._share_key = ("qshare", name, owner)

    # ------------------------------------------------------------------ #
    # Introspection (no cost; owner-view or test use)
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Total tasks currently queued (private + shared)."""
        return len(self._private) + len(self._shared)

    def private_size(self) -> int:
        return len(self._private)

    def shared_size(self) -> int:
        return len(self._shared)

    # ------------------------------------------------------------------ #
    # Owner-side operations
    # ------------------------------------------------------------------ #
    def _wire(self, task: Task) -> int:
        return task.wire_size(self.default_body_size)

    def _check_capacity(self, extra: int) -> None:
        if self.size() + extra > self.capacity:
            raise TaskCollectionError(
                f"task queue on rank {self.owner} overflow: "
                f"{self.size()} + {extra} > max_tasks={self.capacity}"
            )

    @staticmethod
    def _insert_by_affinity(region: list[Task], task: Task) -> None:
        """Insert keeping descending affinity; equal affinities go to the
        front of their class (LIFO — newest first, for locality)."""
        if not region or task.affinity >= region[0].affinity:
            region.insert(0, task)
            return
        pos = bisect.bisect_left(region, -task.affinity, key=lambda t: -t.affinity)
        region.insert(pos, task)

    def co_push_local(self, proc: Proc, task: Task):
        """Owner enqueues a task (lock-free in split mode)."""
        if proc.rank != self.owner:
            raise TaskCollectionError("push_local called by non-owner")
        engine = self.engine
        split = self.config.split_queues
        row = self._row
        if row is None:
            row = self._row = self.counters.row(self.owner)
        row["local_push"] += 1.0
        cost = self._push_costs.get(task.body_size)
        if cost is None:
            m = engine.machine
            cost = m.local_insert_overhead + m.local_copy_time(self._wire(task))
            self._push_costs[task.body_size] = cost
        if not split:
            yield from self.mutex.co_acquire(proc)
        proc._clock += cost  # advance(): model constant, >= 0
        yield from proc.co_sync()
        region = self._private if split else self._shared
        if len(self._private) + len(self._shared) >= self.capacity:
            self._check_capacity(1)
        if not region or task.affinity >= region[0].affinity:
            region.insert(0, task)
        else:
            self._insert_by_affinity(region, task)
        if engine.observed:
            if not split:
                hooks.shared_write(proc, self._race_region)
            tracer = engine.state.get(Tracer._KEY)
            if tracer is not None:
                tracer.record(proc, "q-push", (self.owner, task.uid))
            rec = engine.state.get(Recorder._KEY)
            if rec is not None:
                rec.spawn_sources[task.uid] = (proc.rank, proc._clock)
                if not split:
                    rec.mark(self._share_key, proc)
        if not split:
            yield from self.mutex.co_release(proc)
        elif not self._shared and len(region) >= 2:
            yield from self._co_maybe_release(proc)

    def co_pop_local(self, proc: Proc):
        """Owner dequeues the highest-affinity task, or None if empty."""
        if proc.rank != self.owner:
            raise TaskCollectionError("pop_local called by non-owner")
        engine = self.engine
        split = self.config.split_queues
        if not split:
            yield from self.mutex.co_acquire(proc)
        proc._clock += self._get_overhead  # advance(): constant, >= 0
        yield from proc.co_sync()
        if split:
            if not self._private and self._shared:
                yield from self._co_reacquire(proc)
            region = self._private
        else:
            if engine.observed:
                hooks.shared_update(proc, self._race_region)
            region = self._shared
        task = None
        if region:
            task = region.pop(0)
            if engine.observed:
                tracer = engine.state.get(Tracer._KEY)
                if tracer is not None:
                    tracer.record(proc, "q-pop", (self.owner, task.uid))
            cost = self._copy_costs.get(task.body_size)
            if cost is None:
                cost = engine.machine.local_copy_time(self._wire(task))
                self._copy_costs[task.body_size] = cost
            proc._clock += cost  # advance(): model constant, >= 0
            row = self._row
            if row is None:
                row = self._row = self.counters.row(self.owner)
            row["local_pop"] += 1.0
        if not split:
            yield from self.mutex.co_release(proc)
        elif task is not None and not self._shared and len(region) >= 2:
            yield from self._co_maybe_release(proc)
        return task

    def _co_maybe_release(self, proc: Proc):
        """Feed surplus private work to the shared portion (split move).

        Triggered when the shared portion has been drained (by thieves or
        by reacquisition): :data:`RELEASE_FRACTION` of the private queue —
        its lowest-affinity tail — becomes stealable.  Checking only on
        emptiness keeps the owner's fast path lock-free in steady state.
        """
        if self._shared or len(self._private) < 2:
            return
        k = min(
            len(self._private) - 1,
            max(1, int(len(self._private) * RELEASE_FRACTION)),
        )

        def _move() -> None:
            # lowest-affinity private tasks (the tail) become shared; keep
            # the shared region sorted (remote adds may interleave)
            hooks.shared_update(proc, self._race_region)
            self._shared = self._private[-k:] + self._shared
            del self._private[-k:]
            self._shared.sort(key=lambda t: -t.affinity)

        observe(proc, "queue_occupancy", self.size())
        with span(proc, "release", "queue", detail=k):
            yield from self._co_owner_split_update(proc, _move)
        hooks.protocol(proc, "queue-release", n=k)
        edge_mark(proc, self._share_key, detail=k)
        self.counters.add(proc.rank, "release_ops")
        self.counters.add(proc.rank, "tasks_released", k)

    def _co_reacquire(self, proc: Proc):
        """Reclaim shared work for local execution (split move)."""
        if not self._shared:
            return
        k = max(1, int(len(self._shared) * REACQUIRE_FRACTION))

        def _move() -> None:
            # highest-affinity shared tasks (the front) come back to private
            hooks.shared_update(proc, self._race_region)
            self._private.extend(self._shared[:k])
            del self._shared[:k]

        observe(proc, "queue_occupancy", self.size())
        with span(proc, "reacquire", "queue", detail=k):
            yield from self._co_owner_split_update(proc, _move)
        self.counters.add(proc.rank, "reacquire_ops")
        self.counters.add(proc.rank, "tasks_reacquired", k)

    def _co_owner_split_update(self, proc: Proc, move_fn):
        """Owner-side split-pointer adjustment.

        Locked mode takes the queue mutex briefly; wait-free mode uses a
        local CAS on the metadata, serializing with thieves' reservation
        atomics at this rank instead of blocking behind them.
        """
        if self.config.wait_free_steals:
            yield from self.armci.co_rmw(proc, self.owner, lambda: (move_fn(), None)[1])
            return
        yield from self.mutex.co_acquire(proc)
        proc.advance(self.engine.machine.local_lock_overhead)
        yield from proc.co_sync()
        move_fn()
        yield from self.mutex.co_release(proc)

    # ------------------------------------------------------------------ #
    # Remote operations (thief / remote inserter side)
    # ------------------------------------------------------------------ #
    def co_steal_from(
        self,
        proc: Proc,
        want: int,
        probe_first: bool = False,
        on_transfer: Callable[[], None] | None = None,
    ):
        """Steal up to ``want`` lowest-affinity tasks from this queue.

        Full one-sided protocol: lock, read metadata, bulk-get the chunk
        from the tail of the shared portion, update indices, unlock.
        Returns the stolen tasks ([] if none were available).

        With ``probe_first`` the thief reads the queue indices with a
        single unlocked get and backs off if the shared portion is empty
        — reading the split/tail words is safe without the mutex, and it
        makes idle-phase probing ~4x cheaper than a locked steal.  The
        scheduler enables this once steals start failing.

        ``on_transfer`` (when given) runs at the instant a non-empty
        chunk leaves the shared portion, inside the locked transaction —
        the §5.3 dirty mark rides here so the owner can never observe
        the emptied queue without it (``TerminationDetector.steal_mark``).
        """
        if proc.rank == self.owner:
            raise TaskCollectionError("a process cannot steal from itself")
        self.counters.add(proc.rank, "steal_attempt")

        def _take() -> list[Task]:
            observed = self.engine.observed
            if observed:
                hooks.shared_update(proc, self._race_region)
            k = min(want, len(self._shared))
            taken = self._shared[len(self._shared) - k :]
            del self._shared[len(self._shared) - k :]
            if taken:
                if observed:
                    trace(proc, "q-steal", (self.owner, tuple(t.uid for t in taken)))
                    hooks.protocol(
                        proc, "steal-transfer", victim=self.owner, n=len(taken)
                    )
                if on_transfer is not None:
                    on_transfer()
            return taken

        if self.config.wait_free_steals:
            return (yield from self._co_steal_waitfree(proc, _take))
        if probe_first:
            n_shared = yield from self.armci.co_get(
                proc, self.owner, QUEUE_META_BYTES, lambda: len(self._shared)
            )
            if n_shared == 0:
                self.counters.add(proc.rank, "steal_probe_empty")
                return []
        yield from self.mutex.co_acquire(proc)
        # The queue is contiguous, so metadata and the tail chunk arrive in
        # a single one-sided get (the paper's "several tasks ... using a
        # single one-sided communication operation", §5).
        probe_k = min(want, len(self._shared))
        nbytes = QUEUE_META_BYTES + sum(
            self._wire(t) for t in self._shared[len(self._shared) - probe_k :]
        )
        tasks = yield from self.armci.co_get(proc, self.owner, nbytes, _take)
        if tasks:
            yield from self.armci.co_put(proc, self.owner, QUEUE_META_BYTES, None)  # index update
        yield from self.mutex.co_release(proc)
        proc.advance(self.engine.machine.remote_op_overhead)
        if tasks:
            self._note_stolen(proc, tasks, "steal")
        return tasks

    def _note_stolen(self, proc: Proc, tasks: list[Task], event: str) -> None:
        self.counters.add(proc.rank, "steal_success")
        self.counters.add(proc.rank, "tasks_stolen", len(tasks))
        if self.engine.observed:
            trace(proc, event, f"{len(tasks)} tasks from rank {self.owner}")
            edge_here(proc, self._share_key, "steal", detail=len(tasks))

    def _co_steal_waitfree(self, proc: Proc, take: Callable[[], list[Task]]):
        """Wait-free steal (§8 future work): one remote atomic reserves the
        chunk by moving the tail index; the descriptors then move with a
        single get.  No mutex is taken, so an in-progress steal never
        blocks the owner or other thieves — reservations serialize only
        for the duration of the metadata atomic at the target."""
        m = self.engine.machine
        tasks = yield from self.armci.co_rmw(proc, self.owner, take)
        if not tasks:
            return []
        nbytes = sum(self._wire(t) for t in tasks)
        proc.advance(m.get_time(nbytes))  # fetch the reserved slots
        yield from proc.co_sync()
        proc.advance(m.remote_op_overhead)
        self._note_stolen(proc, tasks, "steal-wf")
        return tasks

    def co_absorb_stolen(self, proc: Proc, tasks: list[Task]):
        """Thief deposits a stolen chunk into its own queue.

        The chunk arrived in one contiguous buffer; absorbing it is a
        single local copy plus an insert, then an affinity-order merge.
        """
        if proc.rank != self.owner:
            raise TaskCollectionError("absorb_stolen called by non-owner")
        if not tasks:
            return
        m = self.engine.machine
        nbytes = sum(self._wire(t) for t in tasks)
        if not self.config.split_queues:
            # Fully-locked design: the absorbing owner inserts into the
            # shared (and only) portion, which concurrent thieves may be
            # stealing from — so the insert takes the queue mutex like
            # every other operation in this mode.
            yield from self.mutex.co_acquire(proc)
        proc.advance(m.local_insert_overhead + m.local_copy_time(nbytes))
        yield from proc.co_sync()
        self._check_capacity(len(tasks))
        split = self.config.split_queues
        observed = self.engine.observed
        if observed and not split:
            hooks.shared_write(proc, self._race_region)
        region = self._private if split else self._shared
        region.extend(tasks)
        region.sort(key=lambda t: -t.affinity)  # stable merge; mostly sorted
        if observed:
            trace(proc, "q-absorb", (self.owner, tuple(t.uid for t in tasks)))
        if split:
            yield from self._co_maybe_release(proc)
        else:
            if observed:
                edge_mark(proc, self._share_key, detail=len(tasks))
            yield from self.mutex.co_release(proc)

    def co_add_remote(self, proc: Proc, task: Task):
        """Insert a task into another process's queue (remote ``tc_add``).

        Protocol: lock, read tail index, put the descriptor, update the
        index, unlock.  The task lands in the shared portion — remote
        processes never touch the owner's private region.
        """
        if proc.rank == self.owner:
            raise TaskCollectionError("add_remote called by the owner; use push_local")
        self.counters.add(proc.rank, "remote_add")

        def _insert() -> None:
            self._check_capacity(1)
            self._insert_by_affinity(self._shared, task)
            engine = self.engine
            if engine.observed:
                hooks.shared_write(proc, self._race_region)
                tracer = engine.state.get(Tracer._KEY)
                if tracer is not None:
                    tracer.record(proc, "q-add-remote", (self.owner, task.uid))
                rec = engine.state.get(Recorder._KEY)
                if rec is not None:
                    rec.spawn_sources[task.uid] = (proc.rank, proc._clock)
                    rec.mark(self._share_key, proc)

        if self.config.wait_free_steals:
            # reserve a slot with one atomic, then put the descriptor
            yield from self.armci.co_rmw(proc, self.owner, _insert)
            yield from self.armci.co_put(proc, self.owner, self._wire(task), None)
        else:
            yield from self.mutex.co_acquire(proc)
            yield from self.armci.co_get(proc, self.owner, QUEUE_META_BYTES, None)  # read indices
            yield from self.armci.co_put(proc, self.owner, self._wire(task), _insert)
            yield from self.mutex.co_release(proc)
        proc.advance(self.engine.machine.remote_op_overhead)

    def drain(self) -> list[Task]:
        """Remove and return all queued tasks (used by ``tc_reset``).

        ``tc_reset`` is collective and runs between barriers, so no
        thief can be in the queue while it drains — safe without the
        mutex.
        """
        out = self._private + self._shared
        self._private = []
        self._shared = []  # repro: lint-disable=RPR001
        return out

"""Property-based tests of SplitQueue invariants.

Invariants under any operation sequence:

* conservation — every pushed task is popped or stolen exactly once;
* affinity ordering — the owner pops in non-increasing affinity order
  (among tasks present), thieves receive the lowest-affinity tasks;
* capacity — the queue never exceeds ``max_tasks``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SciotoConfig
from repro.core.queue import SplitQueue
from repro.core.task import Task
from repro.sim.engine import Engine
from repro.sim.counters import Counters

# an operation script: (op, affinity) where op in push/pop/steal/radd
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "steal", "radd"]),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, split=st.booleans(), chunk=st.integers(1, 5))
def test_conservation_and_uniqueness(ops, split, chunk):
    cfg = SciotoConfig(split_queues=split, chunk_size=chunk)
    eng = Engine(2, max_events=500_000)
    queue = SplitQueue(eng, 0, 10_000, 32, cfg, Counters())
    pushed: list[int] = []
    removed: list[int] = []

    def owner(proc):
        serial = 0
        for op, aff in ops:
            if op == "push":
                yield from queue.co_push_local(proc, Task(callback=0, body=("o", serial), affinity=aff))
                pushed.append(("o", serial))
                serial += 1
            elif op == "pop":
                t = yield from queue.co_pop_local(proc)
                if t is not None:
                    removed.append(t.body)
            yield from proc.co_sleep(5e-6)  # let the thief interleave deterministically
        yield from proc.co_sleep(1.0 - proc.now)
        # drain the remainder
        while True:
            t = yield from queue.co_pop_local(proc)
            if t is None:
                break
            removed.append(t.body)

    def thief(proc):
        serial = 0
        for op, aff in ops:
            if op == "steal":
                for t in (yield from queue.co_steal_from(proc, chunk)):
                    removed.append(t.body)
            elif op == "radd":
                yield from queue.co_add_remote(proc, Task(callback=0, body=("t", serial), affinity=aff))
                pushed.append(("t", serial))
                serial += 1
            yield from proc.co_sleep(5e-6)

    eng.spawn(0, owner)
    eng.spawn(1, thief)
    eng.run()
    assert Counter(removed) == Counter(pushed), "tasks lost or duplicated"
    assert queue.size() == 0


def _pop_sequence(affs, split):
    cfg = SciotoConfig(split_queues=split)
    eng = Engine(1, max_events=500_000)
    queue = SplitQueue(eng, 0, 10_000, 32, cfg, Counters())
    out: list[int] = []

    def main(proc):
        for i, a in enumerate(affs):
            yield from queue.co_push_local(proc, Task(callback=0, body=i, affinity=a))
        while True:
            t = yield from queue.co_pop_local(proc)
            if t is None:
                return
            out.append(t.affinity)

    eng.spawn_all(main)
    eng.run()
    return out


@settings(max_examples=40, deadline=None)
@given(affs=st.lists(st.integers(0, 9), min_size=2, max_size=30))
def test_locked_queue_pops_by_affinity(affs):
    """The single-region (no-split) queue is a strict priority queue."""
    out = _pop_sequence(affs, split=False)
    assert sorted(out, reverse=True) == out, f"pops out of affinity order: {out}"
    assert len(out) == len(affs)


@settings(max_examples=40, deadline=None)
@given(affs=st.lists(st.integers(0, 9), min_size=2, max_size=30))
def test_split_queue_priority_is_heuristic_but_head_is_max(affs):
    """The split queue prioritizes approximately (§5.1): exact ordering
    can break across release/reacquire boundaries, but the first pop is
    always the global maximum (the head never leaves the private
    portion), and every task still comes out exactly once."""
    out = _pop_sequence(affs, split=True)
    assert len(out) == len(affs)
    assert out[0] == max(affs)
    assert sorted(out) == sorted(affs)


@settings(max_examples=40, deadline=None)
@given(
    affs=st.lists(st.integers(0, 9), min_size=4, max_size=30),
    want=st.integers(1, 6),
)
def test_thief_gets_no_higher_affinity_than_owner_keeps(affs, want):
    """Whatever a steal returns must not out-rank what remains queued."""
    eng = Engine(2, max_events=500_000)
    queue = SplitQueue(eng, 0, 10_000, 32, SciotoConfig(), Counters())
    outcome = {}

    def owner(proc):
        for i, a in enumerate(affs):
            yield from queue.co_push_local(proc, Task(callback=0, body=i, affinity=a))
        yield from proc.co_sleep(1.0 - proc.now)
        outcome["kept"] = [t.affinity for t in queue.drain()]

    def thief(proc):
        yield from proc.co_sleep(0.5)
        outcome["stolen"] = [t.affinity for t in (yield from queue.co_steal_from(proc, want))]

    eng.spawn(0, owner)
    eng.spawn(1, thief)
    eng.run()
    stolen, kept = outcome["stolen"], outcome["kept"]
    if stolen and kept:
        # the global-maximum task sits at the private head and is never
        # released while other tasks remain, so thieves cannot take it
        assert max(stolen) <= max(kept)


# ---------------------------------------------------------------------- #
# Reference model: the real queue against a plain sorted-list spec
# ---------------------------------------------------------------------- #
class _RefQueue:
    """What :class:`SplitQueue` must hold after any serialized op sequence:
    two plain lists, head first, a newcomer in front of its affinity class,
    the §5 split moves written out literally.  No costs, no sync, no hooks."""

    def __init__(self, cfg: SciotoConfig) -> None:
        self.cfg, self.private, self.shared = cfg, [], []

    @staticmethod
    def _insert(region, t):
        at = next((i for i, x in enumerate(region) if x.affinity <= t.affinity), len(region))
        region.insert(at, t)

    def _release(self):
        n = len(self.private)
        if self.cfg.split_queues and not self.shared and n >= 2:
            k = min(n - 1, max(1, int(n * self.cfg.release_fraction)))
            self.private, self.shared = self.private[:-k], self.private[-k:]

    def push(self, t):
        self._insert(self.private if self.cfg.split_queues else self.shared, t)
        self._release()

    def pop(self):
        if not self.cfg.split_queues:
            return self.shared.pop(0) if self.shared else None
        if not self.private and self.shared:
            k = max(1, int(len(self.shared) * self.cfg.reacquire_fraction))
            self.private, self.shared = self.shared[:k], self.shared[k:]
        if not self.private:
            return None
        t = self.private.pop(0)
        self._release()
        return t

    def steal(self, want):
        cut = len(self.shared) - min(want, len(self.shared))
        self.shared, got = self.shared[:cut], self.shared[cut:]
        return got

    def absorb(self, tasks):
        if tasks:
            region = self.private if self.cfg.split_queues else self.shared
            region.extend(tasks)
            region.sort(key=lambda t: -t.affinity)
            self._release()

    def add_remote(self, t):
        self._insert(self.shared, t)

    def drain(self):
        out, self.private, self.shared = self.private + self.shared, [], []
        return out


_CONFIGS = {
    "split": SciotoConfig(),
    "locked": SciotoConfig(split_queues=False),
    "wait-free": SciotoConfig(wait_free_steals=True),
}

# (op, rank or target queue, affinity or steal size); ranks 0 and 1 own a
# queue each and steal from each other, rank 2 only adds remotely.
_SCRIPT = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "pop", "steal", "radd", "drain"]),
        st.integers(0, 1),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=50, deadline=None)
@given(script=_SCRIPT, config=st.sampled_from(sorted(_CONFIGS)))
def test_split_queue_matches_sorted_list_reference(script, config):
    """Same pop order, same stolen chunks, same portion sizes after every
    operation, and nothing lost or duplicated — in all three protocols."""
    cfg = _CONFIGS[config]
    eng = Engine(3, max_events=500_000)
    counters = Counters()
    real = [SplitQueue(eng, r, 10_000, 32, cfg, counters) for r in range(2)]
    ref = [_RefQueue(cfg), _RefQueue(cfg)]
    bodies = lambda tasks: [t.body for t in tasks]  # noqa: E731
    live: list[int] = []  # bodies queued somewhere, per the reference

    def main(proc):
        me = proc.rank
        for i, (op, who, arg) in enumerate(script):
            if (2 if op == "radd" else who) != me:
                continue
            # one op per virtual millisecond: each finishes long before the
            # next starts, so the script order is the execution order
            yield from proc.co_sleep((i + 1) * 1e-3 - proc.now)
            if op == "push":
                task = Task(callback=0, body=i, affinity=arg)
                yield from real[me].co_push_local(proc, task)
                ref[me].push(task)
                live.append(i)
            elif op == "radd":
                task = Task(callback=0, body=i, affinity=arg)
                yield from real[who].co_add_remote(proc, task)
                ref[who].add_remote(task)
                live.append(i)
            elif op == "pop":
                got = yield from real[me].co_pop_local(proc)
                want = ref[me].pop()
                assert (got and got.body) == (want and want.body), f"op {i}: pop"
                if want is not None:
                    live.remove(want.body)
            elif op == "steal":
                got = yield from real[1 - me].co_steal_from(proc, arg + 1)
                want = ref[1 - me].steal(arg + 1)
                assert bodies(got) == bodies(want), f"op {i}: stolen chunk"
                yield from real[me].co_absorb_stolen(proc, got)
                ref[me].absorb(want)
            else:
                got, want = real[me].drain(), ref[me].drain()
                assert bodies(got) == bodies(want), f"op {i}: drain"
                for body in bodies(want):
                    live.remove(body)
            for q, model in zip(real, ref):
                assert bodies(q._private) == bodies(model.private), f"op {i}: {op}"
                assert bodies(q._shared) == bodies(model.shared), f"op {i}: {op}"

    eng.spawn_all(main)
    eng.run()
    left = bodies(real[0].drain() + real[1].drain())
    assert sorted(left) == sorted(live), "tasks lost or duplicated"

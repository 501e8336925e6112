"""Tests for the split task queue: affinity ordering, split moves, stealing."""

from __future__ import annotations

import pytest

from repro.core.config import SciotoConfig
from repro.core.queue import SplitQueue
from repro.core.task import Task
from repro.sim.engine import Engine
from repro.sim.counters import Counters
from repro.util.errors import TaskCollectionError


def _queue_env(nprocs=2, capacity=100, cfg=None, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=500_000)
    cfg = cfg or SciotoConfig()
    counters = Counters()
    queues = [SplitQueue(eng, r, capacity, 64, cfg, counters) for r in range(nprocs)]
    return eng, queues, counters


def _run(eng, main, *args):
    eng.spawn_all(main, *args)
    return eng.run()


def _mk(i, affinity=0):
    return Task(callback=0, body=i, affinity=affinity, body_size=16)


def _pop_bodies(q, proc, n):
    """Pop ``n`` tasks from the owner end; return their bodies."""
    bodies = []
    for _ in range(n):
        bodies.append((yield from q.co_pop_local(proc)).body)
    return bodies


class TestLocalOps:
    def test_push_pop_lifo_for_equal_affinity(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank != 0:
                return None
            q = queues[0]
            for i in range(5):
                yield from q.co_push_local(proc, _mk(i))
            return (yield from _pop_bodies(q, proc, 5))

        res = _run(eng, main)
        assert res.returns[0] == [4, 3, 2, 1, 0]

    def test_high_affinity_popped_first(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank != 0:
                return None
            q = queues[0]
            yield from q.co_push_local(proc, _mk("low", affinity=0))
            yield from q.co_push_local(proc, _mk("high", affinity=10))
            yield from q.co_push_local(proc, _mk("mid", affinity=5))
            return (yield from _pop_bodies(q, proc, 3))

        res = _run(eng, main)
        assert res.returns[0] == ["high", "mid", "low"]

    def test_pop_empty_returns_none(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            return (yield from queues[proc.rank].co_pop_local(proc))

        res = _run(eng, main)
        assert res.returns == [None, None]

    def test_capacity_overflow_raises(self):
        eng, queues, _ = _queue_env(capacity=3)

        def main(proc):
            if proc.rank == 0:
                for i in range(4):
                    yield from queues[0].co_push_local(proc, _mk(i))

        with pytest.raises(TaskCollectionError, match="overflow"):
            _run(eng, main)

    def test_non_owner_local_ops_rejected(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank == 1:
                yield from queues[0].co_push_local(proc, _mk(0))

        with pytest.raises(TaskCollectionError, match="non-owner"):
            _run(eng, main)

    def test_release_moves_surplus_to_shared(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank != 0:
                return None
            q = queues[0]
            for i in range(8):
                yield from q.co_push_local(proc, _mk(i))
            return (q.private_size(), q.shared_size())

        res = _run(eng, main)
        priv, shr = res.returns[0]
        assert shr > 0, "surplus work must be released for stealing"
        assert priv + shr == 8

    def test_reacquire_reclaims_shared_work(self):
        eng, queues, counters = _queue_env()

        def main(proc):
            if proc.rank != 0:
                return None
            q = queues[0]
            for i in range(8):
                yield from q.co_push_local(proc, _mk(i))
            return (yield from _pop_bodies(q, proc, 8))

        res = _run(eng, main)
        assert sorted(res.returns[0]) == list(range(8))
        assert counters.get(0, "reacquire_ops") > 0

    def test_insert_by_affinity_placement(self):
        """Descending affinity, newest first inside a class — the slot the
        earlier list-of-negated-keys bisect chose, on 1,000 random inserts."""
        import bisect
        import random

        rng = random.Random(18)
        region: list[Task] = []
        for i in range(1000):
            task = _mk(i, affinity=rng.randrange(6))
            keys = [-t.affinity for t in region]
            before = list(region)
            SplitQueue._insert_by_affinity(region, task)
            at = region.index(task)
            assert at == bisect.bisect_left(keys, -task.affinity)
            assert region[:at] + region[at + 1 :] == before
        affs = [t.affinity for t in region]
        assert affs == sorted(affs, reverse=True)
        for a, b in zip(region, region[1:]):
            assert a.affinity > b.affinity or a.body > b.body  # LIFO in a class


class TestStealing:
    def test_steal_takes_lowest_affinity_tail(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            q = queues[0]
            if proc.rank == 0:
                for i in range(6):
                    yield from q.co_push_local(proc, _mk(i, affinity=i))
                yield from proc.co_sleep(200e-6 - proc.now)
                # shared drained by the first steal; this push releases more
                yield from q.co_push_local(proc, _mk(6, affinity=6))
                yield from proc.co_sleep(400e-6 - proc.now)
                return sorted(t.affinity for t in q.drain())
            yield from proc.co_sleep(100e-6)
            first = yield from q.co_steal_from(proc, 2)  # drains the shared portion
            yield from proc.co_sleep(300e-6 - proc.now)
            second = yield from q.co_steal_from(proc, 2)
            return (sorted(t.affinity for t in first), sorted(t.affinity for t in second))

        res = _run(eng, main)
        first, second = res.returns[1]
        remaining = res.returns[0]
        assert len(first) >= 1
        assert len(second) == 2
        assert max(second) <= min(remaining), "thief must get the lowest-affinity tasks"

    def test_steal_from_empty_returns_nothing(self):
        eng, queues, counters = _queue_env()

        def main(proc):
            if proc.rank == 1:
                return (yield from queues[0].co_steal_from(proc, 5))
            return None

        res = _run(eng, main)
        assert res.returns[1] == []
        assert counters.get(1, "steal_attempt") == 1
        assert counters.get(1, "steal_success") == 0

    def test_steal_respects_chunk_size(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            q = queues[0]
            if proc.rank == 0:
                for i in range(20):
                    yield from q.co_push_local(proc, _mk(i))
                yield from proc.co_sleep(200e-6 - proc.now)
                yield from q.co_push_local(proc, _mk(99))  # releases half of private
                yield from proc.co_sleep(500e-6 - proc.now)
                return None
            yield from proc.co_sleep(100e-6)
            yield from q.co_steal_from(proc, 10)  # drain initial shared
            yield from proc.co_sleep(300e-6 - proc.now)
            assert q.shared_size() >= 5
            return len((yield from q.co_steal_from(proc, 3)))

        res = _run(eng, main)
        assert res.returns[1] == 3

    def test_steal_only_touches_shared_portion(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            q = queues[0]
            if proc.rank == 0:
                yield from q.co_push_local(proc, _mk(0))  # single task stays private
                yield from proc.co_sleep(200e-6)
                return q.size()
            yield from proc.co_sleep(50e-6)
            return len((yield from q.co_steal_from(proc, 10)))

        res = _run(eng, main)
        assert res.returns[1] == 0, "private-only work must not be stealable"
        assert res.returns[0] == 1

    def test_self_steal_rejected(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank == 0:
                yield from queues[0].co_steal_from(proc, 1)

        with pytest.raises(TaskCollectionError, match="steal from itself"):
            _run(eng, main)

    def test_absorb_stolen_preserves_tasks_and_order(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank != 1:
                return None
            q = queues[1]
            yield from q.co_absorb_stolen(proc, [_mk("a", 5), _mk("b", 1)])
            return (yield from _pop_bodies(q, proc, 2))

        res = _run(eng, main)
        assert res.returns[1] == ["a", "b"]

    def test_remote_add_lands_in_shared_portion(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            q = queues[0]
            if proc.rank == 1:
                yield from q.co_add_remote(proc, _mk("gift"))
                return None
            yield from proc.co_sleep(100e-6)
            return (q.shared_size(), (yield from q.co_pop_local(proc)).body)

        res = _run(eng, main)
        assert res.returns[0] == (1, "gift")

    def test_remote_add_by_owner_rejected(self):
        eng, queues, _ = _queue_env()

        def main(proc):
            if proc.rank == 0:
                yield from queues[0].co_add_remote(proc, _mk(0))

        with pytest.raises(TaskCollectionError, match="use push_local"):
            _run(eng, main)


class TestCostModel:
    def test_local_ops_cheaper_than_remote(self):
        eng, queues, _ = _queue_env()
        costs = {}

        def main(proc):
            q = queues[0]
            if proc.rank == 0:
                t0 = proc.now
                yield from q.co_push_local(proc, _mk(0))
                costs["local_push"] = proc.now - t0
                yield from proc.co_sleep(500e-6)
            else:
                yield from proc.co_sleep(100e-6)
                t0 = proc.now
                yield from q.co_add_remote(proc, _mk(1))
                costs["remote_add"] = proc.now - t0

        _run(eng, main)
        assert costs["local_push"] * 10 < costs["remote_add"]

    def test_no_split_owner_blocks_behind_thief(self):
        """In locked (no-split) mode, the owner's local pop must wait for an
        in-progress steal — the contention §5 describes."""

        def elapsed_pop(cfg):
            eng, queues, _ = _queue_env(cfg=cfg)
            out = {}

            def main(proc):
                q = queues[0]
                if proc.rank == 0:
                    for i in range(4):
                        yield from q.co_push_local(proc, _mk(i))
                    yield from proc.co_sleep(100e-6 - proc.now)  # pop exactly at t=100us
                    t0 = proc.now
                    yield from q.co_pop_local(proc)
                    out["pop"] = proc.now - t0
                else:
                    # model a thief holding the queue mutex across t=100us
                    yield from proc.co_sleep(80e-6)
                    yield from q.mutex.co_acquire(proc)
                    yield from proc.co_sleep(30e-6)
                    yield from q.mutex.co_release(proc)

            _run(eng, main)
            return out["pop"]

        locked = elapsed_pop(SciotoConfig(split_queues=False))
        split = elapsed_pop(SciotoConfig(split_queues=True))
        assert locked > 10e-6, locked
        assert split < 1e-6, split

"""Tests for the wait-free steal protocol (§8 future-work extension)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.uts import UTSParams, count_tree, run_uts_scioto
from repro.core import SciotoConfig, Task, TaskCollection
from repro.core.queue import SplitQueue
from repro.core.task import Task as TaskT
from repro.sim.engine import Engine
from repro.sim.counters import Counters

WF = SciotoConfig(wait_free_steals=True)
SMALL = UTSParams(b0=4.0, gen_mx=8, root_seed=6)


class TestWaitFreeQueue:
    def test_steal_transfers_tasks(self):
        eng = Engine(2, max_events=500_000)
        q = SplitQueue(eng, 0, 1000, 32, WF, Counters())
        out = {}

        def main(proc):
            if proc.rank == 0:
                for i in range(8):
                    yield from q.co_push_local(proc, TaskT(callback=0, body=i))
                yield from proc.co_sleep(1.0 - proc.now)
                out["left"] = [t.body for t in q.drain()]
            else:
                yield from proc.co_sleep(100e-6)
                out["stolen"] = [t.body for t in (yield from q.co_steal_from(proc, 3))]

        eng.spawn_all(main)
        eng.run()
        assert len(out["stolen"]) >= 1
        assert sorted(out["stolen"] + out["left"]) == list(range(8))

    def test_owner_never_blocks_behind_thief(self):
        """Unlike the locked queue, the owner's pop proceeds while a thief
        holds no lock — even mid-steal the mutex stays free."""
        eng = Engine(2, max_events=500_000)
        q = SplitQueue(eng, 0, 1000, 32, WF, Counters())
        out = {}

        def main(proc):
            if proc.rank == 0:
                for i in range(20):
                    yield from q.co_push_local(proc, TaskT(callback=0, body=i))
                yield from proc.co_sleep(100e-6 - proc.now)
                t0 = proc.now
                yield from q.co_pop_local(proc)
                out["pop_cost"] = proc.now - t0
            else:
                yield from proc.co_sleep(97e-6)  # steal in flight across t=100us
                yield from q.co_steal_from(proc, 10)

        eng.spawn_all(main)
        eng.run()
        # the owner may serialize behind the thief's metadata *atomic*
        # (a few us), but never behind a whole locked steal (~20us+)
        assert out["pop_cost"] < 6e-6
        assert not q.mutex.locked()
        assert q.mutex.acquires == 0, "wait-free mode must never take the mutex"

    def test_empty_steal_returns_nothing(self):
        eng = Engine(2, max_events=500_000)
        q = SplitQueue(eng, 0, 1000, 32, WF, Counters())

        def main(proc):
            if proc.rank == 1:
                return (yield from q.co_steal_from(proc, 5))
            return None

        eng.spawn_all(main)
        res = eng.run()
        assert res.returns[1] == []


class TestWaitFreeEndToEnd:
    def test_uts_exact(self):
        ref = count_tree(SMALL)
        r = run_uts_scioto(4, SMALL, seed=3, config=WF, max_events=3_000_000)
        assert r.stats.nodes == ref.nodes
        assert r.total_steals > 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2000), nprocs=st.integers(2, 6), chunk=st.integers(1, 6))
    def test_exactly_once_random(self, seed, nprocs, chunk):
        cfg = SciotoConfig(wait_free_steals=True, chunk_size=chunk)
        ran = []

        def main(proc):
            tc = yield from TaskCollection.co_create(proc, config=cfg)

            def node(tc_, t):
                tc_.proc.compute(1e-6)
                ran.append(t.body)
                if t.body < 40:
                    yield from tc_.co_add(Task(callback=h, body=2 * t.body + 1))
                    yield from tc_.co_add(Task(callback=h, body=2 * t.body + 2))

            h = tc.register(node)
            if proc.rank == 0:
                yield from tc.co_add(Task(callback=h, body=0))
            yield from tc.co_process()

        eng = Engine(nprocs, seed=seed, max_events=3_000_000)
        eng.spawn_all(main)
        eng.run()
        assert sorted(ran) == sorted(set(ran))
        expected = {0}
        frontier = [0]
        while frontier:
            b = frontier.pop()
            if b < 40:
                for c in (2 * b + 1, 2 * b + 2):
                    expected.add(c)
                    frontier.append(c)
        assert set(ran) == expected

    def test_waitfree_remote_add(self):
        ran_on = []
        cfg = SciotoConfig(wait_free_steals=True, load_balancing=False)

        def main(proc):
            tc = yield from TaskCollection.co_create(proc, config=cfg)
            h = tc.register(lambda tc_, t: ran_on.append(tc_.rank))
            if proc.rank == 0:
                for dest in range(proc.nprocs):
                    yield from tc.co_add(Task(callback=h), rank=dest)
            yield from tc.co_process()

        eng = Engine(4, max_events=2_000_000)
        eng.spawn_all(main)
        eng.run()
        assert sorted(ran_on) == [0, 1, 2, 3]

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(10))
    def test_waitfree_protocol_clean_under_random_schedules(self, seed):
        """Schedule sweep: the reservation-atomic steal path must preserve
        exactly-once and queue consistency under adversarial interleavings,
        not just the deterministic default schedule."""
        from repro.check.runner import run_once
        from repro.check.scenarios import make_scenario
        from repro.check.strategies import RandomWalk

        outcome = run_once(make_scenario("waitfree"), RandomWalk(seed=seed))
        assert outcome.error is None
        assert outcome.violations == []

    def test_waitfree_steal_cheaper_than_locked(self):
        """Cost comparison on one loaded queue (the A6 ablation's core)."""

        def steal_cost(cfg):
            eng = Engine(2, max_events=500_000)
            q = SplitQueue(eng, 0, 10_000, 960, cfg, Counters())
            out = {}

            def main(proc):
                if proc.rank == 0:
                    for i in range(200):
                        yield from q.co_push_local(proc, TaskT(callback=0, body=i, body_size=960))
                    q._private, q._shared = [], q._private + q._shared
                    yield from proc.co_sleep(1.0 - proc.now)
                else:
                    yield from proc.co_sleep(0.5)
                    t0 = proc.now
                    for _ in range(10):
                        assert len((yield from q.co_steal_from(proc, 10))) == 10
                    out["cost"] = (proc.now - t0) / 10

            eng.spawn_all(main)
            eng.run()
            return out["cost"]

        locked = steal_cost(SciotoConfig())
        waitfree = steal_cost(WF)
        assert waitfree < locked

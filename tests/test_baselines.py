"""Tests for the baseline schedulers (MPI work stealing, global counter)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.global_counter import GlobalCounterScheduler
from repro.baselines.mpi_ws import MpiWorkStealing
from repro.sim.engine import Engine


def _run(nprocs, main, *args, seed=0, max_events=3_000_000):
    eng = Engine(nprocs, seed=seed, max_events=max_events)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestMpiWorkStealing:
    def _tree_run(self, nprocs, seed, fanout=3, depth=4, chunk=4, poll=4):
        """Each item spawns ``fanout`` children down to ``depth``."""
        done = []

        def main(proc):
            def process(p, item, push):
                ident, d = item
                p.compute(1e-6)
                done.append(ident)
                if d < depth:
                    for c in range(fanout):
                        push((ident * fanout + c + 1, d + 1))

            ws = MpiWorkStealing(proc, process, chunk=chunk, poll_interval=poll)
            initial = [(0, 0)] if proc.rank == 0 else []
            return (yield from ws.run(initial))

        _, res = _run(nprocs, main, seed=seed)
        expected = sum(fanout**d for d in range(depth + 1))
        return done, expected, res

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
    def test_all_items_processed_exactly_once(self, nprocs):
        done, expected, _ = self._tree_run(nprocs, seed=3)
        assert len(done) == expected
        assert len(set(done)) == expected

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), nprocs=st.integers(2, 6))
    def test_exactly_once_random_seeds(self, seed, nprocs):
        done, expected, _ = self._tree_run(nprocs, seed=seed)
        assert sorted(done) == sorted(set(done))
        assert len(done) == expected

    def test_work_spreads_across_ranks(self):
        def main(proc):
            def process(p, item, push):
                p.compute(20e-6)
                if item < 200:
                    push(item * 2 + 1)
                    push(item * 2 + 2)

            ws = MpiWorkStealing(proc, process, chunk=2)
            yield from ws.run([0] if proc.rank == 0 else [])
            return ws.processed

        _, res = _run(4, main, seed=1)
        assert sum(res.returns) > 0
        assert sum(1 for c in res.returns if c > 0) >= 3

    def test_steal_counters(self):
        def main(proc):
            def process(p, item, push):
                p.compute(50e-6)
                if item < 60:
                    push(item * 2 + 1)
                    push(item * 2 + 2)

            ws = MpiWorkStealing(proc, process)
            yield from ws.run([0] if proc.rank == 0 else [])
            return (ws.steals, ws.steal_attempts)

        _, res = _run(3, main, seed=2)
        total_steals = sum(r[0] for r in res.returns)
        total_attempts = sum(r[1] for r in res.returns)
        assert total_attempts >= total_steals
        assert total_steals >= 1


class TestGlobalCounterScheduler:
    def test_each_task_claimed_exactly_once(self):
        claimed = []

        def main(proc):
            sched = GlobalCounterScheduler(
                proc, lambda p, t: claimed.append((t, p.rank))
            )
            return sched.run(list(range(30)))

        _, res = _run(4, main)
        assert sorted(t for t, _ in claimed) == list(range(30))
        assert sum(s.tasks_claimed for s in res.returns) == 30

    def test_faster_ranks_claim_more(self):
        from repro.sim.machines import heterogeneous_cluster

        def main(proc):
            def work(p, t):
                p.compute(100e-6)

            sched = GlobalCounterScheduler(proc, work)
            return sched.run(list(range(200))).tasks_claimed

        eng = Engine(4, machine=heterogeneous_cluster(4), max_events=3_000_000)
        eng.spawn_all(main)
        res = eng.run()
        fast = res.returns[0] + res.returns[2]
        slow = res.returns[1] + res.returns[3]
        assert fast > slow

    def test_stats_fields(self):
        def main(proc):
            sched = GlobalCounterScheduler(proc, lambda p, t: p.compute(1e-6))
            return sched.run(list(range(10)))

        _, res = _run(2, main)
        for s in res.returns:
            assert s.time_total > 0
            assert s.time_working <= s.time_total
            assert s.time_overhead >= 0

    def test_empty_task_list(self):
        def main(proc):
            sched = GlobalCounterScheduler(proc, lambda p, t: None)
            return sched.run([])

        _, res = _run(3, main)
        assert all(s.tasks_claimed == 0 for s in res.returns)

    def test_counter_claims_serialize_total_time(self):
        """All p ranks claiming concurrently must take longer per claim
        than a single rank (host-side serialization)."""

        def main(proc):
            sched = GlobalCounterScheduler(proc, lambda p, t: None)
            stats = sched.run(list(range(100)))
            return stats.time_total

        _, res1 = _run(2, main)
        _, res8 = _run(8, main)
        # same 100 claims, but 8 ranks contend at the host
        assert max(res8.returns) > 0.5 * max(res1.returns)

"""Tests for virtual-time mutexes and barriers."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import SimBarrier, SimMutex


def _run(nprocs, main, *args, machine=None, seed=0):
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=500_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestSimMutex:
    def test_mutual_exclusion_in_virtual_time(self):
        """Critical-section intervals must not overlap in virtual time."""
        intervals = []

        def main(proc, box):
            mtx = box["m"]
            for _ in range(3):
                yield from mtx.co_acquire(proc)
                start = proc.now
                proc.advance(5e-6)
                yield from proc.co_sync()
                intervals.append((start, proc.now, proc.rank))
                yield from mtx.co_release(proc)

        eng = Engine(4, max_events=100_000)
        box = {"m": SimMutex(eng, 0, "t")}
        eng.spawn_all(main, box)
        eng.run()
        intervals.sort()
        for (s1, e1, _), (s2, e2, _) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-15, f"overlap: ({s1},{e1}) vs ({s2},{e2})"

    def test_fifo_granting(self):
        grant_order = []

        def main(proc, box):
            mtx = box["m"]
            proc.advance(proc.rank * 1e-7)  # stagger arrival by rank
            yield from mtx.co_acquire(proc)
            grant_order.append(proc.rank)
            proc.advance(10e-6)  # hold long enough that all others queue
            yield from mtx.co_release(proc)

        eng = Engine(5, max_events=100_000)
        box = {"m": SimMutex(eng, 0, "t")}
        eng.spawn_all(main, box)
        eng.run()
        assert grant_order == [0, 1, 2, 3, 4]

    def test_release_without_hold_rejected(self):
        def main(proc, box):
            yield from box["m"].co_release(proc)

        eng = Engine(1)
        box = {"m": SimMutex(eng, 0, "t")}
        eng.spawn_all(main, box)
        with pytest.raises(RuntimeError, match="does not hold"):
            eng.run()

    def test_local_acquire_cheaper_than_remote(self):
        costs = {}

        def main(proc, box):
            mtx = box["m"]
            if proc.rank == 1:
                proc.advance(50e-6)  # let rank 0 finish first; no contention
            t0 = proc.now
            yield from mtx.co_acquire(proc)
            yield from mtx.co_release(proc)
            costs[proc.rank] = proc.now - t0

        eng = Engine(2, max_events=100_000)
        box = {"m": SimMutex(eng, 0, "t")}
        eng.spawn_all(main, box)
        eng.run()
        assert costs[0] < costs[1]

    def test_contention_counter(self):
        def main(proc, box):
            mtx = box["m"]
            yield from mtx.co_acquire(proc)
            proc.advance(10e-6)
            yield from mtx.co_release(proc)

        eng = Engine(3, max_events=100_000)
        box = {"m": SimMutex(eng, 0, "t")}
        eng.spawn_all(main, box)
        eng.run()
        assert box["m"].acquires == 3
        assert box["m"].contended_acquires == 2


class TestSimBarrier:
    def test_all_leave_after_last_arrival(self):
        leave_times = {}

        def main(proc, box):
            proc.advance(proc.rank * 10e-6)
            yield from box["b"].co_wait(proc)
            leave_times[proc.rank] = proc.now

        eng = Engine(4, max_events=100_000)
        box = {"b": SimBarrier(eng, 4, lambda n: 2e-6)}
        eng.spawn_all(main, box)
        eng.run()
        expected = 30e-6 + 2e-6  # last arrival + modelled cost
        for t in leave_times.values():
            assert t == pytest.approx(expected)

    def test_reusable_across_generations(self):
        def main(proc, box):
            for i in range(3):
                proc.advance((proc.rank + i) * 1e-6)
                yield from box["b"].co_wait(proc)
            return proc.now

        eng = Engine(3, max_events=100_000)
        box = {"b": SimBarrier(eng, 3, lambda n: 1e-6)}
        eng.spawn_all(main, box)
        result = eng.run()
        assert len(set(result.returns)) == 1
        assert box["b"].waits == 9

    def test_single_proc_barrier_is_trivial(self):
        def main(proc, box):
            yield from box["b"].co_wait(proc)
            return proc.now

        eng = Engine(1)
        box = {"b": SimBarrier(eng, 1, lambda n: 3e-6)}
        eng.spawn_all(main, box)
        assert eng.run().returns[0] == pytest.approx(3e-6)

"""Tests for wave-based termination detection (§5.2-5.3)."""

from __future__ import annotations

import math

import pytest

from repro.armci.runtime import Armci
from repro.core.termination import (
    TerminationDetector,
    is_descendant,
    tree_children,
    tree_parent,
)
from repro.sim.engine import Engine
from repro.sim.counters import Counters


class TestTree:
    def test_parent_child_inverse(self):
        for n in (1, 2, 5, 16, 33):
            for r in range(n):
                for c in tree_children(r, n):
                    assert tree_parent(c) == r

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            tree_parent(0)

    def test_children_bounds(self):
        assert tree_children(0, 1) == []
        assert tree_children(0, 2) == [1]
        assert tree_children(0, 3) == [1, 2]
        assert tree_children(3, 8) == [7]

    def test_is_descendant(self):
        # tree: 0 -> (1, 2); 1 -> (3, 4); 2 -> (5, 6)
        assert is_descendant(3, 1)
        assert is_descendant(3, 0)
        assert is_descendant(6, 2)
        assert not is_descendant(3, 2)
        assert not is_descendant(1, 3)  # ancestor, not descendant
        assert not is_descendant(5, 5)  # proper descendant only

    def test_votes_before_means_descendant_votes_first(self):
        """In the up-wave, every node votes after all its descendants."""
        for r in range(1, 31):
            p = tree_parent(r)
            assert is_descendant(r, p)


def _make_detectors(eng, optimize=True, tag="td:test"):
    counters = Counters()
    dets: list[TerminationDetector] = []
    for r in range(eng.nprocs):
        dets.append(
            TerminationDetector(eng, r, tag, dets, optimize, counters)
        )
    return dets, counters


class TestDetection:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8, 16, 33])
    def test_all_idle_terminates(self, nprocs):
        eng = Engine(nprocs, max_events=500_000)
        dets, _ = _make_detectors(eng)

        def main(proc):
            td = dets[proc.rank]
            while not (yield from td.co_progress(proc, idle=True)):
                yield from proc.co_sleep(1e-6)
            return proc.now

        eng.spawn_all(main)
        res = eng.run()
        assert all(t < 1.0 for t in res.finish_times)

    def test_busy_process_delays_termination(self):
        eng = Engine(4, max_events=500_000)
        dets, _ = _make_detectors(eng)
        busy_until = 200e-6

        def main(proc):
            td = dets[proc.rank]
            while proc.rank == 3 and proc.now < busy_until:
                # active: forwards tokens but never votes
                yield from td.co_progress(proc, idle=False)
                yield from proc.co_sleep(5e-6)
            while not (yield from td.co_progress(proc, idle=True)):
                yield from proc.co_sleep(1e-6)
            return proc.now

        eng.spawn_all(main)
        res = eng.run()
        assert min(res.finish_times) >= busy_until

    def test_dirty_flag_forces_extra_wave(self):
        """A dirty rank makes the first wave come back black (re-vote)."""
        eng = Engine(4, max_events=500_000)
        dets, counters = _make_detectors(eng)
        dets[2].dirty = True

        def main(proc):
            td = dets[proc.rank]
            while not (yield from td.co_progress(proc, idle=True)):
                yield from proc.co_sleep(1e-6)

        eng.spawn_all(main)
        eng.run()
        assert counters.get(0, "waves") >= 2

    def test_clean_run_is_single_wave(self):
        eng = Engine(8, max_events=500_000)
        dets, counters = _make_detectors(eng)

        def main(proc):
            td = dets[proc.rank]
            while not (yield from td.co_progress(proc, idle=True)):
                yield from proc.co_sleep(1e-6)

        eng.spawn_all(main)
        eng.run()
        assert counters.get(0, "waves") == 1

    def test_message_count_is_order_p_per_wave(self):
        """§5.2: detection needs O(p) messages total, ~log(p) critical path."""
        for nprocs in (8, 32):
            eng = Engine(nprocs, max_events=500_000)
            dets, counters = _make_detectors(eng)

            def main(proc):
                td = dets[proc.rank]
                while not (yield from td.co_progress(proc, idle=True)):
                    yield from proc.co_sleep(1e-6)

            eng.spawn_all(main)
            eng.run()
            msgs = counters.total("td_msgs")
            # one wave: down (p-1) + up (p-1) + done (p-1)
            assert msgs == 3 * (nprocs - 1)


class TestDirtyMarkOptimization:
    def _steal_scenario(self, optimize: bool, thief: int, victim: int, voted: bool):
        eng = Engine(8, max_events=500_000)
        dets, counters = _make_detectors(eng, optimize=optimize)
        dets[thief].voted = voted

        def main(proc):
            if proc.rank == thief:
                # mirror the scheduler: the §5.3 mark applies inside the
                # steal's transfer, then note_steal records bookkeeping
                mark = dets[thief].steal_mark(proc, victim)
                if mark is not None:
                    mark()
                dets[thief].note_steal(proc, victim)
            yield from proc.co_sync()

        eng.spawn_all(main)
        eng.run()
        return dets, counters

    def test_unoptimized_always_marks(self):
        dets, counters = self._steal_scenario(False, thief=1, victim=3, voted=False)
        assert counters.total("dirty_msgs") == 1
        assert dets[3].dirty

    def test_optimized_skips_when_thief_has_not_voted(self):
        dets, counters = self._steal_scenario(True, thief=1, victim=2, voted=False)
        assert counters.total("dirty_msgs") == 0
        assert counters.total("dirty_msgs_skipped") == 1
        assert dets[1].dirty, "thief must account for the steal itself"
        assert not dets[2].dirty

    def test_optimized_skips_when_victim_is_descendant(self):
        # 3 is a descendant of 1: pv votes-before pt
        dets, counters = self._steal_scenario(True, thief=1, victim=3, voted=True)
        assert counters.total("dirty_msgs") == 0
        assert counters.total("dirty_msgs_skipped") == 1

    def test_optimized_marks_when_needed(self):
        # thief 1 has voted and victim 2 is not its descendant
        dets, counters = self._steal_scenario(True, thief=1, victim=2, voted=True)
        assert counters.total("dirty_msgs") == 1
        assert dets[2].dirty

    def test_remote_add_marks_target_without_message(self):
        eng = Engine(4, max_events=500_000)
        dets, counters = _make_detectors(eng)

        def main(proc):
            if proc.rank == 0:
                dets[0].note_remote_add(proc, 2)
            yield from proc.co_sync()

        eng.spawn_all(main)
        eng.run()
        assert dets[2].dirty
        assert dets[0].dirty
        assert counters.total("dirty_msgs") == 0

    def test_detection_time_about_2x_barrier(self):
        """§5.2 / Figure 4: termination is detected in roughly twice the
        time of a barrier (we allow 1x-8x to assert the order of magnitude)."""
        from repro.armci.collectives import armci_barrier_cost

        nprocs = 64
        eng = Engine(nprocs, max_events=2_000_000)
        dets, _ = _make_detectors(eng)

        def main(proc):
            td = dets[proc.rank]
            while not (yield from td.co_progress(proc, idle=True)):
                yield from proc.co_sleep(0.5e-6)
            return proc.now

        eng.spawn_all(main)
        res = eng.run()
        detect_time = max(res.finish_times)
        barrier = armci_barrier_cost(eng.machine, nprocs)
        assert barrier < detect_time < 8 * barrier


class TestScheduleSweep:
    """Seed sweeps via the model checker's RandomWalk strategy: the full
    protocol stack (split queues + stealing + wave termination) must stay
    clean under many adversarially-randomized schedules, not just the
    deterministic default one."""

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12))
    def test_termination_protocol_clean_under_random_schedules(self, seed):
        from repro.check.runner import run_once
        from repro.check.scenarios import make_scenario
        from repro.check.strategies import RandomWalk

        outcome = run_once(make_scenario("termination"), RandomWalk(seed=seed))
        assert outcome.error is None
        assert outcome.violations == []

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12))
    def test_steal_only_workload_clean_under_random_schedules(self, seed):
        from repro.check.runner import run_once
        from repro.check.scenarios import make_scenario
        from repro.check.strategies import RandomWalk

        outcome = run_once(make_scenario("steals"), RandomWalk(seed=seed))
        assert outcome.error is None
        assert outcome.violations == []


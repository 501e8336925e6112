"""Tests for accumulate semantics, fences, and counter bookkeeping."""

from __future__ import annotations

import pytest

from repro.armci.runtime import Armci
from repro.sim.engine import Engine
from repro.sim.machines import heterogeneous_cluster, uniform_cluster


def _run(nprocs, main, *args, seed=0, machine=None):
    eng = Engine(nprocs, seed=seed, machine=machine, max_events=500_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestAccumulate:
    def test_remote_acc_applies_and_serializes(self):
        cell = {"v": 0.0}

        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank != 0:
                yield from armci.co_acc(proc, 0, 8192, lambda: cell.__setitem__("v", cell["v"] + 1))
                return proc.now
            yield from proc.co_sleep(1e-3)
            return None

        eng, res = _run(4, main)
        assert cell["v"] == 3.0
        # three 8kB accumulates arriving together must serialize at the
        # target's combine unit: completion times strictly increase
        finishes = sorted(t for t in res.returns if t is not None)
        assert finishes[0] < finishes[1] < finishes[2]
        m = eng.machine
        combine = 8192 / m.local_mem_bandwidth + m.rmw_overhead
        assert finishes[2] - finishes[0] >= 2 * combine * 0.99

    def test_local_acc_cheap_and_immediate(self):
        cell = {"v": 0.0}

        def main(proc):
            armci = Armci.attach(proc.engine)
            t0 = proc.now
            yield from armci.co_acc(proc, proc.rank, 1024, lambda: cell.__setitem__("v", 7.0))
            return proc.now - t0

        eng, res = _run(1, main)
        assert cell["v"] == 7.0
        assert res.returns[0] == pytest.approx(2 * eng.machine.local_copy_time(1024))


class TestFence:
    def test_fence_charges_flush(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            t0 = proc.now
            yield from armci.co_fence(proc)
            return proc.now - t0

        eng, res = _run(2, main)
        assert res.returns[0] == pytest.approx(eng.machine.latency)


class TestCounters:
    def test_snapshot_and_keys(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                yield from armci.co_put(proc, 1, 100, None)
                yield from armci.co_get(proc, 1, 50, None)
                yield from armci.co_rmw(proc, 1, lambda: 0)

        eng, _ = _run(2, main)
        snap = Armci.attach(eng).counters.snapshot()
        assert snap["put_remote"] == 1
        assert snap["bytes_get"] == 50
        assert snap["rmw"] == 1
        assert "put_remote" in Armci.attach(eng).counters.keys()


class TestEngineMisc:
    def test_machine_validation_at_construction(self):
        with pytest.raises(ValueError, match="cpu factors"):
            Engine(8, machine=heterogeneous_cluster(4))

    def test_current_proc_during_run(self):
        seen = []

        def main(proc):
            yield from proc.co_sync()
            seen.append(proc.engine.current is proc)

        _run(3, main)
        assert seen == [True, True, True]

    def test_uniform_machine_any_size(self):
        eng = Engine(100, machine=uniform_cluster(1))
        assert eng.machine.cpu_factor(99) == 1.0

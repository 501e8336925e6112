"""Tests for GlobalArray get/put/acc and GlobalCounter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ga import GlobalArray, GlobalCounter
from repro.sim.engine import Engine
from repro.util.errors import CommError


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=1_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestGlobalArray:
    def test_put_then_get_roundtrip(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "a", (8, 8))
            if proc.rank == 0:
                data = np.arange(16, dtype=float).reshape(4, 4)
                yield from ga.co_put(proc, (2, 3), (6, 7), data)
            yield from ga.co_sync(proc)
            got = yield from ga.co_get(proc, (2, 3), (6, 7))
            return got.tolist()

        _, res = _run(4, main)
        expect = np.arange(16, dtype=float).reshape(4, 4).tolist()
        for r in res.returns:
            assert r == expect

    def test_get_spanning_multiple_owners(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "a", (10, 10))
            ga.access(proc)[...] = proc.rank
            yield from ga.co_sync(proc)
            return (yield from ga.co_get(proc, (0, 0), (10, 10)))

        eng, res = _run(4, main)
        full = res.returns[0]
        # each element equals the rank that owns it
        ga_obj = None
        for rank in range(4):
            dist_vals = np.unique(full)
            assert set(dist_vals) == {0.0, 1.0, 2.0, 3.0}
        assert full.shape == (10, 10)

    def test_acc_accumulates_atomically(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "f", (6, 6))
            yield from ga.co_sync(proc)
            ones = np.ones((6, 6))
            for _ in range(3):
                yield from ga.co_acc(proc, (0, 0), (6, 6), ones, alpha=2.0)
            yield from ga.co_sync(proc)
            return (yield from ga.co_read_full(proc))

        _, res = _run(4, main)
        # 4 ranks x 3 accs x alpha 2 = 24 added to every element
        assert np.allclose(res.returns[0], 24.0)

    def test_unsafe_snapshot_matches_read_full(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "s", (7, 5))
            ga.access(proc)[...] = proc.rank + 1
            yield from ga.co_sync(proc)
            proc.engine.state["ga_test_obj"] = ga
            return (yield from ga.co_read_full(proc))

        eng, res = _run(4, main)
        snap = eng.state["ga_test_obj"].unsafe_snapshot()
        assert np.array_equal(snap, res.returns[0])

    def test_create_mismatch_rejected(self):
        def main(proc):
            shape = (4, 4) if proc.rank == 0 else (5, 5)
            yield from GlobalArray.co_create(proc, "bad", shape)

        with pytest.raises(CommError, match="mismatch"):
            _run(2, main)

    def test_remote_get_charges_more_than_local(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "c", (8, 8))
            yield from ga.co_sync(proc)
            lo, hi = ga.distribution(proc.rank)
            t0 = proc.now
            yield from ga.co_get(proc, lo, hi)  # own patch: local
            local_cost = proc.now - t0
            other = (proc.rank + 1) % proc.nprocs
            lo2, hi2 = ga.distribution(other)
            t1 = proc.now
            yield from ga.co_get(proc, lo2, hi2)
            remote_cost = proc.now - t1
            return (local_cost, remote_cost)

        _, res = _run(4, main)
        for local_cost, remote_cost in res.returns:
            assert local_cost < remote_cost

    def test_1d_and_3d_arrays(self):
        def main(proc):
            v = yield from GlobalArray.co_create(proc, "v", (17,))
            t = yield from GlobalArray.co_create(proc, "t", (4, 4, 4))
            if proc.rank == 0:
                yield from v.co_put(proc, (3,), (9,), np.arange(6, dtype=float))
                yield from t.co_put(proc, (1, 1, 1), (3, 3, 3), np.ones((2, 2, 2)))
            yield from v.co_sync(proc)
            return ((yield from v.co_get(proc, (3,), (9,))), (yield from t.co_get(proc, (0, 0, 0), (4, 4, 4))).sum())

        _, res = _run(3, main)
        vec, tsum = res.returns[1]
        assert np.array_equal(vec, np.arange(6, dtype=float))
        assert tsum == 8.0


class TestGlobalCounter:
    def test_read_inc_unique_and_total(self):
        def main(proc):
            c = yield from GlobalCounter.co_create(proc)
            vals = []
            for _ in range(5):
                vals.append((yield from c.co_read_inc(proc)))
            return vals

        _, res = _run(4, main)
        vals = [v for r in res.returns for v in r]
        assert sorted(vals) == list(range(20))

    def test_reset(self):
        def main(proc):
            c = yield from GlobalCounter.co_create(proc)
            yield from c.co_read_inc(proc)
            yield from c.co_reset(proc)
            return (yield from c.co_read_inc(proc))

        _, res = _run(2, main)
        assert sorted(res.returns) == [0, 1]

    def test_counter_contention_serializes(self):
        """The hot shared counter is a contention point: total time for n
        claims grows with the number of claimants (the original SCF/TCE
        bottleneck the paper's Figures 5-6 expose)."""

        def main(proc):
            c = yield from GlobalCounter.co_create(proc)
            for _ in range(20):
                yield from c.co_read_inc(proc)
            return proc.now

        _, res2 = _run(2, main)
        _, res8 = _run(8, main)
        assert max(res8.returns) > max(res2.returns)

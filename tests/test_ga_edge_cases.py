"""Edge cases for Global Arrays: tiny arrays, many ranks, empty patches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ga import BlockDistribution, GlobalArray
from repro.sim.engine import Engine


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=1_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestEmptyPatches:
    def test_more_ranks_than_elements(self):
        """A 2x2 array over 16 ranks leaves most patches empty but must
        still cover every element exactly once."""
        dist = BlockDistribution((2, 2), 16)
        covered = np.zeros((2, 2), dtype=int)
        empties = 0
        for r in range(16):
            lo, hi = dist.patch(r)
            if any(h <= l for l, h in zip(lo, hi)):
                empties += 1
                continue
            covered[lo[0] : hi[0], lo[1] : hi[1]] += 1
        assert (covered == 1).all()
        assert empties == 12

    def test_ga_ops_with_empty_patches(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "tiny", (2, 2))
            if proc.rank == 0:
                yield from ga.co_put(proc, (0, 0), (2, 2), np.arange(4.0).reshape(2, 2))
            yield from ga.co_sync(proc)
            return (yield from ga.co_get(proc, (0, 0), (2, 2))).sum()

        _, res = _run(9, main)
        assert res.returns == [6.0] * 9

    def test_snapshot_with_empty_patches(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "tiny", (3,))
            if proc.rank == 0:
                yield from ga.co_put(proc, (0,), (3,), np.array([1.0, 2.0, 3.0]))
            yield from ga.co_sync(proc)
            proc.engine.state["obj"] = ga

        eng, _ = _run(8, main)
        assert np.array_equal(eng.state["obj"].unsafe_snapshot(), [1.0, 2.0, 3.0])


class TestSingleRank:
    def test_all_ops_local(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "solo", (5, 5))
            yield from ga.co_put(proc, (1, 1), (4, 4), np.ones((3, 3)))
            yield from ga.co_acc(proc, (0, 0), (5, 5), np.ones((5, 5)), alpha=0.5)
            out = yield from ga.co_read_full(proc)
            return out.sum()

        _, res = _run(1, main)
        assert res.returns[0] == pytest.approx(9 + 0.5 * 25)


class TestSinglePointOps:
    def test_one_element_boxes(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "pt", (6, 6))
            yield from ga.co_sync(proc)
            if proc.rank == 0:
                for i in range(6):
                    yield from ga.co_put(proc, (i, i), (i + 1, i + 1), np.array([[float(i)]]))
            yield from ga.co_sync(proc)
            diag = []
            for i in range(6):
                diag.append(float((yield from ga.co_get(proc, (i, i), (i + 1, i + 1)))[0, 0]))
            return diag

        _, res = _run(4, main)
        assert res.returns[1] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_locate_every_corner(self):
        dist = BlockDistribution((7, 5), 6)
        for idx in [(0, 0), (6, 0), (0, 4), (6, 4), (3, 2)]:
            r = dist.locate(idx)
            lo, hi = dist.patch(r)
            assert all(l <= x < h for x, l, h in zip(idx, lo, hi))


class TestDtype:
    def test_integer_arrays(self):
        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "ints", (4, 4), dtype=np.int64)
            if proc.rank == 0:
                yield from ga.co_put(proc, (0, 0), (4, 4), np.arange(16).reshape(4, 4))
            yield from ga.co_sync(proc)
            out = yield from ga.co_read_full(proc)
            assert out.dtype == np.int64
            return int(out.sum())

        _, res = _run(2, main)
        assert res.returns == [120, 120]

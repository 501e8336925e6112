"""Tests for non-blocking one-sided ops and strided transfer costs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.armci.runtime import Armci
from repro.ga import GlobalArray
from repro.sim.engine import Engine


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=1_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestNonBlocking:
    def test_nbget_value_after_wait(self):
        store = {"x": 123}

        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                h = yield from armci.co_nbget(proc, 1, 64, lambda: store["x"])
                return armci.wait(proc, h)
            return None

        _, res = _run(2, main)
        assert res.returns[0] == 123

    def test_overlap_beats_sequential(self):
        """N concurrent gets from distinct owners cost ~max, not ~sum."""
        nbytes = 64 * 1024

        def sequential(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank != 0:
                return None
            t0 = proc.now
            for target in (1, 2, 3):
                yield from armci.co_get(proc, target, nbytes, lambda: None)
            return proc.now - t0

        def overlapped(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank != 0:
                return None
            t0 = proc.now
            handles = []
            for t in (1, 2, 3):
                handles.append((yield from armci.co_nbget(proc, t, nbytes, lambda: None)))
            armci.wait_all(proc, handles)
            return proc.now - t0

        _, seq = _run(4, sequential)
        _, ovl = _run(4, overlapped)
        assert ovl.returns[0] < 0.6 * seq.returns[0]

    def test_wait_is_idempotent_in_time(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank != 0:
                return None
            h = yield from armci.co_nbput(proc, 1, 1024, None)
            armci.wait(proc, h)
            t1 = proc.now
            armci.wait(proc, h)  # already complete: no extra time
            return proc.now - t1

        _, res = _run(2, main)
        assert res.returns[0] == 0.0

    def test_nbput_applies_mutation(self):
        box = {}

        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                h = yield from armci.co_nbput(proc, 1, 64, lambda: box.__setitem__("v", 9))
                armci.wait(proc, h)
            yield from armci.co_barrier(proc)
            return box.get("v")

        _, res = _run(2, main)
        assert res.returns == [9, 9]

    def test_local_nb_ops_complete_immediately(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            h = yield from armci.co_nbget(proc, proc.rank, 4096, lambda: 5)
            t_before = proc.now
            v = armci.wait(proc, h)
            return (v, proc.now - t_before)

        _, res = _run(1, main)
        assert res.returns[0] == (5, 0.0)


class TestStridedCosts:
    def test_more_chunks_cost_more(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank != 0:
                return None
            t0 = proc.now
            armci.wait(proc, (yield from armci.co_nbget(proc, 1, 8192, None, nchunks=1)))
            contiguous = proc.now - t0
            t0 = proc.now
            armci.wait(proc, (yield from armci.co_nbget(proc, 1, 8192, None, nchunks=64)))
            strided = proc.now - t0
            return (contiguous, strided)

        _, res = _run(2, main)
        contiguous, strided = res.returns[0]
        m = Engine(2).machine
        assert strided == pytest.approx(contiguous + 63 * m.stride_chunk_overhead)

    def test_ga_row_get_cheaper_than_column_get(self):
        """A row of a 2D patch is contiguous; a column is fully strided."""

        def main(proc):
            ga = yield from GlobalArray.co_create(proc, "m", (64, 64))
            yield from ga.co_sync(proc)
            other = (proc.rank + 1) % proc.nprocs
            lo, hi = ga.distribution(other)
            if proc.rank != 0:
                return None
            t0 = proc.now
            yield from ga.co_get(proc, (lo[0], lo[1]), (lo[0] + 1, hi[1]))  # one row
            row = proc.now - t0
            t0 = proc.now
            yield from ga.co_get(proc, (lo[0], lo[1]), (hi[0], lo[1] + 1))  # one column
            col = proc.now - t0
            return (row, col)

        _, res = _run(2, main)
        row, col = res.returns[0]
        assert col > row

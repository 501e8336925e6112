"""Tests for the task-parallel GA_Dgemm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import GlobalArray, co_ga_dgemm
from repro.sim.engine import Engine
from repro.util.errors import CommError


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=3_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


def _fill(proc, ga, full):
    lo, hi = ga.distribution(proc.rank)
    sl = tuple(slice(x, y) for x, y in zip(lo, hi))
    ga.access(proc)[...] = full[sl]
    yield from ga.co_sync(proc)


def _gemm_case(nprocs, n, alpha, beta, block=None, seed=0):
    rng = np.random.default_rng(seed)
    fa = rng.standard_normal((n, n))
    fb = rng.standard_normal((n, n))
    fc = rng.standard_normal((n, n))

    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (n, n))
        b = yield from GlobalArray.co_create(proc, "b", (n, n))
        c = yield from GlobalArray.co_create(proc, "c", (n, n))
        yield from _fill(proc, a, fa)
        yield from _fill(proc, b, fb)
        yield from _fill(proc, c, fc)
        yield from co_ga_dgemm(proc, alpha, a, b, beta, c, block=block)
        return (yield from c.co_read_full(proc))

    _, res = _run(nprocs, main, seed=seed)
    expect = alpha * (fa @ fb) + beta * fc
    return res.returns[0], expect


class TestGaDgemm:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_numpy(self, nprocs):
        got, expect = _gemm_case(nprocs, n=16, alpha=1.0, beta=0.0, block=4)
        assert np.allclose(got, expect, atol=1e-10)

    def test_alpha_beta(self):
        got, expect = _gemm_case(3, n=12, alpha=2.5, beta=-0.5, block=4)
        assert np.allclose(got, expect, atol=1e-10)

    def test_beta_one_accumulates(self):
        got, expect = _gemm_case(2, n=8, alpha=1.0, beta=1.0, block=4)
        assert np.allclose(got, expect, atol=1e-10)

    def test_default_block_selection(self):
        got, expect = _gemm_case(4, n=24, alpha=1.0, beta=0.0, block=None)
        assert np.allclose(got, expect, atol=1e-10)

    def test_bad_block_rejected(self):
        def main(proc):
            a = yield from GlobalArray.co_create(proc, "a", (8, 8))
            yield from co_ga_dgemm(proc, 1.0, a, a, 0.0, a, block=3)

        with pytest.raises(CommError, match="does not divide"):
            _run(2, main)

    def test_nonsquare_rejected(self):
        def main(proc):
            a = yield from GlobalArray.co_create(proc, "a", (8, 6))
            yield from co_ga_dgemm(proc, 1.0, a, a, 0.0, a)

        with pytest.raises(CommError, match="square"):
            _run(2, main)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 500),
        nprocs=st.integers(1, 5),
        nb=st.sampled_from([2, 3, 4]),
    )
    def test_property_random_instances(self, seed, nprocs, nb):
        got, expect = _gemm_case(nprocs, n=4 * nb, alpha=1.0, beta=0.0, block=4,
                                 seed=seed)
        assert np.allclose(got, expect, atol=1e-9)

"""Tests for the whole-array GA operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ga import (
    GlobalArray,
    co_ga_add,
    co_ga_copy,
    co_ga_dgop,
    co_ga_dot,
    co_ga_scale,
    co_ga_symmetrize,
)
from repro.sim.engine import Engine
from repro.util.errors import CommError


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=1_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


def _fill(proc, ga, full):
    lo, hi = ga.distribution(proc.rank)
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    ga.access(proc)[...] = full[sl]
    yield from ga.co_sync(proc)


def test_ga_dgop_sum_and_max():
    def main(proc):
        s = yield from co_ga_dgop(proc, float(proc.rank + 1), lambda a, b: a + b)
        m = yield from co_ga_dgop(proc, float(proc.rank), max)
        return (s, m)

    _, res = _run(4, main)
    assert res.returns == [(10.0, 3.0)] * 4


def test_ga_add():
    full_a = np.arange(36.0).reshape(6, 6)
    full_b = np.ones((6, 6))

    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (6, 6))
        b = yield from GlobalArray.co_create(proc, "b", (6, 6))
        c = yield from GlobalArray.co_create(proc, "c", (6, 6))
        yield from _fill(proc, a, full_a)
        yield from _fill(proc, b, full_b)
        yield from co_ga_add(proc, 2.0, a, -1.0, b, c)
        return (yield from c.co_read_full(proc))

    _, res = _run(4, main)
    assert np.allclose(res.returns[0], 2 * full_a - full_b)


def test_ga_scale_and_copy():
    full = np.arange(16.0).reshape(4, 4)

    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (4, 4))
        b = yield from GlobalArray.co_create(proc, "b", (4, 4))
        yield from _fill(proc, a, full)
        yield from co_ga_scale(proc, a, 3.0)
        yield from co_ga_copy(proc, a, b)
        return (yield from b.co_read_full(proc))

    _, res = _run(2, main)
    assert np.allclose(res.returns[1], 3 * full)


def test_ga_dot_matches_numpy():
    rng = np.random.default_rng(2)
    full_a = rng.standard_normal((8, 8))
    full_b = rng.standard_normal((8, 8))

    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (8, 8))
        b = yield from GlobalArray.co_create(proc, "b", (8, 8))
        yield from _fill(proc, a, full_a)
        yield from _fill(proc, b, full_b)
        return (yield from co_ga_dot(proc, a, b))

    _, res = _run(4, main)
    expect = float(np.sum(full_a * full_b))
    for v in res.returns:
        assert v == pytest.approx(expect)


def test_ga_symmetrize():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((9, 9))

    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (9, 9))
        yield from _fill(proc, a, full)
        yield from co_ga_symmetrize(proc, a)
        return (yield from a.co_read_full(proc))

    _, res = _run(4, main)
    assert np.allclose(res.returns[0], (full + full.T) / 2)
    assert np.allclose(res.returns[0], res.returns[0].T)


def test_ga_symmetrize_requires_square():
    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (4, 6))
        yield from co_ga_symmetrize(proc, a)

    with pytest.raises(CommError, match="square"):
        _run(2, main)


def test_conformance_checked():
    def main(proc):
        a = yield from GlobalArray.co_create(proc, "a", (4, 4))
        b = yield from GlobalArray.co_create(proc, "b", (5, 5))
        yield from co_ga_copy(proc, a, b)

    with pytest.raises(CommError, match="conformant"):
        _run(2, main)

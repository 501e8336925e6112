"""Transfer plans of GA patch operations, checked against a NumPy shadow.

Every ``co_get``/``co_put``/``co_acc`` runs from the memoized
:class:`~repro.ga.distribution.Plan` of its box.  These tests pin what
that must not change: the GA access stream the race detector sees
(sha256 goldens of the ``scf`` and ``tce`` race runs), the contents of
every get against a plain ndarray shadow across memo evictions, the
``IndexError`` text of bad boxes, and get buffers that are the caller's
own.  They also pin what plans add: a plan is built once per box and
array, the memo holds no arrays, and data whose shape differs from the
box is refused.
"""

from __future__ import annotations

import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.__main__ import main as analyze_main
from repro.analyze.runner import run_race_detection
from repro.ga import GlobalArray, distribution
from repro.ga.distribution import Plan
from repro.sim.engine import Engine

_LINE = re.compile(r":\d+ \(")

#: target -> (sha256 of ``python -m repro.analyze race --target T``'s
#: stdout, sha256 of every captured trace event with call sites unlined).
RACE_GOLDENS = {
    "scf": (
        "4ccedf31866ef438cdd5262cff8267c7a43d0a6135a4017914b647f0790dec5a",
        "d80584e8604514fcffe0c3284641959d8342433092073794185c13bdf6f1d616",
    ),
    "tce": (
        "7b0e904f3961390c861a920c5e4d447eac9730e13e60ec46d7f5ab499b12556d",
        "7e1816b6843e61b335fbbe3f2c7015a3cb288238615b5fa6a01e69b22eb5361a",
    ),
}


@pytest.mark.parametrize("target", sorted(RACE_GOLDENS))
def test_race_run_access_stream_golden(target, capsys):
    """Region keys, their order, times and call sites of every GA access."""
    report, trace = RACE_GOLDENS[target]
    assert analyze_main(["race", "--target", target]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == report
    h = hashlib.sha256()
    for ev in run_race_detection(target).trace:
        row = (ev.kind, ev.rank, ev.idx, ev.seq, ev.time, ev.held, sorted(ev.data.items()))
        h.update(_LINE.sub(" (", repr(row)).encode())
    assert h.hexdigest() == trace


def _run(nprocs, main, *args):
    eng = Engine(nprocs, seed=0, max_events=1_000_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


def _assert_no_arrays(dist):
    """Every memo key and plan is built from ints, tuples and slices."""

    def plain(x):
        if isinstance(x, tuple):
            return all(plain(y) for y in x)
        if isinstance(x, slice):
            return plain((x.start, x.stop, x.step))
        return x is None or type(x) is int

    for key, plan in dist._boxes.items():
        assert plain(key) and plain(tuple(plan)), (key, plan)


@st.composite
def _scripts(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(ndim))
    nprocs = draw(st.sampled_from([2, 3, 5, 6, 7]))
    # the whole array first: with every extent >= 2 it spans 2+ owners
    boxes = [((0,) * ndim, shape)]
    for _ in range(draw(st.integers(1, 10))):
        lo = tuple(draw(st.integers(0, s - 1)) for s in shape)
        hi = tuple(draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
        boxes.append((lo, hi))
    ops = [
        (
            draw(st.sampled_from(["get", "put", "acc"])),
            draw(st.integers(0, 1)),  # which of two arrays of one shape
            draw(st.integers(0, nprocs - 1)),  # issuing rank
            draw(st.booleans()),  # numpy-int coordinates
            lo,
            hi,
        )
        for lo, hi in boxes
    ]
    return shape, nprocs, ops, draw(st.integers(0, 10_000))


@settings(max_examples=60, deadline=None)
@given(_scripts())
def test_plans_match_numpy_shadow(script):
    """Gets return the shadow's contents across memo evictions (cap 2)
    on two arrays of one shape; every get buffer is private and
    writable; the memos hold no arrays."""
    shape, nprocs, ops, seed = script
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal([h - l for l, h in zip(lo, hi)]) for *_, lo, hi in ops]
    alphas = rng.uniform(-2, 2, len(ops))
    shadows = [np.zeros(shape), np.zeros(shape)]
    mismatches: list[int] = []
    owners: list[int] = []

    def main(proc):
        arrays = [
            (yield from GlobalArray.co_create(proc, "a", shape)),
            (yield from GlobalArray.co_create(proc, "b", shape)),
        ]
        for t, (op, which, rank, np_int, lo, hi) in enumerate(ops):
            if rank != proc.rank:
                continue
            # one virtual-time slot per op fixes the global order
            yield from proc.co_sleep((t + 1) * 1e-3 - proc.now)
            ga, shadow = arrays[which], shadows[which]
            box = tuple(slice(l, h) for l, h in zip(lo, hi))
            if np_int:
                lo, hi = np.array(lo), tuple(np.int64(x) for x in hi)
            if op == "put":
                yield from ga.co_put(proc, lo, hi, values[t])
                shadow[box] = values[t]
            elif op == "acc":
                yield from ga.co_acc(proc, lo, hi, values[t], alpha=alphas[t])
                shadow[box] += alphas[t] * values[t]
            else:
                got = yield from ga.co_get(proc, lo, hi)
                owners.append(len(ga.dist.plan(lo, hi).pieces))
                if not np.array_equal(got, shadow[box]):
                    mismatches.append(t)
                # the caller's own buffer: scribbling on it changes nothing
                assert got.flags.writeable and got.flags.owndata
                got[...] = np.nan
            assert len(ga.dist._boxes) <= 2
        yield from proc.co_sleep((len(ops) + 1) * 1e-3 - proc.now)
        full = (
            (yield from arrays[0].co_read_full(proc)),
            (yield from arrays[1].co_read_full(proc)),
        )
        for ga in arrays:
            _assert_no_arrays(ga.dist)
        return full

    with mock.patch.object(distribution, "BOX_MEMO_CAP", 2):
        _, res = _run(nprocs, main)
    assert not mismatches, f"gets diverged from the shadow at ops {mismatches}"
    for full in res.returns:
        assert np.array_equal(full[0], shadows[0])
        assert np.array_equal(full[1], shadows[1])
    if ops[0][0] == "get":
        assert owners[0] >= 2


def test_get_buffers_are_private_for_one_and_many_owners():
    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "p", (8, 8))
        ga.access(proc)[...] = proc.rank
        yield from ga.co_sync(proc)
        one = yield from ga.co_get(proc, (0, 0), (2, 2))
        many = yield from ga.co_get(proc, (0, 0), (8, 8))
        counts = [len(ga.dist.plan(*box).pieces) for box in [((0, 0), (2, 2)), ((0, 0), (8, 8))]]
        one[...] = -1.0
        many[...] = -1.0
        yield from ga.co_sync(proc)
        return counts, (yield from ga.co_read_full(proc))

    _, res = _run(4, main)
    for counts, full in res.returns:
        assert counts == [1, 4]
        assert full.min() == 0.0 and full.max() == 3.0


def test_a_plan_is_built_once_per_box_and_array():
    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "a", (6, 6))
        first = ga.dist.plan((1, 1), (5, 5))
        yield from ga.co_get(proc, (1, 1), (5, 5))
        yield from ga.co_put(proc, [1, 1], np.array([5, 5]), np.zeros((4, 4)))
        return first, ga.dist.plan((np.int64(1), 1), (5, 5)), len(ga.dist._boxes)

    _, res = _run(3, main)
    for first, again, memo in res.returns:
        assert isinstance(first, Plan) and again is first and memo == 1


#: (lo, hi) -> the IndexError text for an array of shape (6, 5).
BAD_BOXES = [
    (((0,), (1,)), "box rank mismatch for array of shape (6, 5)"),
    (((0, 0, 0), (1, 1, 1)), "box rank mismatch for array of shape (6, 5)"),
    (((0, 0), (7, 5)), "patch [(0, 0), (7, 5)) out of bounds for (6, 5)"),
    (((2, 0), (2, 5)), "patch [(2, 0), (2, 5)) out of bounds for (6, 5)"),
    (((-1, 0), (3, 5)), "patch [(-1, 0), (3, 5)) out of bounds for (6, 5)"),
    (((np.int64(4), 0), (np.int64(9), 2)), "patch [(4, 0), (9, 2)) out of bounds for (6, 5)"),
]


@pytest.mark.parametrize("op", ["get", "put", "acc"])
@pytest.mark.parametrize("box,text", BAD_BOXES)
def test_bad_boxes_keep_their_error_text(op, box, text):
    lo, hi = box

    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "bad", (6, 5))
        data = np.ones([max(int(h) - int(l), 0) for l, h in zip(lo, hi)])
        if op == "get":
            yield from ga.co_get(proc, lo, hi)
        elif op == "put":
            yield from ga.co_put(proc, lo, hi, data)
        else:
            yield from ga.co_acc(proc, lo, hi, data)

    with pytest.raises(IndexError) as info:
        _run(2, main)
    assert str(info.value) == text


@pytest.mark.parametrize("op", ["put", "acc"])
def test_data_of_another_shape_is_refused(op):
    """An (8, 4) array has a (4, 8) box's element count but not its shape."""

    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "m", (8, 8))
        proc.engine.state["m"] = ga
        fn = ga.co_put if op == "put" else ga.co_acc
        yield from fn(proc, (0, 0), (4, 8), np.ones((8, 4)))

    eng = Engine(2, seed=0)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match=r"\(8, 4\).*\(4, 8\)"):
        eng.run()
    assert not eng.state["m"].unsafe_snapshot().any()

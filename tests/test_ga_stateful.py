"""Stateful property test: a GlobalArray must mirror a NumPy array under
any interleaved sequence of put/get/acc operations from any ranks.

A deterministic random op script is distributed across ranks, with each
op pinned to its own virtual-time slot so the global serialization order
is known.  A plain ndarray shadow is updated by the same ops *inside the
simulation* (at apply time), so every ``get`` can be checked against the
exact intermediate state, and the final contents must match an
independent replay.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import GlobalArray
from repro.sim.engine import Engine

_SHAPE = (9, 7)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    nprocs=st.integers(1, 6),
    nops=st.integers(1, 25),
)
def test_ga_mirrors_numpy_under_random_ops(seed, nprocs, nops):
    rng = np.random.default_rng(seed)
    script = []
    for t in range(nops):
        op = str(rng.choice(["put", "acc", "get"]))
        lo = tuple(int(rng.integers(0, s)) for s in _SHAPE)
        hi = tuple(int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, _SHAPE))
        value = rng.standard_normal([h - l for l, h in zip(lo, hi)])
        alpha = float(rng.uniform(-2, 2))
        rank = int(rng.integers(0, nprocs))
        script.append((t, rank, op, lo, hi, value, alpha))

    shadow = np.zeros(_SHAPE)  # mutated inside the sim, in global op order
    get_mismatches: list[int] = []

    def main(proc):
        ga = yield from GlobalArray.co_create(proc, "m", _SHAPE)
        yield from ga.co_sync(proc)
        for t, rank, op, lo, hi, value, alpha in script:
            if rank != proc.rank:
                continue
            # dedicated time slot per op => unambiguous global order
            yield from proc.co_sleep((t + 1) * 1e-3 - proc.now)
            box = tuple(slice(l, h) for l, h in zip(lo, hi))
            if op == "put":
                yield from ga.co_put(proc, lo, hi, value)
                shadow[box] = value
            elif op == "acc":
                yield from ga.co_acc(proc, lo, hi, value, alpha=alpha)
                shadow[box] += alpha * value
            else:
                got = yield from ga.co_get(proc, lo, hi)
                if not np.allclose(got, shadow[box], atol=1e-12):
                    get_mismatches.append(t)
        yield from proc.co_sleep((nops + 2) * 1e-3 - proc.now)
        return (yield from ga.co_read_full(proc))

    eng = Engine(nprocs, seed=seed, max_events=2_000_000)
    eng.spawn_all(main)
    result = eng.run()

    assert not get_mismatches, f"gets diverged from shadow at t={get_mismatches}"
    # independent replay of the mutation history
    expect = np.zeros(_SHAPE)
    for t, rank, op, lo, hi, value, alpha in sorted(script):
        box = tuple(slice(l, h) for l, h in zip(lo, hi))
        if op == "put":
            expect[box] = value
        elif op == "acc":
            expect[box] += alpha * value
    for final in result.returns:
        assert np.allclose(final, expect, atol=1e-10)
    assert np.allclose(shadow, expect, atol=1e-10)

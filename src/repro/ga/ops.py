"""Whole-array GA operations: dgop, add, scale, copy, dot, symmetrize.

These are the collective convenience operations the GA toolkit provides
on top of one-sided patch access.  All are *collective*: every rank
calls with the same arguments; each rank works on its own patch and the
runtime synchronizes and reduces as needed, charging local memory
bandwidth and reduction costs through the machine model.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.armci.runtime import Armci
from repro.ga.array import GlobalArray
from repro.sim.engine import Proc
from repro.util.errors import CommError

__all__ = [
    "co_ga_dgop", "co_ga_add", "co_ga_scale", "co_ga_copy", "co_ga_dot",
    "co_ga_symmetrize",
]


def _check_conformant(*arrays: GlobalArray) -> None:
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise CommError(f"arrays not conformant: {sorted(shapes)}")


def _local_cost(proc: Proc, *patches: np.ndarray) -> None:
    nbytes = sum(p.nbytes for p in patches)
    proc.advance(proc.machine.local_copy_time(nbytes))


def co_ga_dgop(proc: Proc, value: float, op: Callable[[float, float], float]):
    """Global reduction of a scalar contribution (GA_Dgop)."""
    return (yield from Armci.attach(proc.engine).co_allreduce(proc, value, op))


def co_ga_add(
    proc: Proc,
    alpha: float,
    a: GlobalArray,
    beta: float,
    b: GlobalArray,
    c: GlobalArray,
):
    """``C = alpha*A + beta*B`` elementwise (GA_Add); collective."""
    _check_conformant(a, b, c)
    pa, pb, pc = a.access(proc), b.access(proc), c.access(proc)
    _local_cost(proc, pa, pb, pc)
    pc[...] = alpha * pa + beta * pb
    yield from c.co_sync(proc)


def co_ga_scale(proc: Proc, a: GlobalArray, alpha: float):
    """``A *= alpha`` (GA_Scale); collective."""
    patch = a.access(proc)
    _local_cost(proc, patch)
    patch *= alpha
    yield from a.co_sync(proc)


def co_ga_copy(proc: Proc, src: GlobalArray, dst: GlobalArray):
    """``B = A`` (GA_Copy); collective, patch-to-patch (same distribution)."""
    _check_conformant(src, dst)
    ps, pd = src.access(proc), dst.access(proc)
    _local_cost(proc, ps, pd)
    pd[...] = ps
    yield from dst.co_sync(proc)


def co_ga_dot(proc: Proc, a: GlobalArray, b: GlobalArray):
    """Global inner product ``sum(A * B)`` (GA_Ddot); collective."""
    _check_conformant(a, b)
    pa, pb = a.access(proc), b.access(proc)
    _local_cost(proc, pa, pb)
    proc.compute(2.0 * pa.size * proc.machine.seconds_per_flop)
    local = float(np.sum(pa * pb))
    return (yield from co_ga_dgop(proc, local, lambda x, y: x + y))


def co_ga_symmetrize(proc: Proc, a: GlobalArray):
    """``A = (A + A^T) / 2`` (GA_Symmetrize) for square 2-D arrays.

    Implemented the way GA does: each rank fetches the transposed patch
    corresponding to its own, then averages locally.
    """
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise CommError("ga_symmetrize requires a square 2-D array")
    lo, hi = a.distribution(proc.rank)
    yield from a.co_sync(proc)
    if all(h > l for l, h in zip(lo, hi)):
        transposed = yield from a.co_get(proc, (lo[1], lo[0]), (hi[1], hi[0]))
        patch = a.access(proc)
        _local_cost(proc, patch)
        # barrier below orders writes after every rank's fetch
        pending = (patch + transposed.T) / 2.0
    else:
        pending = None
    yield from a.co_sync(proc)
    if pending is not None:
        a.access(proc)[...] = pending
    yield from a.co_sync(proc)

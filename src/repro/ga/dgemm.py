"""Distributed matrix multiplication over Global Arrays (GA_Dgemm).

``C = alpha * A @ B + beta * C`` computed as a Scioto task-parallel
blocked multiplication: one task per output-block/k-step triple, seeded
at the owner of the C block with high affinity (so accumulates are
local), balanced by work stealing.  This turns the paper's §4 example
into a reusable library operation — the same structure NWChem-era codes
obtained from ``ga_dgemm``.  Here it is ``co_ga_dgemm``, used with
``yield from`` like every other collective.

Collective: every rank must call with the same arguments.
"""

from __future__ import annotations

import numpy as np

from repro.armci.runtime import Armci
from repro.core import AFFINITY_HIGH, SciotoConfig, Task, TaskCollection
from repro.ga.array import GlobalArray
from repro.ga.ops import co_ga_scale
from repro.sim.engine import Proc
from repro.util.errors import CommError

__all__ = ["co_ga_dgemm"]


def co_ga_dgemm(
    proc: Proc,
    alpha: float,
    a: GlobalArray,
    b: GlobalArray,
    beta: float,
    c: GlobalArray,
    block: int | None = None,
    config: SciotoConfig | None = None,
) -> None:
    """Compute ``C = alpha * A @ B + beta * C`` (square arrays).

    Use as ``yield from co_ga_dgemm(proc, ...)``.

    Args:
        proc: Calling rank's process (collective call).
        alpha, beta: GEMM scalars.
        a, b, c: Conformant square global arrays.
        block: Blocking factor; must divide the matrix dimension.
            Defaults to the largest divisor of n that is <= n/nprocs**0.5
            rounded to a practical tile, or n itself for tiny matrices.
        config: Scheduler configuration for the internal task collection.
    """
    n = a.shape[0]
    for g in (a, b, c):
        if len(g.shape) != 2 or g.shape[0] != g.shape[1] or g.shape[0] != n:
            raise CommError("ga_dgemm requires conformant square 2-D arrays")
    if block is None:
        block = _default_block(n, proc.nprocs)
    if n % block:
        raise CommError(f"block {block} does not divide matrix dimension {n}")
    nb = n // block

    if beta != 1.0:
        yield from co_ga_scale(proc, c, beta)
    else:
        yield from c.co_sync(proc)

    tc = yield from TaskCollection.co_create(
        proc, task_size=64, max_tasks=nb * nb * nb + 8,
        config=config or SciotoConfig(chunk_size=2),
    )

    def box(i, j):
        return (i * block, j * block), ((i + 1) * block, (j + 1) * block)

    def mm_task(tc_, task):
        i, j, k = task.body
        p = tc_.proc
        lo_a, hi_a = box(i, k)
        lo_b, hi_b = box(k, j)
        lo_c, hi_c = box(i, j)
        a_blk = yield from a.co_get(p, lo_a, hi_a)
        b_blk = yield from b.co_get(p, lo_b, hi_b)
        p.compute(2.0 * block**3 * p.machine.seconds_per_flop)
        yield from c.co_acc(p, lo_c, hi_c, a_blk @ b_blk, alpha=alpha)

    h = tc.register(mm_task)
    for i in range(nb):
        for j in range(nb):
            if c.locate((i * block, j * block)) != proc.rank:
                continue
            for k in range(nb):
                yield from tc.co_add(Task(callback=h, body=(i, j, k)), affinity=AFFINITY_HIGH)
    yield from tc.co_process()
    yield from c.co_sync(proc)
    yield from tc.co_destroy()


def _default_block(n: int, nprocs: int) -> int:
    """Largest divisor of ``n`` no bigger than a per-rank-friendly tile."""
    target = max(1, int(n / max(1.0, nprocs**0.5)))
    for b in range(min(target, n), 0, -1):
        if n % b == 0:
            return b
    return n  # pragma: no cover - range above always finds 1

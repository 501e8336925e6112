"""Task-parallel blocked matrix multiplication over Global Arrays (§4).

The paper's worked example (Figure 3), written in its C names
(``repro.core.capi``): all ranks collectively create a task collection,
register the multiply callback, and seed one task per block triple they
own; ``tc_process`` runs the MIMD phase.  The task body carries portable
references — GA handles are integers — plus the block indices, exactly
like the paper's ``mm_task`` struct.  ``examples/quickstart.py`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.armci.runtime import Armci
from repro.core import AFFINITY_HIGH, SciotoConfig
from repro.core.capi import (
    tc_add,
    tc_create,
    tc_destroy,
    tc_process,
    tc_register,
    tc_task_body,
    tc_task_create,
    tc_task_reuse,
)
from repro.core.stats import ProcessStats
from repro.ga import GaRuntime, GlobalArray
from repro.sim.engine import Engine, SimResult
from repro.sim.machines import MachineSpec

__all__ = ["run_matmul", "MatmulResult"]


@dataclass
class MatmulResult:
    """Outcome of a distributed blocked matrix multiplication."""

    c: np.ndarray  #: the assembled product (for verification)
    elapsed: float
    nprocs: int
    per_rank: list[ProcessStats]
    sim: SimResult


def _mm_main(proc, a_mat: np.ndarray, b_mat: np.ndarray, num_blocks: int,
             config: SciotoConfig):
    n = a_mat.shape[0]
    bs = n // num_blocks

    def box(i, j):
        return (i * bs, j * bs), ((i + 1) * bs, (j + 1) * bs)

    def mm_task_fcn(tc, task):
        """Multiply one block pair and accumulate into C (the paper's callback)."""
        a_h, b_h, c_h, i, j, k = tc_task_body(task)  # portable GA handles (§2.2)
        p = tc.proc
        arrays = GaRuntime.attach(p.engine).arrays
        a, b, c = arrays[a_h], arrays[b_h], arrays[c_h]
        a_blk = yield from a.co_get(p, *box(i, k))
        b_blk = yield from b.co_get(p, *box(k, j))
        p.compute(2.0 * bs**3 * p.machine.seconds_per_flop)
        yield from c.co_acc(p, *box(i, j), a_blk @ b_blk)

    # Initialize Global Arrays: A, B, and C
    a = yield from GlobalArray.co_create(proc, "A", (n, n))
    b = yield from GlobalArray.co_create(proc, "B", (n, n))
    c = yield from GlobalArray.co_create(proc, "C", (n, n))
    lo, hi = a.distribution(proc.rank)
    sl = tuple(slice(x, y) for x, y in zip(lo, hi))
    a.access(proc)[...] = a_mat[sl]
    b.access(proc)[...] = b_mat[sl]
    yield from a.co_sync(proc)

    tc = yield from tc_create(proc, task_sz=64, chunk_sz=config.chunk_size,
                              max_sz=num_blocks**3 + 8, config=config)
    hdl = tc_register(tc, mm_task_fcn)
    task = tc_task_create(body_sz=64, task_handle=hdl)

    def get_owner(i, j, k):
        """Owner of the A block read by task (i, j, k), as in Figure 3."""
        return a.locate((i * bs, k * bs))

    me = proc.rank
    for i in range(num_blocks):
        for j in range(num_blocks):
            for k in range(num_blocks):
                if get_owner(i, j, k) == me:
                    task.body = (a.gid, b.gid, c.gid, i, j, k)
                    yield from tc_add(tc, me, AFFINITY_HIGH, task)
                    task = tc_task_reuse(task)

    armci = Armci.attach(proc.engine)
    yield from armci.co_barrier(proc)
    t0 = proc.now
    stats = yield from tc_process(tc)
    yield from c.co_sync(proc)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t0, max)
    yield from tc_destroy(tc)
    return (elapsed, stats, c)


def run_matmul(
    nprocs: int,
    a_mat: np.ndarray,
    b_mat: np.ndarray,
    num_blocks: int = 4,
    machine: MachineSpec | None = None,
    seed: int = 0,
    config: SciotoConfig | None = None,
    max_events: int | None = None,
) -> MatmulResult:
    """Multiply two square matrices with Scioto-scheduled block tasks.

    ``a_mat.shape[0]`` must be divisible by ``num_blocks``.
    """
    n = a_mat.shape[0]
    if a_mat.shape != (n, n) or b_mat.shape != (n, n):
        raise ValueError("matrices must be square and of equal shape")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if n % num_blocks:
        raise ValueError(f"matrix size {n} not divisible by num_blocks={num_blocks}")
    cfg = config if config is not None else SciotoConfig()
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    eng.spawn_all(_mm_main, a_mat, b_mat, num_blocks, cfg)
    sim = eng.run()
    elapsed, _, c_ga = sim.returns[0]
    return MatmulResult(
        c=c_ga.unsafe_snapshot(),
        elapsed=elapsed,
        nprocs=nprocs,
        per_rank=[r[1] for r in sim.returns],
        sim=sim,
    )

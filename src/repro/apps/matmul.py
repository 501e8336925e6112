"""Task-parallel blocked matrix multiplication over Global Arrays (§4).

The paper's worked example (Figure 3): all ranks collectively create a
task collection, register the multiply callback, and seed one task per
block triple they own; ``tc_process`` runs the MIMD phase.  The task
body carries portable references — GA handles are integers — plus the
block indices, exactly like the paper's ``mm_task`` struct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.armci.runtime import Armci
from repro.core import AFFINITY_HIGH, SciotoConfig, Task, TaskCollection
from repro.core.stats import ProcessStats
from repro.ga import GlobalArray
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
    a_ga = yield from GlobalArray.co_create(proc, "A", (n, n))
    b_ga = yield from GlobalArray.co_create(proc, "B", (n, n))
    c_ga = yield from GlobalArray.co_create(proc, "C", (n, n))
    (plo, phi) = a_ga.distribution(proc.rank)
    sl = tuple(slice(l, h) for l, h in zip(plo, phi))
    a_ga.access(proc)[...] = a_mat[sl]
    b_ga.access(proc)[...] = b_mat[sl]
    yield from a_ga.co_sync(proc)

    tc = yield from TaskCollection.co_create(
        proc, task_size=64, max_tasks=num_blocks**3 + 8, config=config
    )

    def box(i, j):
        return (i * bs, j * bs), ((i + 1) * bs, (j + 1) * bs)

    def mm_task_fcn(tc_, task):
        # mm task body: GA handles are portable integer references (§2.2)
        a_gid, b_gid, c_gid, i, j, k = task.body
        p = tc_.proc
        from repro.ga.array import GaRuntime

        arrays = GaRuntime.attach(p.engine).arrays
        a, b, c = arrays[a_gid], arrays[b_gid], arrays[c_gid]
        lo_a, hi_a = box(i, k)
        lo_b, hi_b = box(k, j)
        lo_c, hi_c = box(i, j)
        a_blk = yield from a.co_get(p, lo_a, hi_a)
        b_blk = yield from b.co_get(p, lo_b, hi_b)
        p.compute(2.0 * bs**3 * p.machine.seconds_per_flop)
        yield from c.co_acc(p, lo_c, hi_c, a_blk @ b_blk)

    hdl = tc.register(mm_task_fcn)

    def get_owner(i, j, k):
        """Owner of the A block read by task (i, j, k), as in Figure 3."""
        return a_ga.locate((i * bs, k * bs))

    for i in range(num_blocks):
        for j in range(num_blocks):
            for k in range(num_blocks):
                if get_owner(i, j, k) == proc.rank:
                    task = Task(callback=hdl,
                                body=(a_ga.gid, b_ga.gid, c_ga.gid, i, j, k))
                    yield from tc.co_add(task, rank=proc.rank, affinity=AFFINITY_HIGH)
    armci = Armci.attach(proc.engine)
    yield from armci.co_barrier(proc)
    t0 = proc.now
    stats = yield from tc.co_process()
    yield from c_ga.co_sync(proc)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t0, max)
    yield from tc.co_destroy()
    return (elapsed, stats, c_ga)


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

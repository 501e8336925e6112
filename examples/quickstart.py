#!/usr/bin/env python3
"""Quickstart: the paper's §4 example — task-parallel blocked matmul.

Mirrors Figure 3 of the paper line by line using the C-style facade
(``tc_create`` / ``tc_register`` / ``tc_add`` / ``tc_process``), with
every call that communicates written ``yield from``: all
ranks collectively create global arrays A, B, C and a task collection,
seed one multiply task per owned block triple, and process the
collection to termination with locality-aware work stealing.

Run:
    python examples/quickstart.py
"""

import numpy as np

from repro.armci.runtime import Armci
from repro.core import AFFINITY_HIGH
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
from repro.ga import GlobalArray
from repro.ga.array import GaRuntime
from repro.sim.engine import run_spmd

N = 32  # matrix dimension
NUM_BLOCKS = 4  # blocks per dimension
BS = N // NUM_BLOCKS
CHUNK_SIZE = 2
MAX_TASKS = NUM_BLOCKS**3 + 8


def mm_task_fcn(tc, task):
    """Multiply one block pair and accumulate into C (the paper's callback)."""
    mm = tc_task_body(task)  # (A, B, C handles, i, j, k) — portable refs
    a_h, b_h, c_h, i, j, k = mm
    proc = tc.proc
    arrays = GaRuntime.attach(proc.engine).arrays
    a, b, c = arrays[a_h], arrays[b_h], arrays[c_h]
    a_blk = yield from a.co_get(proc, (i * BS, k * BS), ((i + 1) * BS, (k + 1) * BS))
    b_blk = yield from b.co_get(proc, (k * BS, j * BS), ((k + 1) * BS, (j + 1) * BS))
    proc.compute(2.0 * BS**3 * proc.machine.seconds_per_flop)
    yield from c.co_acc(proc, (i * BS, j * BS), ((i + 1) * BS, (j + 1) * BS), a_blk @ b_blk)


def main(proc, a_mat, b_mat):
    # Initialize Global Arrays: A, B, and C
    a = yield from GlobalArray.co_create(proc, "A", (N, N))
    b = yield from GlobalArray.co_create(proc, "B", (N, N))
    c = yield from GlobalArray.co_create(proc, "C", (N, N))
    lo, hi = a.distribution(proc.rank)
    sl = tuple(slice(x, y) for x, y in zip(lo, hi))
    a.access(proc)[...] = a_mat[sl]
    b.access(proc)[...] = b_mat[sl]
    yield from a.co_sync(proc)

    tc = yield from tc_create(proc, task_sz=64, chunk_sz=CHUNK_SIZE, max_sz=MAX_TASKS)
    hdl = tc_register(tc, mm_task_fcn)
    task = tc_task_create(body_sz=64, task_handle=hdl)

    def get_owner(i, j, k):
        return a.locate((i * BS, k * BS))

    me = proc.rank
    for i in range(NUM_BLOCKS):
        for j in range(NUM_BLOCKS):
            for k in range(NUM_BLOCKS):
                if get_owner(i, j, k) == me:
                    task.body = (a.gid, b.gid, c.gid, i, j, k)
                    yield from tc_add(tc, me, AFFINITY_HIGH, task)
                    task = tc_task_reuse(task)

    stats = yield from tc_process(tc)
    yield from c.co_sync(proc)
    result = yield from c.co_read_full(proc)
    yield from tc_destroy(tc)
    yield from Armci.attach(proc.engine).co_barrier(proc)
    return (stats.tasks_executed, stats.steals_successful, result)


if __name__ == "__main__":
    rng = np.random.default_rng(1)
    a_mat = rng.standard_normal((N, N))
    b_mat = rng.standard_normal((N, N))

    sim = run_spmd(4, main, a_mat, b_mat, seed=0)

    total_tasks = sum(r[0] for r in sim.returns)
    total_steals = sum(r[1] for r in sim.returns)
    c_mat = sim.returns[0][2]
    ok = np.allclose(c_mat, a_mat @ b_mat, atol=1e-10)
    print(f"blocked matmul on 4 simulated ranks: {total_tasks} tasks "
          f"({NUM_BLOCKS**3} expected), {total_steals} steals")
    print(f"virtual time: {sim.elapsed * 1e6:.1f} us")
    print(f"result matches numpy: {ok}")
    assert ok and total_tasks == NUM_BLOCKS**3

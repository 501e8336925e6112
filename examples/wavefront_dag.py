#!/usr/bin/env python3
"""Wavefront computation with inter-task dependencies (paper §8 extension).

The paper's future work promises "support for tasks that exhibit
arbitrary inter-task dependencies"; ``repro.core.graph.TaskGraph``
implements it.  This example runs the classic 2D wavefront: cell (i, j)
depends on (i-1, j) and (i, j-1), computing a dynamic-programming
recurrence over a distributed Global Array.  Anti-diagonals become
runnable one after another, and work stealing keeps all ranks busy as
the frontier sweeps.

Run:
    python examples/wavefront_dag.py [nprocs]
"""

import sys

import numpy as np

from repro.core import TaskCollection, TaskGraph
from repro.ga import GlobalArray
from repro.sim.engine import run_spmd

N = 12  # wavefront grid (N x N cells)


def main(proc):
    grid = yield from GlobalArray.co_create(proc, "wave", (N, N))
    yield from grid.co_sync(proc)
    tc = yield from TaskCollection.co_create(proc, task_size=64)
    tg = yield from TaskGraph.co_create(tc)

    def cell(tc_, task):
        i, j = task.body
        p = tc_.proc
        up = (yield from grid.co_get(p, (i - 1, j), (i, j + 1)))[0, 0] if i > 0 else 0.0
        left = (yield from grid.co_get(p, (i, j - 1), (i + 1, j)))[0, 0] if j > 0 else 0.0
        p.compute(2e-6)
        value = max(up, left) + (i + 1) * (j + 1) % 7  # arbitrary recurrence
        yield from grid.co_put(p, (i, j), (i + 1, j + 1), np.array([[value]]))

    for i in range(N):
        for j in range(N):
            deps = []
            if i > 0:
                deps.append(f"c{i-1},{j}")
            if j > 0:
                deps.append(f"c{i},{j-1}")
            # home each cell on the rank that owns it in the global array
            tg.add(f"c{i},{j}", cell, body=(i, j), deps=deps,
                   rank=grid.locate((i, j)))

    stats = yield from tg.co_process()
    yield from grid.co_sync(proc)
    result = yield from grid.co_read_full(proc)
    return (stats.tasks_executed, result)


def reference() -> np.ndarray:
    out = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            up = out[i - 1, j] if i > 0 else 0.0
            left = out[i, j - 1] if j > 0 else 0.0
            out[i, j] = max(up, left) + (i + 1) * (j + 1) % 7
    return out


if __name__ == "__main__":
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    sim = run_spmd(nprocs, main, seed=0)
    per_rank = [r[0] for r in sim.returns]
    result = sim.returns[0][1]
    ok = np.allclose(result, reference())
    print(f"wavefront {N}x{N} over {nprocs} ranks")
    print(f"cells executed per rank: {per_rank} (total {sum(per_rank)})")
    print(f"virtual time: {sim.elapsed * 1e3:.3f} ms")
    print(f"matches sequential dynamic program: {ok}")
    assert ok and sum(per_rank) == N * N

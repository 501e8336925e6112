#!/usr/bin/env python3
"""Quickstart: the paper's §4 example — task-parallel blocked matmul.

The Figure-3 body lives in ``repro.apps.matmul``, written in the paper's
C names (``tc_create`` / ``tc_register`` / ``tc_add`` / ``tc_process``):
all ranks collectively create global arrays A, B, C and a task
collection, seed one multiply task per owned block triple, and process
the collection to termination with locality-aware work stealing.  This
script builds the matrices, runs it on 4 simulated ranks and checks the
product against numpy.

Run:
    python examples/quickstart.py
"""

import numpy as np

from repro.apps.matmul import run_matmul
from repro.core import SciotoConfig

N = 32  # matrix dimension
NUM_BLOCKS = 4  # blocks per dimension


if __name__ == "__main__":
    rng = np.random.default_rng(1)
    a_mat = rng.standard_normal((N, N))
    b_mat = rng.standard_normal((N, N))

    r = run_matmul(4, a_mat, b_mat, num_blocks=NUM_BLOCKS, seed=0,
                   config=SciotoConfig(chunk_size=2))

    total_tasks = sum(s.tasks_executed for s in r.per_rank)
    total_steals = sum(s.steals_successful for s in r.per_rank)
    ok = np.allclose(r.c, a_mat @ b_mat, atol=1e-10)
    print(f"blocked matmul on 4 simulated ranks: {total_tasks} tasks "
          f"({NUM_BLOCKS**3} expected), {total_steals} steals")
    print(f"virtual time: {r.elapsed * 1e6:.1f} us")
    print(f"result matches numpy: {ok}")
    assert ok and total_tasks == NUM_BLOCKS**3

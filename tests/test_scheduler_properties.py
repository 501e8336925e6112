"""Property-based tests of the end-to-end Scioto runtime.

The invariant that matters most (and that the termination detector must
never violate): **every added task executes exactly once**, across any
combination of process count, queue mode, steal chunking, termination
optimization, task-tree shape, and seed.  A violated invariant would
mean either a lost/duplicated task (queue protocol bug) or an early
termination (wave protocol bug).
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SciotoConfig, Task, TaskCollection
from repro.sim.engine import Engine


def _run_tree_workload(
    nprocs: int,
    seed: int,
    cfg: SciotoConfig,
    fanout: int,
    depth: int,
    roots: int,
    compute: float = 0.5e-6,
):
    """Process a synthetic task tree; return (executed ids, expected count)."""
    executed: list[tuple[int, int]] = []
    lock = threading.Lock()
    next_id = [roots]

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, task_size=64, config=cfg)

        def node(tc_, task):
            tc_.proc.compute(compute)
            tid, d = task.body
            with lock:
                executed.append((tid, tc_.rank))
            if d < depth:
                for _ in range(fanout):
                    with lock:
                        cid = next_id[0]
                        next_id[0] += 1
                    # spread some children to other ranks to exercise
                    # remote adds + dirty piggybacking
                    dest = tc_.rank
                    if cid % 7 == 0 and tc_.nprocs > 1:
                        dest = (tc_.rank + 1 + cid) % tc_.nprocs
                    yield from tc_.co_add(Task(callback=h, body=(cid, d + 1)), rank=dest,
                            affinity=cid % 3)

        h = tc.register(node)
        if proc.rank == 0:
            for r in range(roots):
                yield from tc.co_add(Task(callback=h, body=(r, 0)))
        stats = yield from tc.co_process()
        return stats

    eng = Engine(nprocs, seed=seed, max_events=3_000_000)
    eng.spawn_all(main)
    result = eng.run()
    # expected: full fanout tree per root
    per_root = sum(fanout**d for d in range(depth + 1))
    return executed, roots * per_root, result


@settings(max_examples=30, deadline=None)
@given(
    nprocs=st.integers(1, 9),
    seed=st.integers(0, 10_000),
    split=st.booleans(),
    opt=st.booleans(),
    waitfree=st.booleans(),
    chunk=st.integers(1, 8),
    fanout=st.integers(1, 3),
    depth=st.integers(0, 4),
    roots=st.integers(1, 5),
)
def test_every_task_executes_exactly_once(
    nprocs, seed, split, opt, waitfree, chunk, fanout, depth, roots
):
    cfg = SciotoConfig(
        split_queues=split,
        termination_opt=opt,
        wait_free_steals=waitfree,
        chunk_size=chunk,
    )
    executed, expected, _ = _run_tree_workload(nprocs, seed, cfg, fanout, depth, roots)
    ids = sorted(tid for tid, _rank in executed)
    assert ids == list(range(expected)), (
        f"expected {expected} unique executions, got {len(ids)} "
        f"({len(set(ids))} unique)"
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), nprocs=st.integers(2, 8))
def test_no_load_balancing_executes_where_placed(seed, nprocs):
    """With stealing disabled, tasks run exactly where they were added."""
    cfg = SciotoConfig(load_balancing=False)
    ran: list[tuple[int, int]] = []

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, config=cfg)
        h = tc.register(lambda tc_, t: ran.append((t.body, tc_.rank)))
        if proc.rank == 0:
            for i in range(3 * nprocs):
                yield from tc.co_add(Task(callback=h, body=i), rank=i % nprocs)
        yield from tc.co_process()

    eng = Engine(nprocs, seed=seed, max_events=2_000_000)
    eng.spawn_all(main)
    eng.run()
    assert len(ran) == 3 * nprocs
    for task_id, rank in ran:
        assert rank == task_id % nprocs


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_work_spreads_under_stealing(seed):
    """Seeding everything on rank 0 must still engage other ranks."""
    nprocs = 6
    cfg = SciotoConfig(chunk_size=2)
    executed, expected, result = _run_tree_workload(
        nprocs, seed, cfg, fanout=2, depth=5, roots=1, compute=2e-6
    )
    assert len(executed) == expected
    ranks_used = {rank for _tid, rank in executed}
    assert len(ranks_used) >= 3, f"stealing engaged only ranks {ranks_used}"


def test_deterministic_given_seed():
    """Same seed => identical schedule, timings, and steal pattern."""
    cfg = SciotoConfig()
    a = _run_tree_workload(5, seed=11, cfg=cfg, fanout=2, depth=4, roots=2)
    b = _run_tree_workload(5, seed=11, cfg=cfg, fanout=2, depth=4, roots=2)
    assert a[0] == b[0]
    assert a[2].elapsed == b[2].elapsed
    assert a[2].events == b[2].events


def test_different_seeds_change_schedule():
    cfg = SciotoConfig()
    a = _run_tree_workload(5, seed=1, cfg=cfg, fanout=2, depth=4, roots=2)
    b = _run_tree_workload(5, seed=2, cfg=cfg, fanout=2, depth=4, roots=2)
    # virtual elapsed time will almost surely differ with different steal rng
    assert a[2].elapsed != b[2].elapsed

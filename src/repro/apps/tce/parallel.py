"""Parallel TCE drivers: Scioto vs the original global-counter scheme.

The task body is shared: fetch ``A[i,k]`` and ``B[k,j]`` from GA,
multiply, and *accumulate* into ``C[i,j]`` (GA ``acc``).  The schedulers
differ exactly as in the paper:

* **Original**: the counter enumerates all ``nblocks^3`` triples; most
  claims hit a zero block and are discarded, so the shared counter is
  hammered far beyond the real work count, and accumulates land on
  random remote owners where they serialize.
* **Scioto**: each rank seeds tasks only for nonzero triples whose C
  block it owns (sparsity metadata is replicated), with high affinity —
  accumulates become local memory operations and no shared counter
  exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.tce.problem import TCEProblem
from repro.armci.runtime import Armci
from repro.baselines.global_counter import GlobalCounterScheduler
from repro.core import AFFINITY_HIGH, SciotoConfig, Task, TaskCollection
from repro.ga import GlobalArray
from repro.sim.engine import Engine, SimResult
from repro.sim.machines import MachineSpec

__all__ = ["run_tce_scioto", "run_tce_original", "spawn_tce", "tce_result", "TCERunResult"]

#: Local cost of examining one triple while seeding.
_TRIPLE_SCAN_COST = 0.04e-6
#: Wire size of one contraction-task body.
_TCE_TASK_BYTES = 48


@dataclass
class TCERunResult:
    """Outcome of a parallel contraction run."""

    mode: str
    nprocs: int
    elapsed: float  #: virtual time of the contraction (max over ranks)
    result: np.ndarray  #: the assembled C matrix (for verification)
    tasks_real: int
    sim: SimResult
    comm: dict[str, float] | None = None  #: aggregate ARMCI counters (acc_remote, rmw, ...)


def _block_box(problem: TCEProblem, i: int, j: int):
    b = problem.blocksize
    return (i * b, j * b), ((i + 1) * b, (j + 1) * b)


def _co_execute_triple(proc, problem: TCEProblem, a_ga, b_ga, c_ga,
                       i: int, j: int, k: int):
    """Shared task body: fetch blocks, GEMM, accumulate into C."""
    m = proc.machine
    lo_a, hi_a = _block_box(problem, i, k)
    lo_b, hi_b = _block_box(problem, k, j)
    lo_c, hi_c = _block_box(problem, i, j)
    a_blk = yield from a_ga.co_get(proc, lo_a, hi_a)
    b_blk = yield from b_ga.co_get(proc, lo_b, hi_b)
    proc.compute(problem.gemm_flops() * m.seconds_per_flop)
    yield from c_ga.co_acc(proc, lo_c, hi_c, a_blk @ b_blk)


def _tce_main(proc, problem: TCEProblem, mode: str, config: SciotoConfig | None,
              placement: str = "owner"):
    armci = Armci.attach(proc.engine)
    m = proc.machine
    n = problem.n
    a_ga = yield from GlobalArray.co_create(proc, "A", (n, n))
    b_ga = yield from GlobalArray.co_create(proc, "B", (n, n))
    c_ga = yield from GlobalArray.co_create(proc, "C", (n, n))
    # Initialize inputs: each rank fills its own patches locally.
    (plo, phi) = a_ga.distribution(proc.rank)
    sl = tuple(slice(l, h) for l, h in zip(plo, phi))
    a_ga.access(proc)[...] = problem.dense_a()[sl]
    b_ga.access(proc)[...] = problem.dense_b()[sl]
    yield from a_ga.co_sync(proc)

    if mode == "scioto":
        tc = yield from TaskCollection.co_create(
            proc, task_size=_TCE_TASK_BYTES,
            max_tasks=max(64, len(problem.nonzero_triples()) + 8),
            config=config or SciotoConfig(),
        )

        def triple_task(tc_, task):
            i, j, k = task.body
            yield from _co_execute_triple(tc_.proc, problem, a_ga, b_ga, c_ga, i, j, k)

        h = tc.register(triple_task)
    else:
        def counter_task(p, triple):
            i, j, k = triple
            p.compute(problem.triple_scan_flops() * p.machine.seconds_per_flop)
            if problem.nonzero_a(i, k) and problem.nonzero_b(k, j):
                yield from _co_execute_triple(p, problem, a_ga, b_ga, c_ga, i, j, k)

        sched = yield from GlobalCounterScheduler.co_create(proc, counter_task)
        task_list = problem.all_triples()

    yield from armci.co_barrier(proc)
    t0 = proc.now
    nreal = 0
    if mode == "scioto":
        nb = problem.nblocks
        proc.advance(_TRIPLE_SCAN_COST * nb * nb * nb)
        for idx, (i, j, k) in enumerate(problem.nonzero_triples()):
            if placement == "owner":
                # locality-aware: the task runs where its C block lives
                lo, _ = _block_box(problem, i, j)
                mine = c_ga.locate(lo) == proc.rank
                affinity = AFFINITY_HIGH
            else:  # round-robin: locality-oblivious placement (ablation A4)
                mine = idx % proc.nprocs == proc.rank
                affinity = 0
            if mine:
                yield from tc.co_add(Task(callback=h, body=(i, j, k)), affinity=affinity)
                nreal += 1
    else:
        yield from sched.co_run(task_list)
    if mode == "scioto":
        yield from tc.co_process()
    yield from c_ga.co_sync(proc)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t0, max)
    return (elapsed, nreal)


def spawn_tce(engine: Engine, problem: TCEProblem, mode: str = "scioto",
              config: SciotoConfig | None = None, placement: str = "owner") -> None:
    """Spawn the contraction of ``problem`` on every rank of ``engine``."""
    engine.spawn_all(_tce_main, problem, mode, config, placement)


def tce_result(engine: Engine, sim: SimResult, problem: TCEProblem,
               mode: str = "scioto") -> TCERunResult:
    """Read the outcome of a finished :func:`spawn_tce` run."""
    # assemble C for verification from the engine's GA state
    c_ga = next(a for a in engine.state["ga"].arrays if a.name == "C")
    return TCERunResult(
        mode=mode,
        nprocs=engine.nprocs,
        elapsed=sim.returns[0][0],
        result=c_ga.unsafe_snapshot(),
        tasks_real=len(problem.nonzero_triples()),
        sim=sim,
        comm=Armci.attach(engine).counters.snapshot(),
    )


def run_tce_scioto(
    nprocs: int,
    problem: TCEProblem,
    machine: MachineSpec | None = None,
    seed: int = 0,
    config: SciotoConfig | None = None,
    max_events: int | None = None,
    placement: str = "owner",
    engine_hook=None,
) -> TCERunResult:
    """Block-sparse contraction with Scioto task collections.

    ``placement="owner"`` seeds each task at its C block's owner (the
    paper's locality-aware scheme); ``"roundrobin"`` ignores data
    location (ablation A4).  ``engine_hook`` is called with the Engine
    before spawning (observer attachment point, see ``repro.obs``).
    """
    if placement not in ("owner", "roundrobin"):
        raise ValueError(f"unknown placement {placement!r}")
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    if engine_hook is not None:
        engine_hook(eng)
    spawn_tce(eng, problem, "scioto", config, placement)
    return tce_result(eng, eng.run(), problem)


def run_tce_original(
    nprocs: int,
    problem: TCEProblem,
    machine: MachineSpec | None = None,
    seed: int = 0,
    max_events: int | None = None,
) -> TCERunResult:
    """Block-sparse contraction with the original counter scheme."""
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    spawn_tce(eng, problem, "original")
    return tce_result(eng, eng.run(), problem, "original")

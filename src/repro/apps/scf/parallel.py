"""Parallel SCF drivers: Scioto task collections vs the original counter.

Both drivers run the identical iteration skeleton — fill F's local patch
with the core Hamiltonian, build the significant Fock blocks in
parallel, then (replicated, as the original GA code does) gather F,
diagonalize, and damp the density — and differ *only* in how Fock-block
tasks are scheduled:

* **Scioto** (§6.2): each rank seeds one high-affinity task per
  significant pair whose F block it owns; work stealing balances the
  irregular block costs.  Screened pairs are never enqueued — the
  screening metadata is replicated, so owners skip them for free.
* **Original**: the full ordered pair list (screened pairs included) is
  replicated on every rank and tasks are claimed by atomic
  ``read_inc`` on a shared counter — locality-oblivious, with every
  claim a remote atomic serializing at the counter host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.scf.problem import SCFProblem
from repro.armci.runtime import Armci
from repro.baselines.global_counter import GlobalCounterScheduler
from repro.core import AFFINITY_HIGH, SciotoConfig, Task, TaskCollection
from repro.ga import GlobalArray
from repro.sim.engine import Engine, SimResult
from repro.sim.machines import MachineSpec

__all__ = ["run_scf_scioto", "run_scf_original", "spawn_scf", "scf_result", "SCFRunResult"]

#: Local cost of examining one pair while seeding / enumerating.
_PAIR_SCAN_COST = 0.05e-6
#: Wire size of one Fock-task body (two block indices + references).
_SCF_TASK_BYTES = 48
#: ``engine.state`` key of the per-iteration shared density slots.
_DENSITY_SLOTS = "scf.density"


@dataclass
class SCFRunResult:
    """Outcome of a parallel SCF run."""

    mode: str
    nprocs: int
    energies: list[float]
    elapsed: float  #: virtual time of the full SCF loop (max over ranks)
    fock_time: float  #: virtual time spent in Fock builds (max over ranks)
    iterations: int
    sim: SimResult
    extra: dict[str, float] = field(default_factory=dict)


def _block_box(problem: SCFProblem, i: int, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    si, sj = problem.block_slice(i), problem.block_slice(j)
    return (si.start, sj.start), (si.stop, sj.stop)


def _co_execute_pair(proc, problem: SCFProblem, d_ga: GlobalArray, f_ga: GlobalArray,
                     i: int, j: int):
    """Shared task body: screen, read D blocks, compute, store F block."""
    m = proc.machine
    proc.compute(problem.task_flops(i, j) * m.seconds_per_flop)
    if not problem.significant(i, j):
        return
    lo_ij, hi_ij = _block_box(problem, i, j)
    lo_ji, hi_ji = _block_box(problem, j, i)
    d_ij = yield from d_ga.co_get(proc, lo_ij, hi_ij)
    d_ji = yield from d_ga.co_get(proc, lo_ji, hi_ji)
    f_blk = problem.fock_block(i, j, d_ij, d_ji)
    yield from f_ga.co_put(proc, lo_ij, hi_ij, f_blk)


def _replicated_density(proc, problem: SCFProblem, it: int,
                        f_full: np.ndarray, d_old: np.ndarray) -> np.ndarray:
    """``problem.next_density(f_full, d_old)``, solved once per iteration.

    Every rank gathers the same F and D, so the first rank to arrive
    solves and leaves ``(f_full, d_old, d_new)`` in the engine state; a
    later rank reuses ``d_new`` only when both of its inputs are equal.
    The slot is dropped after all ranks have passed, so it never
    outlives the iteration.  Only host time is saved: every rank has
    already been charged its share of the eigensolve.
    """
    slots = proc.engine.state.setdefault(_DENSITY_SLOTS, {})
    slot = slots.get(it)
    if slot is None:
        d_new = problem.next_density(f_full, d_old)
        d_new.setflags(write=False)
        slot = slots[it] = [f_full, d_old, d_new, proc.nprocs]
    elif np.array_equal(slot[0], f_full) and np.array_equal(slot[1], d_old):
        d_new = slot[2]
    else:
        d_new = problem.next_density(f_full, d_old)
    slot[3] -= 1
    if slot[3] == 0:
        del slots[it]
    return d_new


def _scf_main(proc, problem: SCFProblem, iterations: int, mode: str,
              config: SciotoConfig | None, convergence: float | None):
    armci = Armci.attach(proc.engine)
    m = proc.machine
    nbf = problem.nbf
    d_ga = yield from GlobalArray.co_create(proc, "D", (nbf, nbf))
    f_ga = yield from GlobalArray.co_create(proc, "F", (nbf, nbf))

    # Scheduler setup (collective, once)
    if mode == "scioto":
        tc = yield from TaskCollection.co_create(
            proc, task_size=_SCF_TASK_BYTES,
            max_tasks=problem.nblocks * problem.nblocks + 8,
            config=config or SciotoConfig(),
        )

        def fock_task(tc_, task):
            i, j = task.body
            yield from _co_execute_pair(tc_.proc, problem, d_ga, f_ga, i, j)

        h = tc.register(fock_task)
    else:
        sched = yield from GlobalCounterScheduler.co_create(
            proc, lambda p, pair: _co_execute_pair(p, problem, d_ga, f_ga, *pair)
        )
        task_list = problem.all_pairs()  # replicated, screened pairs included

    # Initial density: each rank writes its own patch (local).
    (plo, phi) = d_ga.distribution(proc.rank)
    d0 = problem.initial_density()
    d_ga.access(proc)[...] = d0[tuple(slice(l, h) for l, h in zip(plo, phi))]
    yield from d_ga.co_sync(proc)

    energies: list[float] = []
    fock_time = 0.0
    t_start = proc.now
    h_full = problem.core_hamiltonian()
    for it in range(iterations):
        # F starts as the core Hamiltonian (covers screened blocks).
        f_ga.access(proc)[...] = h_full[tuple(slice(l, h) for l, h in zip(plo, phi))]
        proc.advance(m.local_copy_time(f_ga.access(proc).nbytes))
        yield from f_ga.co_sync(proc)
        t0 = proc.now
        if mode == "scioto":
            proc.advance(_PAIR_SCAN_COST * problem.nblocks * problem.nblocks)
            for i in range(problem.nblocks):
                for j in range(problem.nblocks):
                    if not problem.significant(i, j):
                        continue
                    lo, _ = _block_box(problem, i, j)
                    if f_ga.locate(lo) == proc.rank:
                        yield from tc.co_add(
                            Task(callback=h, body=(i, j)), affinity=AFFINITY_HIGH
                        )
            yield from tc.co_process()
        else:
            proc.advance(_PAIR_SCAN_COST * len(task_list))
            yield from sched.counter.co_reset(proc)
            yield from sched.co_run(task_list)
        yield from f_ga.co_sync(proc)
        fock_time += proc.now - t0
        # Replicated update: gather F, diagonalize, damp D, store own patch.
        f_full = yield from f_ga.co_read_full(proc)
        d_old = yield from d_ga.co_read_full(proc)
        # sync before anyone overwrites D: every rank must finish reading
        # the old density first (GA codes put a ga_sync here)
        yield from d_ga.co_sync(proc)
        energies.append(problem.energy(f_full, d_old))
        if (
            convergence is not None
            and len(energies) >= 2
            and abs(energies[-1] - energies[-2]) < convergence
        ):
            # every rank computed the identical energies, so the early-stop
            # decision is replicated — no extra collective needed
            break
        # The eigensolve is parallel in real GA codes (PeIGS); charge the
        # per-rank share so it does not become an artificial serial term.
        proc.compute(problem.diag_flops() * m.seconds_per_flop / proc.nprocs)
        d_new = _replicated_density(proc, problem, it, f_full, d_old)
        d_ga.access(proc)[...] = d_new[tuple(slice(l, h) for l, h in zip(plo, phi))]
        yield from d_ga.co_sync(proc)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t_start, max)
    fock_time = yield from armci.co_allreduce(proc, fock_time, max)
    return (energies, elapsed, fock_time)


def spawn_scf(engine: Engine, problem: SCFProblem, iterations: int = 4,
              mode: str = "scioto", config: SciotoConfig | None = None,
              convergence: float | None = None) -> None:
    """Spawn the SCF loop of ``problem`` on every rank of ``engine``."""
    engine.spawn_all(_scf_main, problem, iterations, mode, config, convergence)


def scf_result(engine: Engine, sim: SimResult, mode: str = "scioto") -> SCFRunResult:
    """Read the outcome of a finished :func:`spawn_scf` run."""
    energies, elapsed, fock_time = sim.returns[0]
    return SCFRunResult(
        mode=mode,
        nprocs=engine.nprocs,
        energies=energies,
        elapsed=elapsed,
        fock_time=fock_time,
        iterations=len(energies),
        sim=sim,
    )


def run_scf_scioto(
    nprocs: int,
    problem: SCFProblem,
    iterations: int = 4,
    machine: MachineSpec | None = None,
    seed: int = 0,
    config: SciotoConfig | None = None,
    max_events: int | None = None,
    convergence: float | None = None,
    engine_hook=None,
) -> SCFRunResult:
    """SCF with Scioto task collections (the paper's port).

    ``convergence`` enables early stop on ``|dE|`` below the threshold.
    ``engine_hook`` is called with the Engine before spawning (observer
    attachment point, see ``repro.obs``).
    """
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    if engine_hook is not None:
        engine_hook(eng)
    spawn_scf(eng, problem, iterations, "scioto", config, convergence)
    return scf_result(eng, eng.run())


def run_scf_original(
    nprocs: int,
    problem: SCFProblem,
    iterations: int = 4,
    machine: MachineSpec | None = None,
    seed: int = 0,
    max_events: int | None = None,
    convergence: float | None = None,
    engine_hook=None,
) -> SCFRunResult:
    """SCF with the original replicated-list + global-counter scheduler."""
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    if engine_hook is not None:
        engine_hook(eng)
    spawn_scf(eng, problem, iterations, "original", None, convergence)
    return scf_result(eng, eng.run(), "original")

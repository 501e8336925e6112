"""UTS over the MPI two-sided work-stealing baseline (the paper's UTS-MPI)."""

from __future__ import annotations

from repro.apps.uts.scioto_uts import UTS_BODY_BYTES, UTSRunResult
from repro.apps.uts.tree import TreeStats, UTSParams, children_of, root_node
from repro.baselines.mpi_ws import MpiWorkStealing
from repro.mpi import Mpi
from repro.armci.runtime import Armci
from repro.sim.engine import Engine
from repro.sim.machines import MachineSpec

__all__ = ["run_uts_mpi"]


def _uts_mpi_main(proc, params: UTSParams, chunk: int):
    local = TreeStats()
    node_cost = proc.machine.cpu_reference

    def process_node(p, node, push):
        p.compute(node_cost)
        local.nodes += 1
        if node.depth > local.max_depth:
            local.max_depth = node.depth
        kids = children_of(params, node)
        if not kids:
            local.leaves += 1
        for child in kids:
            push(child)

    ws = MpiWorkStealing(proc, process_node, item_bytes=UTS_BODY_BYTES, chunk=chunk)
    mpi = Mpi.attach(proc.engine)
    yield from mpi.barrier(proc)
    t0 = proc.now
    initial = [root_node(params)] if proc.rank == 0 else []
    yield from ws.run(initial)
    # reductions reuse the ARMCI collective machinery (same cost model as
    # an MPI allreduce for our purposes)
    armci = Armci.attach(proc.engine)
    total: TreeStats = yield from armci.co_allreduce(proc, local, TreeStats.merge)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t0, max)
    return (total, elapsed, ws)


def run_uts_mpi(
    nprocs: int,
    params: UTSParams,
    machine: MachineSpec | None = None,
    seed: int = 0,
    chunk: int = 10,
    max_events: int | None = None,
) -> UTSRunResult:
    """Run UTS with the MPI work-stealing baseline on ``nprocs`` ranks."""
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    eng.spawn_all(_uts_mpi_main, params, chunk)
    sim = eng.run()
    total, elapsed, _ = sim.returns[0]
    return UTSRunResult(
        stats=total,
        elapsed=elapsed,
        throughput=total.nodes / elapsed if elapsed > 0 else 0.0,
        nprocs=nprocs,
        per_rank=[],
        sim=sim,
    )

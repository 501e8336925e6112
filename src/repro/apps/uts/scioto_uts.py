"""UTS on Scioto: one task per tree node, stats gathered in CLOs (§6.2).

Matches the paper's port of UTS: the traversal starts from a single
task holding the root; each task counts its node, generates the
children via SHA-1, and adds one new task per child.  Tree statistics
accumulate in a common local object per rank and are reduced at the
end — the CLO mechanism §2.3 describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.armci.runtime import Armci
from repro.apps.uts.tree import TreeStats, UTSParams, children_of, root_node
from repro.core import SciotoConfig, Task, TaskCollection
from repro.core.stats import ProcessStats
from repro.sim.engine import Engine, SimResult
from repro.sim.machines import MachineSpec

__all__ = ["run_uts_scioto", "spawn_uts", "uts_result", "UTSRunResult", "UTS_BODY_BYTES"]

#: Wire size of a UTS task body (digest + depth + bookkeeping).
UTS_BODY_BYTES = 32


@dataclass
class UTSRunResult:
    """Aggregated outcome of a parallel UTS run.

    ``throughput`` is the paper's figure-of-merit: tree nodes processed
    per second of virtual time across all ranks.
    """

    stats: TreeStats
    elapsed: float
    throughput: float
    nprocs: int
    per_rank: list[ProcessStats]
    sim: SimResult

    @property
    def total_steals(self) -> int:
        return sum(s.steals_successful for s in self.per_rank)


def _uts_main(proc, params: UTSParams, config: SciotoConfig, frontier: bool):
    tc = yield from TaskCollection.co_create(
        proc, task_size=UTS_BODY_BYTES, max_tasks=1 << 20, config=config
    )

    # §6.3: processing one node costs 0.3158us (Opteron) / 0.4753us
    # (Xeon) / 0.5681us (XT4) — the machine model scales the factor.
    node_cost = proc.machine.cpu_reference

    def node_task(tc_: TaskCollection, task: Task):
        node = task.body
        tc_.proc.compute(node_cost)
        local: TreeStats = tc_.clo(stats_h)
        local.nodes += 1
        if node.depth > local.max_depth:
            local.max_depth = node.depth
        kids = children_of(params, node)
        if not kids:
            local.leaves += 1
            return
        add = tc_.co_add
        for child in kids:
            yield from add(Task(h, child, 0, UTS_BODY_BYTES))

    h = tc.register(node_task)
    stats_h = tc.register_clo(TreeStats())
    if proc.rank == 0:
        seeds = [root_node(params)]
        if frontier:
            # Expand a breadth-first frontier of at least 4 nodes per
            # rank here, counted in this rank's CLO, then deal it out
            # round-robin so every rank starts with work.
            local = tc.clo(stats_h)
            while 0 < len(seeds) < 4 * proc.nprocs:
                node = seeds.pop(0)
                proc.compute(node_cost)
                local.nodes += 1
                if node.depth > local.max_depth:
                    local.max_depth = node.depth
                kids = children_of(params, node)
                if not kids:
                    local.leaves += 1
                seeds.extend(kids)
        for i, node in enumerate(seeds):
            yield from tc.co_add(Task(h, node, 0, UTS_BODY_BYTES), rank=i % proc.nprocs)

    armci = Armci.attach(proc.engine)
    yield from armci.co_barrier(proc)
    t0 = proc.now
    pstats = yield from tc.co_process()
    local = tc.clo(stats_h)
    total: TreeStats = yield from armci.co_allreduce(proc, local, TreeStats.merge)
    elapsed = yield from armci.co_allreduce(proc, proc.now - t0, max)
    return (total, elapsed, pstats)


def spawn_uts(
    engine: Engine,
    params: UTSParams,
    config: SciotoConfig | None = None,
    frontier: bool = False,
) -> None:
    """Spawn the UTS traversal of ``params`` on every rank of ``engine``.

    The traversal starts from one root task on rank 0; with
    ``frontier``, rank 0 first expands the tree breadth-first to at
    least ``4 * nprocs`` nodes and deals them out round-robin.
    """
    config = config if config is not None else SciotoConfig()
    engine.spawn_all(_uts_main, params, config, frontier)


def uts_result(engine: Engine, sim: SimResult) -> UTSRunResult:
    """Read the outcome of a finished :func:`spawn_uts` run."""
    total, elapsed, _ = sim.returns[0]
    return UTSRunResult(
        stats=total,
        elapsed=elapsed,
        throughput=total.nodes / elapsed if elapsed > 0 else 0.0,
        nprocs=engine.nprocs,
        per_rank=[r[2] for r in sim.returns],
        sim=sim,
    )


def run_uts_scioto(
    nprocs: int,
    params: UTSParams,
    machine: MachineSpec | None = None,
    seed: int = 0,
    config: SciotoConfig | None = None,
    max_events: int | None = None,
    engine_hook=None,
    frontier: bool = False,
) -> UTSRunResult:
    """Run UTS with Scioto task collections on ``nprocs`` simulated ranks.

    ``engine_hook``, if given, is called with the freshly built
    :class:`~repro.sim.engine.Engine` before any rank is spawned — the
    attachment point for observers (``repro.obs``, ``repro.analyze``).
    ``frontier`` is as for :func:`spawn_uts`.
    """
    eng = Engine(nprocs, machine=machine, seed=seed, max_events=max_events)
    if engine_hook is not None:
        engine_hook(eng)
    spawn_uts(eng, params, config, frontier)
    return uts_result(eng, eng.run())

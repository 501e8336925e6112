"""Figure 4: termination detection vs ARMCI and MPI barriers, 1-64 procs.

The paper detects termination after executing a single no-op task and
finds the wave algorithm completes in roughly twice the time of the
barrier operations, growing ~log(p).
"""

from __future__ import annotations

from repro.armci.runtime import Armci
from repro.core import SciotoConfig, Task, TaskCollection
from repro.mpi import Mpi
from repro.sim.engine import Engine
from repro.util.records import Series, SweepResult

__all__ = ["run_figure4"]


def _termination_time(nprocs: int) -> float:
    """Time from entering tc_process with one no-op task to detection."""

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, task_size=64, config=SciotoConfig())
        h = tc.register(lambda tc_, t: None)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        yield from Armci.attach(proc.engine).co_barrier(proc)
        t0 = proc.now
        yield from tc.co_process()
        return proc.now - t0

    eng = Engine(nprocs, max_events=2_000_000)
    eng.spawn_all(main)
    res = eng.run()
    return max(res.returns)


def _barrier_time(nprocs: int, which: str) -> float:
    """Completion time of one barrier, measured from the last arrival."""

    def main(proc):
        armci = Armci.attach(proc.engine)
        mpi = Mpi.attach(proc.engine)
        # warm up / align all ranks first
        yield from armci.co_barrier(proc)
        t0 = proc.now
        if which == "armci":
            yield from armci.co_barrier(proc)
        else:
            yield from mpi.barrier(proc)
        return proc.now - t0

    eng = Engine(nprocs, max_events=1_000_000)
    eng.spawn_all(main)
    res = eng.run()
    return max(res.returns)


def run_figure4(scale: str = "quick") -> SweepResult:
    """Regenerate Figure 4 (times in µs, log-log shaped like the paper)."""
    max_p = 64 if scale == "full" else 16
    procs = [1]
    while procs[-1] < max_p:
        procs.append(procs[-1] * 2)
    result = SweepResult(experiment="figure4")
    td = Series(label="scioto-termination", unit="us")
    fence = Series(label="armci-barrier", unit="us")
    barrier = Series(label="mpi-barrier", unit="us")
    for p in procs:
        td.add(p, _termination_time(p) * 1e6)
        fence.add(p, _barrier_time(p, "armci") * 1e6)
        barrier.add(p, _barrier_time(p, "mpi") * 1e6)
    result.series = [td, fence, barrier]
    result.notes.append(
        "paper: termination detected in ~2x the time of ARMCI/MPI barriers"
    )
    return result

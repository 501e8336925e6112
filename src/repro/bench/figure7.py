"""Figure 7: UTS on the heterogeneous cluster — split queues vs MPI vs no-split.

Three lines, throughput in nodes/second: Scioto with split queues (the
paper's design), the MPI work-stealing implementation of UTS, and
Scioto with the original fully-locked queues.  Expected shape: all three
scale; Split-Queues > MPI-WS > No-Split, with the locked queues costing
roughly a factor of two.

:func:`run_binomial` is a supplement on the same machine and lines: the
UTS benchmark's binomial tree, the worst-case load-balancing stressor.
Near-critical branching gives subtree sizes with enormous variance and
depth in the hundreds, so almost all parallelism must be discovered by
stealing long chains.
"""

from __future__ import annotations

from repro.apps.uts import UTSParams, run_uts_mpi, run_uts_scioto
from repro.apps.uts.presets import EXPECTED_NODES, preset
from repro.bench.harness import sweep_procs
from repro.core import SciotoConfig
from repro.sim.machines import heterogeneous_cluster
from repro.util.records import Series, SweepResult

__all__ = ["run_figure7", "run_binomial", "uts_tree"]


def uts_tree(scale: str) -> UTSParams:
    """The UTS instance: ~122k nodes at full scale, ~31k quick."""
    if scale == "full":
        return UTSParams(b0=4.0, gen_mx=12, root_seed=17)
    return UTSParams(b0=4.0, gen_mx=10, root_seed=17)


def run_figure7(scale: str = "quick") -> SweepResult:
    params = uts_tree(scale)
    procs = sweep_procs(scale)
    result = SweepResult(experiment="figure7")
    split = Series(label="Split-Queues", unit="Mnodes/s")
    mpi = Series(label="MPI-WS", unit="Mnodes/s")
    nosplit = Series(label="No-Split", unit="Mnodes/s")
    for p in procs:
        mach = heterogeneous_cluster(p)
        split.add(p, run_uts_scioto(p, params, machine=mach, seed=1).throughput / 1e6)
        mpi.add(p, run_uts_mpi(p, params, machine=mach, seed=1).throughput / 1e6)
        nosplit.add(
            p,
            run_uts_scioto(
                p, params, machine=mach, seed=1,
                config=SciotoConfig(split_queues=False),
            ).throughput
            / 1e6,
        )
    result.series = [split, mpi, nosplit]
    result.notes.append(f"geometric tree, gen_mx={params.gen_mx}, seed={params.root_seed}")
    return result


def run_binomial(scale: str = "quick") -> SweepResult:
    """Scioto vs MPI-WS on the binomial preset tree (86k nodes, depth 155)."""
    params = preset("binomial")
    procs = [4, 8, 16] if scale == "quick" else [8, 16, 32, 64]
    result = SweepResult(experiment="supplement-binomial-uts")
    scioto = Series(label="Scioto", unit="Mnodes/s")
    mpi = Series(label="MPI-WS", unit="Mnodes/s")
    for p in procs:
        mach = heterogeneous_cluster(p)
        s = run_uts_scioto(p, params, machine=mach, seed=1)
        m = run_uts_mpi(p, params, machine=mach, seed=1)
        if not s.stats.nodes == m.stats.nodes == EXPECTED_NODES["binomial"]:
            raise RuntimeError(
                f"binomial tree at p={p}: Scioto counted {s.stats.nodes} nodes, "
                f"MPI-WS {m.stats.nodes}, expected {EXPECTED_NODES['binomial']}"
            )
        scioto.add(p, s.throughput / 1e6)
        mpi.add(p, m.throughput / 1e6)
    result.series = [scioto, mpi]
    result.notes.append("binomial tree: 86k nodes, depth 155, leaf fraction > 0.6")
    return result

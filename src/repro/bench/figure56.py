"""Figures 5 and 6: SCF & TCE — Scioto vs Original, speedup and runtime.

Figure 5 plots parallel speedup (vs the single-process Scioto run) and
Figure 6 the raw runtimes, for four configurations on the heterogeneous
cluster: SCF, TCE, SCF-Original, TCE-Original.  The expected shape: the
Original (replicated list + shared counter) versions track the Scioto
versions at small scale, then flatten — mildly for SCF, severely for
TCE, whose counter claims outnumber its real tasks by ~6x.
"""

from __future__ import annotations

from repro.apps.scf import SCFProblem, run_scf_original, run_scf_scioto
from repro.apps.tce import TCEProblem, run_tce_original, run_tce_scioto
from repro.bench.harness import sweep_procs
from repro.sim.machines import heterogeneous_cluster
from repro.util.records import Series, SweepResult

__all__ = ["run_figure56", "scf_problem", "tce_problem"]


def scf_problem(scale: str) -> SCFProblem:
    if scale == "full":
        return SCFProblem(nblocks=40, blocksize=5)
    return SCFProblem(nblocks=20, blocksize=5)


def tce_problem(scale: str) -> TCEProblem:
    if scale == "full":
        return TCEProblem(nblocks=16, blocksize=64, density=0.4)
    return TCEProblem(nblocks=10, blocksize=48, density=0.4)


def run_figure56(scale: str = "quick") -> SweepResult:
    """Regenerate Figures 5+6; emits speedup and runtime series per config."""
    iters = 2
    scf = scf_problem(scale)
    tce = tce_problem(scale)
    procs = sweep_procs(scale)
    base_scf = run_scf_scioto(1, scf, iterations=iters).elapsed
    base_tce = run_tce_scioto(1, tce).elapsed

    runs = {
        "SCF": lambda p: run_scf_scioto(
            p, scf, iterations=iters, machine=heterogeneous_cluster(p)
        ).elapsed,
        "SCF-Original": lambda p: run_scf_original(
            p, scf, iterations=iters, machine=heterogeneous_cluster(p)
        ).elapsed,
        "TCE": lambda p: run_tce_scioto(
            p, tce, machine=heterogeneous_cluster(p)
        ).elapsed,
        "TCE-Original": lambda p: run_tce_original(
            p, tce, machine=heterogeneous_cluster(p)
        ).elapsed,
    }
    bases = {"SCF": base_scf, "SCF-Original": base_scf,
             "TCE": base_tce, "TCE-Original": base_tce}

    result = SweepResult(experiment="figure5+6")
    for label, fn in runs.items():
        speedup = Series(label=f"{label}-speedup", unit="x")
        runtime = Series(label=f"{label}-runtime", unit="s")
        for p in procs:
            elapsed = fn(p)
            speedup.add(p, bases[label] / elapsed)
            runtime.add(p, elapsed)
        result.series.append(speedup)
        result.series.append(runtime)
    result.notes.append(f"SCF: nbf={scf.nbf}, {len(scf.significant_pairs())} significant pairs")
    result.notes.append(
        f"TCE: n={tce.n}, {len(tce.nonzero_triples())} real tasks of {len(tce.all_triples())} triples"
    )
    result.notes.append(f"1-proc baselines: SCF {base_scf:.3f}s, TCE {base_tce:.3f}s")
    return result

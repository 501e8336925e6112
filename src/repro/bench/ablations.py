"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **A2 — token-coloring optimization (§5.3)**: dirty-mark messages sent
  with and without the votes-before rule, on a steal-heavy UTS run.
* **A3 — steal chunk size (§5.1)**: UTS throughput across chunk sizes.
* **A4 — locality-aware placement (§5.1)**: TCE with owner placement vs
  round-robin placement; reports runtime and remote-accumulate counts.
* **A5 — dynamic load balancing off (§3)**: Scioto with stealing
  disabled on the heterogeneous cluster, where static placement leaves
  the fast half of the machine idle at the tail.
"""

from __future__ import annotations

from repro.apps.tce import TCEProblem, run_tce_scioto
from repro.apps.uts import UTSParams, run_uts_scioto
from repro.core import SciotoConfig
from repro.sim.machines import heterogeneous_cluster
from repro.util.records import Series, SweepResult

__all__ = [
    "run_ablation_termination",
    "run_ablation_chunk",
    "run_ablation_affinity",
    "run_ablation_static",
    "run_ablation_waitfree",
]

_TREE = UTSParams(b0=4.0, gen_mx=10, root_seed=17)


def run_ablation_termination(scale: str = "quick") -> SweepResult:
    """A2: dirty-mark messages with/without the votes-before optimization."""
    procs = [4, 8, 16] if scale == "quick" else [8, 16, 32, 64]
    result = SweepResult(experiment="ablation-termination-opt")
    sent_opt = Series(label="dirty-msgs-optimized", unit="msgs")
    sent_base = Series(label="dirty-msgs-baseline", unit="msgs")
    saved = Series(label="fraction-elided", unit="")
    for p in procs:
        mach = heterogeneous_cluster(p)
        opt = run_uts_scioto(
            p, _TREE, machine=mach, seed=1, config=SciotoConfig(termination_opt=True)
        )
        base = run_uts_scioto(
            p, _TREE, machine=mach, seed=1, config=SciotoConfig(termination_opt=False)
        )
        n_opt = sum(s.dirty_msgs for s in opt.per_rank)
        n_base = sum(s.dirty_msgs for s in base.per_rank)
        sent_opt.add(p, n_opt)
        sent_base.add(p, n_base)
        saved.add(p, 1.0 - n_opt / n_base if n_base else 0.0)
    result.series = [sent_opt, sent_base, saved]
    result.notes.append("baseline marks the victim dirty on every steal (§5.3)")
    return result


def run_ablation_chunk(scale: str = "quick") -> SweepResult:
    """A3: UTS throughput vs steal chunk size."""
    p = 8 if scale == "quick" else 32
    result = SweepResult(experiment="ablation-chunk-size")
    thpt = Series(label=f"throughput@{p}procs", unit="Mnodes/s")
    steals = Series(label="steals", unit="")
    for chunk in (1, 2, 5, 10, 20, 50):
        r = run_uts_scioto(
            p, _TREE, machine=heterogeneous_cluster(p), seed=1,
            config=SciotoConfig(chunk_size=chunk),
        )
        thpt.add(chunk, r.throughput / 1e6)
        steals.add(chunk, r.total_steals)
    result.series = [thpt, steals]
    result.notes.append("x axis: chunk size (tasks per steal); paper default 10")
    return result


def run_ablation_affinity(scale: str = "quick") -> SweepResult:
    """A4: TCE owner placement vs round-robin (locality-oblivious)."""
    p = 8 if scale == "quick" else 32
    prob = (
        TCEProblem(nblocks=10, blocksize=48, density=0.4)
        if scale == "quick"
        else TCEProblem(nblocks=16, blocksize=64, density=0.4)
    )
    result = SweepResult(experiment="ablation-affinity-placement")
    runtime = Series(label="runtime", unit="ms")
    remote_acc = Series(label="remote-accumulates", unit="")
    for x, placement in ((0, "owner"), (1, "roundrobin")):
        r = run_tce_scioto(
            p, prob, machine=heterogeneous_cluster(p), seed=1, placement=placement
        )
        runtime.add(x, r.elapsed * 1e3)
        remote_acc.add(x, r.comm.get("acc_remote", 0.0))
    result.series = [runtime, remote_acc]
    result.notes.append("x axis: 0=owner placement, 1=round-robin placement")
    return result


def run_ablation_waitfree(scale: str = "quick") -> SweepResult:
    """A6: locked vs wait-free steal protocol (§8 future work) on UTS."""
    procs = [4, 8, 16] if scale == "quick" else [8, 16, 32, 64]
    result = SweepResult(experiment="ablation-waitfree-steals")
    locked = Series(label="locked-steals", unit="Mnodes/s")
    waitfree = Series(label="wait-free-steals", unit="Mnodes/s")
    for p in procs:
        mach = heterogeneous_cluster(p)
        locked.add(p, run_uts_scioto(p, _TREE, machine=mach, seed=1).throughput / 1e6)
        waitfree.add(
            p,
            run_uts_scioto(
                p, _TREE, machine=mach, seed=1,
                config=SciotoConfig(wait_free_steals=True),
            ).throughput
            / 1e6,
        )
    result.series = [locked, waitfree]
    result.notes.append(
        "wait-free: chunk reservation via one remote atomic, no mutex held"
    )
    return result


def run_ablation_static(scale: str = "quick") -> SweepResult:
    """A5: stealing on vs off under *identical* initial placement (UTS).

    Both runs seed the same breadth-first frontier round-robin across
    ranks (UTS cannot run statically from a single root); the only
    difference is whether work stealing may fix the resulting imbalance
    on the heterogeneous machine.
    """
    procs = [4, 8, 16] if scale == "quick" else [8, 16, 32, 64]
    result = SweepResult(experiment="ablation-static-placement")
    dyn = Series(label="load-balancing-on", unit="Mnodes/s")
    stat = Series(label="load-balancing-off", unit="Mnodes/s")
    for p in procs:
        mach = heterogeneous_cluster(p)
        for series, lb in ((dyn, True), (stat, False)):
            r = run_uts_scioto(
                p, _TREE, machine=mach, seed=1, max_events=20_000_000,
                config=SciotoConfig(load_balancing=lb), frontier=True,
            )
            series.add(p, r.throughput / 1e6)
    result.series = [dyn, stat]
    result.notes.append(
        "both series seed the same breadth-first frontier; only stealing differs"
    )
    return result

"""The paper's shape, checked: one table of claims over the bench results.

A claim says who wins, by roughly what factor, where scaling departs —
the criterion EXPERIMENTS.md judges the reproduction by.  Each is a
name, an experiment (``SweepResult.experiment``), the reason it encodes,
a predicate over that experiment's :class:`SweepResult` and the scales
it applies to.  ``python -m repro.bench`` checks the claims of the
experiments it ran; tier-1 checks every quick claim against the
committed ``BENCH_sim.json``.  Predicates use no ``assert``, so
``python -O`` checks them as well.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.bench.harness import FULL, QUICK
from repro.util.records import SweepResult

__all__ = ["Claim", "CLAIMS"]


@dataclass(frozen=True)
class Claim:
    name: str
    experiment: str
    reason: str
    holds: Callable[[SweepResult], bool]
    scales: tuple[str, ...] = (QUICK, FULL)

    def failure(self, results: Mapping[str, SweepResult]) -> str | None:
        """Why the claim fails on ``results`` (experiment -> sweep); ``None`` if it holds.

        A missing experiment, series label or sweep point is a failure,
        never a vacuous pass.
        """
        result = results.get(self.experiment)
        if result is None:
            return f"{self.name}: no experiment {self.experiment!r} in the results"
        try:
            if self.holds(result):
                return None
        except (LookupError, ValueError) as exc:
            return f"{self.name}: cannot evaluate ({exc.args[0] if exc.args else exc!r})"
        return f"{self.name}: {self.reason}"


_FIG56 = "figure5+6"
_RUNTIMES = ("SCF-runtime", "SCF-Original-runtime", "TCE-runtime", "TCE-Original-runtime")


def _big(r: SweepResult, label: str) -> float:
    return max(r.get(label).xs)


def _grows(r: SweepResult, label: str, factor: float, big: float) -> bool:
    """``label`` at ``big`` exceeds ``factor`` times its value at its smallest x."""
    s = r.get(label)
    return s.y_at(big) > factor * s.y_at(min(s.xs))


CLAIMS: tuple[Claim, ...] = (
    # -- Table 1 -------------------------------------------------------------
    Claim("table1_within_40pct", "table1",
          "measured values must sit within 40% of the paper's on every op",
          lambda r: all(0.6 * r.get(f"{m}-paper").y_at(x) <= r.get(f"{m}-measured").y_at(x)
                        <= 1.4 * r.get(f"{m}-paper").y_at(x)
                        for m in ("cluster", "cray-xt4") for x in r.get(f"{m}-measured").xs)),
    # -- Figure 4 ------------------------------------------------------------
    Claim("fig4_order", "figure4",
          "ordering at every p > 1: termination > ARMCI barrier > MPI barrier",
          lambda r: all(r.get("mpi-barrier").y_at(p) < r.get("armci-barrier").y_at(p)
                        < r.get("scioto-termination").y_at(p)
                        for p in r.get("scioto-termination").xs if p != 1)),
    Claim("fig4_within_8x", "figure4",
          "same order of magnitude: termination under 8x the ARMCI barrier (paper: ~2x)",
          lambda r: all(r.get("scioto-termination").y_at(p) < 8 * r.get("armci-barrier").y_at(p)
                        for p in r.get("scioto-termination").xs if p != 1)),
    Claim("fig4_grows", "figure4", "termination time grows from 2 procs to the largest p",
          lambda r: r.get("scioto-termination").y_at(_big(r, "scioto-termination"))
          > r.get("scioto-termination").y_at(2)),
    Claim("fig4_sublinear", "figure4", "termination time grows sublinearly in p",
          lambda r: r.get("scioto-termination").y_at(_big(r, "scioto-termination"))
          < r.get("scioto-termination").y_at(2) * _big(r, "scioto-termination")),
    # -- Figures 5 and 6 (one experiment) ------------------------------------
    Claim("fig5_all_speed_up", _FIG56, "all configurations speed up",
          lambda r: all(_grows(r, f"{c}-speedup", 1.0, _big(r, "SCF-speedup"))
                        for c in ("SCF", "SCF-Original", "TCE", "TCE-Original"))),
    Claim("fig5_tce_ahead", _FIG56,
          "TCE: Scioto clearly ahead of the counter scheme (paper: ~3x at 64)",
          lambda r: r.get("TCE-speedup").y_at(_big(r, "SCF-speedup"))
          > 1.25 * r.get("TCE-Original-speedup").y_at(_big(r, "SCF-speedup"))),
    Claim("fig5_scf_comparable_small", _FIG56, "SCF: comparable at small scale (within 20%)",
          lambda r: r.get("SCF-speedup").y_at(min(r.get("SCF-speedup").xs))
          > 0.8 * r.get("SCF-Original-speedup").y_at(min(r.get("SCF-speedup").xs))),
    Claim("fig5_scf_ahead_at_64", _FIG56,
          "at the paper's 64 procs the SCF Original flattens behind Scioto",
          lambda r: r.get("SCF-speedup").y_at(_big(r, "SCF-speedup"))
          > r.get("SCF-Original-speedup").y_at(_big(r, "SCF-speedup")),
          scales=(FULL,)),
    Claim("fig6_runtimes_fall", _FIG56,
          "runtimes fall monotonically-ish with process count (paper's log-log falling "
          "lines); allow a 10% wobble between steps",
          lambda r: all(s.y_at(b) < 1.1 * s.y_at(a) for s in map(r.get, _RUNTIMES)
                        for a, b in zip(sorted(s.xs), sorted(s.xs)[1:]))),
    Claim("fig6_tce_faster", _FIG56, "TCE runs faster than TCE-Original at the largest p",
          lambda r: r.get("TCE-runtime").y_at(_big(r, "SCF-runtime"))
          < r.get("TCE-Original-runtime").y_at(_big(r, "SCF-runtime"))),
    # -- Figure 7 ------------------------------------------------------------
    Claim("fig7_split_beats_mpi", "figure7",
          "paper ordering at every scale: Split-Queues > MPI-WS",
          lambda r: all(r.get("Split-Queues").y_at(p) > r.get("MPI-WS").y_at(p)
                        for p in r.get("Split-Queues").xs)),
    Claim("fig7_mpi_beats_nosplit", "figure7", "paper ordering at every scale: MPI-WS > No-Split",
          lambda r: all(r.get("MPI-WS").y_at(p) > r.get("No-Split").y_at(p)
                        for p in r.get("Split-Queues").xs)),
    Claim("fig7_split_vs_locked", "figure7",
          "split queues vs locked queues: roughly a 2x gap at scale (> 1.5x)",
          lambda r: r.get("Split-Queues").y_at(_big(r, "Split-Queues"))
          > 1.5 * r.get("No-Split").y_at(_big(r, "Split-Queues"))),
    Claim("fig7_split_scales", "figure7", "Split-Queues throughput grows with processors (> 2x)",
          lambda r: _grows(r, "Split-Queues", 2.0, _big(r, "Split-Queues"))),
    Claim("fig7_mpi_scales", "figure7", "MPI-WS throughput grows with processors (> 2x)",
          lambda r: _grows(r, "MPI-WS", 2.0, _big(r, "Split-Queues"))),
    # -- Figure 8 ------------------------------------------------------------
    Claim("fig8_scioto_near_mpi", "figure8",
          "comparable performance with Scioto ahead (paper §6.3): Scioto > 0.95x MPI at every p",
          lambda r: all(r.get("UTS-Scioto").y_at(p) > 0.95 * r.get("UTS-MPI").y_at(p)
                        for p in r.get("UTS-Scioto").xs)),
    Claim("fig8_scioto_scales", "figure8", "Scioto throughput grows with processors (> 1.5x)",
          lambda r: _grows(r, "UTS-Scioto", 1.5, _big(r, "UTS-Scioto"))),
    # -- Ablations -----------------------------------------------------------
    Claim("a2_never_more_marks", "ablation-termination-opt",
          "the votes-before rule never sends more dirty marks than the baseline",
          lambda r: all(r.get("dirty-msgs-optimized").y_at(p)
                        <= r.get("dirty-msgs-baseline").y_at(p)
                        for p in r.get("dirty-msgs-optimized").xs)),
    Claim("a2_elides_30pct", "ablation-termination-opt",
          "the optimization must elide a substantial share (> 30%) of dirty marks",
          lambda r: max(r.get("fraction-elided").ys) > 0.3),
    Claim("a3_chunk10_faster", "ablation-chunk-size",
          "chunked steals amortize the transfer: chunk 10 (the paper default) beats chunk 1",
          lambda r: r.series[0].y_at(10) > r.series[0].y_at(1)),
    Claim("a3_chunk10_fewer_steals", "ablation-chunk-size",
          "chunk 10 needs far fewer steal operations (< 0.7x chunk 1's)",
          lambda r: r.get("steals").y_at(10) < 0.7 * r.get("steals").y_at(1)),
    Claim("a4_fewer_remote_accs", "ablation-affinity-placement",
          "owner placement must do far fewer remote accumulates (< 0.6x round-robin's)",
          lambda r: r.get("remote-accumulates").y_at(0)
          < 0.6 * r.get("remote-accumulates").y_at(1)),
    Claim("a4_owner_not_slower", "ablation-affinity-placement",
          "owner placement is at least as fast as the locality-oblivious placement",
          lambda r: r.get("runtime").y_at(0) <= r.get("runtime").y_at(1)),
    Claim("a5_dynamic_wins", "ablation-static-placement",
          "with heterogeneous CPUs and an unbalanced tree, static placement leaves "
          "throughput on the table at scale (> 1.2x)",
          lambda r: r.get("load-balancing-on").y_at(_big(r, "load-balancing-on"))
          > 1.2 * r.get("load-balancing-off").y_at(_big(r, "load-balancing-on"))),
    Claim("a6_waitfree_keeps_pace", "ablation-waitfree-steals",
          "removing the mutex must not cost throughput (> 0.95x locked at the largest p)",
          lambda r: r.get("wait-free-steals").y_at(_big(r, "locked-steals"))
          > 0.95 * r.get("locked-steals").y_at(_big(r, "locked-steals"))),
    # -- Supplement: binomial UTS --------------------------------------------
    Claim("binomial_scioto_beats_mpi", "supplement-binomial-uts",
          "Scioto beats MPI-WS at every p on the binomial tree",
          lambda r: all(r.get("Scioto").y_at(p) > r.get("MPI-WS").y_at(p)
                        for p in r.get("Scioto").xs)),
    Claim("binomial_scioto_scales", "supplement-binomial-uts",
          "Scioto throughput grows with processors (> 1.5x)",
          lambda r: _grows(r, "Scioto", 1.5, _big(r, "Scioto"))),
)

"""Coz-style what-if projection over the causal graph.

Answering "what if steals were twice as fast?" by scaling the steal
histograms and re-summing per-rank totals is wrong in exactly the way
causal profiling exists to fix: most of a category's time is usually
*off* the critical path, and shrinking it there changes nothing.  The
honest version re-schedules the happens-before DAG
(:class:`repro.obs.critpath.CausalGraph`): every cut point's new time
is the max over its dependencies — the previous point on its own rank
plus its (scaled) local segment, and every incoming cross-rank edge's
source plus the edge's (scaled) latency.  The projected makespan is the
latest re-scheduled point.

Two modelling choices, both conservative and both documented in
``docs/observability.md``:

* **Elastic waits.**  A segment that ends at an incoming edge and was
  mostly waiting (idle/lock blame above the same threshold the
  critical-path walk uses) contributes only its non-wait blame locally;
  the wait was slack created by the dependency and stretches or
  shrinks with it.  Segments not released by an edge keep their full
  duration — we cannot know that their idle was caused by anything we
  model, so we refuse to shrink it.
* **Spawn edges order, they do not delay.**  A task's time sitting in a
  queue is scheduler slack, not work; spawn edges therefore project
  with zero latency and only constrain ordering.

With every scale factor at 1.0 the projection reproduces the measured
makespan exactly (each point's measured time is already the max of its
dependencies); with all factors ≤ 1.0 it is monotonically ≤ measured,
which is the sanity property ``repro.obs whatif`` is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.obs.critpath import (
    BLAME_CATEGORIES,
    WAIT_BLAME,
    WAIT_THRESHOLD,
    CausalGraph,
    edge_blame,
)

__all__ = ["Projection", "project", "parse_scales", "render_projection"]


@dataclass
class Projection:
    """Result of re-scheduling the graph under a set of scale factors."""

    scales: dict[str, float]
    measured_makespan: float
    projected_makespan: float
    #: (rank, point-index) -> projected time, for inspection/tests
    times: dict[tuple[int, int], float]

    @property
    def speedup(self) -> float:
        """Measured / projected (1.0 = no change, >1 = faster)."""
        if self.projected_makespan <= 0.0:
            return float("inf") if self.measured_makespan > 0.0 else 1.0
        return self.measured_makespan / self.projected_makespan

    @property
    def saved(self) -> float:
        return self.measured_makespan - self.projected_makespan


def parse_scales(specs: list[str]) -> dict[str, float]:
    """Parse ``category=factor`` CLI arguments into a scales dict."""
    scales: dict[str, float] = {}
    for spec in specs:
        cat, sep, raw = spec.partition("=")
        if not sep:
            raise ValueError(f"bad --scale {spec!r}: expected category=factor")
        if cat not in BLAME_CATEGORIES:
            raise ValueError(
                f"unknown blame category {cat!r}; choose from {BLAME_CATEGORIES}"
            )
        try:
            factor = float(raw)
        except ValueError:
            raise ValueError(f"bad --scale {spec!r}: factor is not a number") from None
        if not 0.0 <= factor < math.inf:  # also refuses nan
            raise ValueError(f"--scale factor must be a finite number >= 0, got {raw}")
        scales[cat] = factor
    return scales


def _segment_cost(
    graph: CausalGraph,
    rank: int,
    seg: int,
    scales: dict[str, float],
    elastic: bool,
) -> float:
    blame = graph.segments[rank][seg]
    cost = 0.0
    for cat, d in blame.items():
        if elastic and cat in WAIT_BLAME:
            continue  # slack behind the releasing edge, not imposed work
        cost += d * scales.get(cat, 1.0)
    return cost


def _edge_cost(edge, scales: dict[str, float]) -> float:
    if edge.kind == "spawn":
        return 0.0  # ordering-only: queue-sit time is slack (module docstring)
    return edge.latency * scales.get(edge_blame(edge), 1.0)


def project(graph: CausalGraph, scales: dict[str, float]) -> Projection:
    """Re-schedule the graph with per-category scale factors applied."""
    # Node (rank, idx) for every cut point; program-order and cross-rank
    # dependencies share one adjacency list of (dst, cost) resolved to
    # node ids up front, so the Kahn loop is dict lookups only.
    indeg: dict[tuple[int, int], int] = {}
    out: dict[tuple[int, int], list[tuple[tuple[int, int], float]]] = {}
    measured: dict[tuple[int, int], float] = {}
    for r in range(graph.nprocs):
        for i, t in enumerate(graph.points[r]):
            node = (r, i)
            measured[node] = t
            indeg[node] = 0 if i == 0 else 1
            if i > 0:
                elastic = (
                    bool(graph.edges_in.get((r, t)))
                    and graph.wait_fraction(r, i - 1) > WAIT_THRESHOLD
                # Past the rank's last activity its timeline is pure
                # window padding — slack, not a constraint.
                ) or graph.points[r][i - 1] >= graph.rank_ends[r]
                cost = _segment_cost(graph, r, i - 1, scales, elastic)
                out.setdefault((r, i - 1), []).append((node, cost))
    for (r, t), edges in graph.edges_in.items():
        dst = (r, graph.point_index(r, t))
        for e in edges:
            src = (e.src_rank, graph.point_index(e.src_rank, e.src_time))
            if src == dst:
                continue  # degenerate zero-latency self-edge
            out.setdefault(src, []).append((dst, _edge_cost(e, scales)))
            indeg[dst] += 1

    times: dict[tuple[int, int], float] = {}
    # Ready heap keyed by measured time (then rank/idx): deterministic
    # order, and measured time is a valid topological key because every
    # dependency's measured time is <= its dependent's.
    ready: list[tuple[float, int, int]] = []
    for node, d in indeg.items():
        if d == 0:
            heappush(ready, (measured[node], node[0], node[1]))
            times[node] = graph.t0

    def settle(node: tuple[int, int]) -> None:
        t = times.setdefault(node, graph.t0)
        for dst, cost in out.get(node, ()):
            arrive = t + cost
            if arrive > times.get(dst, graph.t0):
                times[dst] = arrive
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heappush(ready, (measured[dst], dst[0], dst[1]))

    done = 0
    while ready:
        _, r, i = heappop(ready)
        settle((r, i))
        done += 1
    if done < len(indeg):  # pragma: no cover - defensive (needs an HB cycle)
        # Zero-latency edge pairs could in principle tie into a cycle;
        # fall back to measured-time order, which is causally consistent.
        rest = sorted(
            (n for n, d in indeg.items() if d > 0),
            key=lambda n: (measured[n], n[0], n[1]),
        )
        for node in rest:
            settle(node)

    projected = max(times.values(), default=graph.t0) - graph.t0
    return Projection(
        scales=dict(scales),
        measured_makespan=graph.makespan,
        projected_makespan=projected,
        times=times,
    )


def render_projection(proj: Projection) -> str:
    """One-screen report of a projection."""
    scaled = ", ".join(
        f"{cat}×{f:g}" for cat, f in sorted(proj.scales.items())
    ) or "(no scaling)"
    lines = [
        f"what-if: {scaled}",
        f"  measured makespan : {proj.measured_makespan * 1e6:12.3f} us",
        f"  projected makespan: {proj.projected_makespan * 1e6:12.3f} us",
        f"  projected speedup : {proj.speedup:12.4f}x"
        f"  ({proj.saved * 1e6:+.3f} us saved)",
    ]
    return "\n".join(lines)

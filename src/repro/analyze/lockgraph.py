"""Lock-order-graph deadlock prediction over a captured trace.

Third tier of the predictive analyzer: build a directed graph whose
nodes are mutex names and whose edges record nested acquisition —
``A -> B`` when some rank acquired ``B`` while holding ``A``.  A cycle
in this graph means two ranks can interleave their acquisition chains
into a circular wait, even if the observed run acquired the locks at
disjoint times and never blocked.

Each edge is annotated with its dynamic instances (rank, full held-set
at the inner acquire, trace position), which feeds two classic
false-cycle pruners:

* **Gate lock** — if every edge of a cycle was taken while also holding
  some common *other* lock, the chains are serialized by that gate and
  the cycle cannot close (Goodlock's guarded-cycle rule).
* **Single rank** — a cycle whose every edge instance comes from one
  rank describes that rank's own nesting order, not a cross-rank wait;
  with non-reentrant mutexes the rank would have to block on itself to
  realize it, which the runtime treats as a protocol error, not a
  schedule hazard.

Cycles that survive pruning become ``deadlock`` predictions; the
confirmation stage then steers a replay so the chains actually
interleave (see :mod:`repro.check.witness`), upgrading the report when
the wait-for graph of the monitored run closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.capture import TraceEvent

__all__ = ["LockEdge", "DeadlockFinding", "build_lock_graph", "deadlock_pass"]

#: Bound on reported simple-cycle length; lock cycles beyond a handful
#: of mutexes are noise in practice and explode combinatorially.
_MAX_CYCLE = 4


@dataclass(frozen=True)
class LockEdge:
    """One dynamic nested acquisition: ``dst`` acquired holding ``src``."""

    src: str
    dst: str
    rank: int
    #: Full lockset held at the moment ``dst`` was granted (incl. src).
    held: tuple[str, ...]
    seq: int


@dataclass(frozen=True)
class DeadlockFinding:
    """A lock-order cycle that survived pruning."""

    #: Mutex names along the cycle (cycle[i] held while cycle[i+1] acquired).
    cycle: tuple[str, ...]
    #: One exemplar edge instance per cycle hop.
    edges: tuple[LockEdge, ...]

    def describe(self) -> str:
        hops = " -> ".join(self.cycle + (self.cycle[0],))
        lines = [f"lock-order cycle {hops}:"]
        for e in self.edges:
            lines.append(
                f"    rank {e.rank} acquired {e.dst} holding "
                f"{{{', '.join(e.held)}}} [trace seq {e.seq}]"
            )
        return "\n".join(lines)


def build_lock_graph(events: list[TraceEvent]) -> dict[tuple[str, str], list[LockEdge]]:
    """All nested-acquisition edges, keyed ``(outer, inner)``.

    The ``held`` tuple on an ``acquire`` event lists the locks held at
    the grant, so every element other than the granted lock is an outer
    lock of this acquisition.  The rmw pseudo-locks participate:
    holding a real mutex across a reservation atomic is an ordering
    commitment too.
    """
    edges: dict[tuple[str, str], list[LockEdge]] = {}
    for ev in events:
        if ev.kind != "acquire":
            continue
        inner = ev.data["mutex"]
        for outer in ev.held:
            if outer == inner:
                continue
            edge = LockEdge(
                src=outer,
                dst=inner,
                rank=ev.rank,
                held=ev.held + (inner,),
                seq=ev.seq,
            )
            edges.setdefault((outer, inner), []).append(edge)
    return edges


def _gated(cycle_edges: list[list[LockEdge]], cycle: tuple[str, ...]) -> bool:
    """True when every hop of the cycle is guarded by one common lock."""
    cycle_set = set(cycle)
    gates: set[str] | None = None
    for instances in cycle_edges:
        # A hop is guarded by lock g only if *every* instance of the hop
        # holds g — one unguarded instance is enough to realize the hop.
        hop_gates: set[str] | None = None
        for e in instances:
            outside = set(e.held) - cycle_set
            hop_gates = outside if hop_gates is None else (hop_gates & outside)
        gates = hop_gates if gates is None else (gates & (hop_gates or set()))
        if not gates:
            return False
    return bool(gates)


def _single_rank(cycle_edges: list[list[LockEdge]]) -> bool:
    """True when one rank accounts for every instance of every hop."""
    ranks = {e.rank for instances in cycle_edges for e in instances}
    return len(ranks) <= 1


def deadlock_pass(events: list[TraceEvent]) -> list[DeadlockFinding]:
    """Find lock-order cycles and prune the provably-false ones."""
    edges = build_lock_graph(events)
    adjacency: dict[str, list[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    for dsts in adjacency.values():
        dsts.sort()

    findings: list[DeadlockFinding] = []
    seen: set[tuple[str, ...]] = set()

    def canonical(cycle: tuple[str, ...]) -> tuple[str, ...]:
        pivot = cycle.index(min(cycle))
        return cycle[pivot:] + cycle[:pivot]

    def walk(start: str, node: str, path: tuple[str, ...]) -> None:
        for nxt in adjacency.get(node, ()):
            if nxt == start:
                cycle = canonical(path)
                if cycle in seen:
                    continue
                seen.add(cycle)
                hops = [
                    edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                    for i in range(len(cycle))
                ]
                if _single_rank(hops) or _gated(hops, cycle):
                    continue
                findings.append(
                    DeadlockFinding(
                        cycle=cycle,
                        edges=tuple(min(h, key=lambda e: e.seq) for h in hops),
                    )
                )
            elif nxt not in path and len(path) < _MAX_CYCLE:
                # Only expand from the cycle's minimal node to avoid
                # re-discovering each rotation.
                if nxt > start:
                    walk(start, nxt, path + (nxt,))

    for node in sorted(adjacency):
        walk(node, node, (node,))
    findings.sort(key=lambda f: f.cycle)
    return findings

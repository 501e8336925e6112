"""Cross-rank causal profiling: the happens-before DAG and its critical path.

The span recorder (:mod:`repro.obs.record`) captures two things: per-rank
*spans* (where each rank's virtual time went) and cross-rank *causal
edges* (the synchronization points where one rank's progress depended on
another's — steals, termination tokens, lock grants, task spawns; the
same happens-before relation :mod:`repro.analyze.vectorclock` encodes
for race detection).  This module combines them into a
:class:`CausalGraph` and extracts the **critical path**: the single
chain of activities and cross-rank hops that determined the run's
makespan.  Per-rank aggregates (Figure 5/6-style breakdowns) cannot
answer "what limited the run" — a rank can be 90% busy with work that
was never on the determining chain.  The critical path can, and its
**blame decomposition** splits the makespan exactly into categories
(task work, steal, queue moves, lock wait, termination wave, idle), so
the blamed durations sum to the measured makespan by construction.

Graph model
-----------

* Each rank's timeline is cut at every causal-edge endpoint touching
  it (plus the global window bounds ``t0``/``t1``), producing a chain
  of *segments* per rank, linked in program order.
* A segment's duration is decomposed by the **innermost** span category
  covering each instant (the same containment rule
  :func:`repro.obs.export.self_times` uses), mapped to blame
  categories; uncovered time is ``idle``.  ``comm`` spans are
  transparent: a ``get`` inside a steal blames ``steal``.
* Cross-rank edges connect their source point to their destination
  point; the measured latency is ``dst_time - src_time``.

Critical-path extraction walks backwards from the makespan point.  At
each cut point it either consumes the local segment before it, or —
when that segment was predominantly *waiting* (idle/lock blame) and an
incoming edge ends at the point — hops across the edge to the rank
whose action released the waiter.  Either way the path stays contiguous
in time, which is what makes the blame sum exact.

See ``docs/observability.md`` ("Causal profiling") for the full rules
and :mod:`repro.obs.whatif` for what-if projection over the same graph.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.obs.record import EdgeRecord, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.record import Recorder

__all__ = [
    "BLAME_CATEGORIES",
    "edge_blame",
    "blame_profile",
    "CausalGraph",
    "PathStep",
    "CritPath",
    "critical_path",
]

#: All blame categories a decomposition can produce, in display order.
BLAME_CATEGORIES: tuple[str, ...] = (
    "task", "steal", "queue", "lock", "wave", "comm", "runtime", "idle",
)

#: Span category -> blame category for categories that blame directly.
_PRIMARY_BLAME: dict[str, str] = {
    "task": "task",
    "steal": "steal",
    "queue": "queue",
    "lock": "lock",
    "termination": "wave",
    "idle": "idle",
}

#: Span categories that defer to their enclosing span's blame (a ``get``
#: inside a steal is steal cost; a bare one is generic comm).
_TRANSPARENT: dict[str, str] = {"comm": "comm", "runtime": "runtime"}

#: Blame categories counted as *waiting* when deciding whether a cut
#: point was released by an incoming edge (see the walk rule above).
WAIT_BLAME = frozenset({"idle", "lock"})
#: A segment whose wait share exceeds this was released by its incoming
#: edge: the critical-path walk hops the edge and what-if projection
#: treats the wait as elastic.
WAIT_THRESHOLD = 0.5


def edge_blame(edge: EdgeRecord) -> str:
    """The blame category charged to time spent crossing ``edge``."""
    if edge.kind == "steal":
        return "steal"
    if edge.kind == "lock":
        return "lock"
    if edge.kind in ("dirty",):
        return "wave"
    if edge.kind == "msg":
        # Mailboxes currently carry termination tokens (tag "td:...");
        # any future message kind falls back to generic comm.
        return "wave" if str(edge.detail).startswith("td:") else "comm"
    if edge.kind == "spawn":
        return "task"
    return "comm"


def _chain_blame(chain: list[SpanRecord]) -> str:
    """Blame category for a chain of covering spans, innermost first."""
    for s in chain:
        mapped = _PRIMARY_BLAME.get(s.category)
        if mapped is not None:
            return mapped
    for s in chain:
        mapped = _TRANSPARENT.get(s.category)
        if mapped is not None:
            return mapped
    return _PRIMARY_BLAME.get(chain[0].category, "runtime") if chain else "idle"


def blame_profile(
    spans: list[SpanRecord], t0: float, t1: float
) -> list[tuple[float, float, str]]:
    """Piecewise blame over ``[t0, t1]`` for one rank's finished spans.

    Returns contiguous ``(start, end, category)`` pieces exactly
    covering the window (so piece durations always sum to ``t1 - t0``).
    """
    finished = [
        s for s in spans
        if s.end is not None and s.end > s.start and s.end > t0 and s.start < t1
    ]
    if t1 <= t0:
        return []
    if not finished:
        return [(t0, t1, "idle")]
    bounds = sorted(
        {t0, t1}
        | {max(s.start, t0) for s in finished}
        | {min(s.end, t1) for s in finished}
    )
    finished.sort(key=lambda s: (s.start, -s.end))
    pieces: list[tuple[float, float, str]] = []
    nxt = 0  # next span (by start) not yet activated
    active: list[tuple[float, float, int]] = []  # (-start, end, idx) sorted
    ends: list[tuple[float, int]] = []  # min-heap of (end, idx) for retirement
    alive: set[int] = set()
    for a, b in zip(bounds, bounds[1:]):
        while nxt < len(finished) and finished[nxt].start <= a:
            insort(active, (-finished[nxt].start, finished[nxt].end, nxt))
            heappush(ends, (finished[nxt].end, nxt))
            alive.add(nxt)
            nxt += 1
        while ends and ends[0][0] <= a:
            alive.discard(heappop(ends)[1])
        chain = [finished[i] for (_s, _e, i) in active if i in alive]
        cat = _chain_blame(chain)
        if pieces and pieces[-1][2] == cat and pieces[-1][1] == a:
            pieces[-1] = (pieces[-1][0], b, cat)
        else:
            pieces.append((a, b, cat))
    return pieces


def _interval_blame(
    profile: list[tuple[float, float, str]], a: float, b: float, lo_hint: int
) -> tuple[dict[str, float], int]:
    """Blame decomposition of ``[a, b]`` against a profile; returns the
    piece index to resume from (both walk left to right)."""
    out: dict[str, float] = defaultdict(float)
    i = lo_hint
    while i < len(profile) and profile[i][1] <= a:
        i += 1
    start_hint = i
    while i < len(profile) and profile[i][0] < b:
        s, e, cat = profile[i]
        overlap = min(e, b) - max(s, a)
        if overlap > 0:
            out[cat] += overlap
        i += 1
    return dict(out), start_hint


@dataclass
class CausalGraph:
    """The happens-before DAG of one recorded run."""

    nprocs: int
    t0: float
    t1: float
    #: per rank: strictly increasing cut times, first == t0, last == t1
    points: list[list[float]]
    #: per rank: blame decomposition of segment i = [points[i], points[i+1]]
    segments: list[list[dict[str, float]]]
    #: (rank, time) -> incoming edges ending exactly at that cut point
    edges_in: dict[tuple[int, float], list[EdgeRecord]]
    edges: list[EdgeRecord] = field(default_factory=list)
    #: the rank whose recorded activity actually reaches t1
    end_rank: int = 0
    #: per rank: last span-end/edge-endpoint time — beyond it the rank's
    #: timeline is pure window padding, which the projection treats as
    #: slack (it is not a constraint on anything)
    rank_ends: list[float] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.t1 - self.t0

    @classmethod
    def build(
        cls,
        spans: list[SpanRecord],
        edges: list[EdgeRecord],
        nprocs: int,
    ) -> "CausalGraph":
        """Construct the DAG from a recording's spans and causal edges."""
        finished = [s for s in spans if s.end is not None]
        times = [s.start for s in finished] + [s.end for s in finished]
        times += [e.src_time for e in edges] + [e.dst_time for e in edges]
        if not times:
            t0 = t1 = 0.0
        else:
            t0, t1 = min(times), max(times)
        cuts: list[set[float]] = [{t0, t1} for _ in range(nprocs)]
        # Actual activity per rank (span ends + edge endpoints), as
        # opposed to the forced t0/t1 window padding in ``cuts``.
        activity: list[set[float]] = [set() for _ in range(nprocs)]
        edges_in: dict[tuple[int, float], list[EdgeRecord]] = defaultdict(list)
        for e in edges:
            if 0 <= e.src_rank < nprocs:
                cuts[e.src_rank].add(e.src_time)
                activity[e.src_rank].add(e.src_time)
            if 0 <= e.dst_rank < nprocs:
                cuts[e.dst_rank].add(e.dst_time)
                activity[e.dst_rank].add(e.dst_time)
                edges_in[(e.dst_rank, e.dst_time)].append(e)
        points = [sorted(c) for c in cuts]

        by_rank: list[list[SpanRecord]] = [[] for _ in range(nprocs)]
        for s in finished:
            if 0 <= s.rank < nprocs:
                by_rank[s.rank].append(s)
        segments: list[list[dict[str, float]]] = []
        rank_ends = [t0] * nprocs
        for r in range(nprocs):
            profile = blame_profile(by_rank[r], t0, t1)
            segs: list[dict[str, float]] = []
            hint = 0
            for a, b in zip(points[r], points[r][1:]):
                blame, hint = _interval_blame(profile, a, b, hint)
                segs.append(blame)
            segments.append(segs)
            reach = [t0]
            reach += [s.end for s in by_rank[r]]
            reach += list(activity[r])
            rank_ends[r] = max(reach)
        # Ranks whose own activity reaches t1 (not just the padded window).
        end_rank = 0
        best = -1.0
        for r in range(nprocs):
            if rank_ends[r] > best + 1e-18:
                best = rank_ends[r]
                end_rank = r
        return cls(
            nprocs=nprocs,
            t0=t0,
            t1=t1,
            points=points,
            segments=segments,
            edges_in=dict(edges_in),
            edges=list(edges),
            end_rank=end_rank,
            rank_ends=rank_ends,
        )

    @classmethod
    def from_recorder(cls, recorder: "Recorder") -> "CausalGraph":
        return cls.build(
            recorder.spans, recorder.edges, recorder.engine.nprocs
        )

    # ------------------------------------------------------------------ #
    # Segment queries
    # ------------------------------------------------------------------ #
    def point_index(self, rank: int, time: float) -> int:
        """Index of ``time`` in ``points[rank]`` (must be a cut point)."""
        pts = self.points[rank]
        i = bisect_left(pts, time)
        if i >= len(pts) or pts[i] != time:
            raise ValueError(f"{time!r} is not a cut point of rank {rank}")
        return i

    def wait_fraction(self, rank: int, seg: int) -> float:
        """Share of segment ``seg`` blamed to waiting (idle or lock)."""
        blame = self.segments[rank][seg]
        total = sum(blame.values())
        if total <= 0.0:
            return 1.0  # a zero-length segment imposes no local work
        return sum(blame.get(c, 0.0) for c in WAIT_BLAME) / total


@dataclass(frozen=True)
class PathStep:
    """One contiguous piece of the critical path."""

    kind: str  #: "local" (a rank's own segment) or "edge" (a cross-rank hop)
    rank: int  #: the rank the step's time is charged to (edge: source rank)
    start: float
    end: float
    blame: dict[str, float]
    name: str = ""
    detail: object = None
    dst_rank: int | None = None  #: edge steps: the rank that was released

    @property
    def duration(self) -> float:
        return self.end - self.start

    def describe(self) -> str:
        top = max(self.blame.items(), key=lambda kv: kv[1])[0] if self.blame else "idle"
        span = f"[{self.start * 1e6:.3f} .. {self.end * 1e6:.3f}]"
        if self.kind == "edge":
            return (
                f"rank {self.rank} -> {self.dst_rank}: {self.name} hop "
                f"{self.duration * 1e6:10.3f} us {span} [{top}]"
            )
        return (
            f"rank {self.rank}: {self.name or 'segment'} "
            f"{self.duration * 1e6:10.3f} us {span} [{top}]"
        )


@dataclass
class CritPath:
    """The extracted critical path plus its blame decomposition."""

    steps: list[PathStep]
    t0: float
    t1: float

    @property
    def makespan(self) -> float:
        return self.t1 - self.t0

    def blame(self) -> dict[str, float]:
        """Total blamed duration per category; sums to the makespan."""
        out: dict[str, float] = defaultdict(float)
        for step in self.steps:
            for cat, d in step.blame.items():
                out[cat] += d
        return dict(out)

    def blame_fractions(self) -> dict[str, float]:
        """``blame`` normalized by the makespan (sums to 1.0)."""
        span = self.makespan
        if span <= 0.0:
            return {}
        return {cat: d / span for cat, d in self.blame().items()}

    def hops(self) -> int:
        """Number of cross-rank hops on the path."""
        return sum(1 for s in self.steps if s.kind == "edge")


def _binding_edge(
    graph: CausalGraph, rank: int, time: float
) -> EdgeRecord | None:
    """The incoming edge the backward walk should follow at a point.

    Only candidates that strictly precede the point are eligible (a
    zero-latency edge cannot shorten the path and would not terminate
    the walk); among them the latest source wins — it is the dependency
    that actually gated the release — with rank/id tie-breaks for
    byte-for-byte deterministic output.
    """
    candidates = [
        e for e in graph.edges_in.get((rank, time), []) if e.src_time < time
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda e: (e.src_time, -e.src_rank, -e.eid))


def critical_path(graph: CausalGraph) -> CritPath:
    """Walk the makespan-determining chain backwards through the DAG.

    At each cut point: hop across the binding incoming edge when the
    local segment leading to the point was mostly waiting (blamed
    idle/lock beyond :data:`WAIT_THRESHOLD`), else consume the local
    segment.  The returned steps are time-ordered and contiguous over
    ``[t0, t1]``, so their blamed durations sum to the makespan.
    """
    steps: list[PathStep] = []
    rank, t = graph.end_rank, graph.t1
    guard = sum(len(p) for p in graph.points) + len(graph.edges) + 1
    while t > graph.t0 and guard > 0:
        guard -= 1
        i = graph.point_index(rank, t)
        seg = i - 1
        edge = _binding_edge(graph, rank, t)
        if (
            edge is not None
            and seg >= 0
            and graph.wait_fraction(rank, seg) > WAIT_THRESHOLD
        ):
            steps.append(
                PathStep(
                    kind="edge",
                    rank=edge.src_rank,
                    dst_rank=rank,
                    start=edge.src_time,
                    end=t,
                    blame={edge_blame(edge): t - edge.src_time},
                    name=edge.kind,
                    detail=edge.detail,
                )
            )
            rank, t = edge.src_rank, edge.src_time
            continue
        if seg < 0:  # pragma: no cover - t0 is always each rank's first point
            break
        prev = graph.points[rank][seg]
        steps.append(
            PathStep(
                kind="local",
                rank=rank,
                start=prev,
                end=t,
                blame=dict(graph.segments[rank][seg]),
            )
        )
        t = prev
    steps.reverse()
    return CritPath(steps=steps, t0=graph.t0, t1=graph.t1)


def render_critical_path(
    path: CritPath, graph: CausalGraph, top: int = 12
) -> str:
    """Terminal report: blame table, fractions, and the longest steps."""
    lines = [
        f"critical path: {path.makespan * 1e6:.3f} us makespan, "
        f"{len(path.steps)} steps, {path.hops()} cross-rank hops"
    ]
    blame = path.blame()
    fractions = path.blame_fractions()
    lines.append("")
    lines.append(f"{'category':<10} {'blamed(us)':>14} {'fraction':>10}")
    for cat in BLAME_CATEGORIES:
        if cat not in blame:
            continue
        lines.append(
            f"{cat:<10} {blame[cat] * 1e6:>14.3f} {fractions[cat]:>10.4f}"
        )
    total = sum(blame.values())
    lines.append(
        f"{'total':<10} {total * 1e6:>14.3f} {sum(fractions.values()):>10.4f}"
    )
    longest = sorted(path.steps, key=lambda s: (-s.duration, s.start))[:top]
    lines.append("")
    lines.append(f"longest {len(longest)} steps:")
    for s in longest:
        lines.append(f"  {s.describe()}")
    return "\n".join(lines)

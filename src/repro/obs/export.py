"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, ASCII timeline.

Three views of one recording:

* :func:`chrome_trace` — the Chrome/Perfetto ``trace_event`` format
  (load the file at https://ui.perfetto.dev or ``chrome://tracing``).
  One track (``tid``) per rank, spans as complete (``"ph": "X"``)
  events, marker events as instants (``"ph": "i"``), and cross-rank
  causal edges as flow arrows (``"ph": "s"``/``"f"`` pairs sharing an
  ``id``) — Perfetto draws an arrow from, e.g., the victim-side queue
  release to the thief's steal span.  Spawn edges are omitted by
  default (tens of thousands of arrows hide the interesting ones).
  When a :class:`repro.obs.critpath.CritPath` is passed, its steps are
  rendered as a separate "critical path" process (``pid`` 1) so the
  makespan-determining chain is visible above the rank tracks.
  Timestamps are microseconds of *virtual* time.
* :func:`metrics_dict` — a flat JSON document with counter totals,
  per-rank counters, gauges, and histograms (each carrying its
  mergeable quantile sketch), suitable for diffing between runs.
* :func:`ascii_timeline` + :func:`summary_table` — terminal rendering:
  one row per rank, one character per time bucket, colored by the
  dominant span category, plus a per-rank breakdown of where virtual
  time went.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.record import EdgeRecord, InstantRecord, Recorder, SpanRecord
from repro.util.io import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_dict",
    "write_metrics_json",
    "ascii_timeline",
    "summary_table",
    "self_times",
    "meta_events",
    "span_event",
    "instant_event",
    "flow_event_pair",
    "METRICS_SCHEMA",
    "FLOW_KINDS",
]

#: Schema tag stamped into every metrics JSON document, and the only one
#: :func:`repro.obs.analyze.load_metrics_json` and ``repro.obs diff``
#: accept.  Each histogram carries count/sum/mean/min/max, p50/p95/p99
#: read from its sketch, and the serialized
#: :class:`~repro.obs.metrics.QuantileSketch` under ``sketch``, so
#: sketches from different runs merge into exact percentile estimates
#: (:meth:`~repro.obs.metrics.QuantileSketch.merge_dict`).
METRICS_SCHEMA = "repro-obs-metrics/3"

#: Causal-edge kinds exported as Perfetto flow arrows by default.
FLOW_KINDS: tuple[str, ...] = ("steal", "msg", "lock", "dirty")

#: Category -> single character used by the ASCII timeline, in priority
#: order (earlier wins when a bucket holds several categories).
CATEGORY_CHARS: tuple[tuple[str, str], ...] = (
    ("task", "T"),
    ("steal", "S"),
    ("queue", "Q"),
    ("lock", "L"),
    ("termination", "W"),
    ("comm", "C"),
    ("idle", "i"),
    ("runtime", "r"),
)


def _span_args(span: SpanRecord) -> dict | None:
    if span.detail is None:
        return None
    return {"detail": str(span.detail)}


# ---------------------------------------------------------------------- #
# Shared event builders: one definition of each Chrome event's exact
# shape (and dict key order — the streamed pack in repro.obs.stream
# reuses these to stay byte-identical with the in-memory exporter).
# ---------------------------------------------------------------------- #
def meta_events(nprocs: int) -> list[dict]:
    """Process/thread metadata events for one simulated engine's tracks."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "scioto-sim"},
        }
    ]
    for r in range(nprocs):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": r,
                "args": {"name": f"rank {r}"},
            }
        )
        # Perfetto sorts tracks by this index; keep rank order.
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": r,
                "args": {"sort_index": r},
            }
        )
    return events


def span_event(span: SpanRecord) -> dict:
    """One finished span as a complete (``"ph": "X"``) event."""
    ev = {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": 0,
        "tid": span.rank,
    }
    args = _span_args(span)
    if args is not None:
        ev["args"] = args
    return ev


def instant_event(inst: InstantRecord) -> dict:
    """One marker as a thread-scoped instant (``"ph": "i"``) event."""
    return {
        "name": inst.name,
        "cat": inst.category,
        "ph": "i",
        "s": "t",  # thread-scoped instant
        "ts": inst.time * 1e6,
        "pid": 0,
        "tid": inst.rank,
    }


def flow_event_pair(edge: EdgeRecord) -> tuple[dict, dict]:
    """One causal edge as a Perfetto flow-arrow ``("s", "f")`` pair."""
    base = {
        "name": edge.kind,
        "cat": "causal",
        "id": edge.eid,
        "pid": 0,
    }
    if edge.detail is not None:
        base["args"] = {"detail": str(edge.detail)}
    start = {**base, "ph": "s", "ts": edge.src_time * 1e6, "tid": edge.src_rank}
    # bp:"e" binds the arrow head to the enclosing slice (the steal
    # span / lock-wait span the edge released).
    finish = {
        **base, "ph": "f", "bp": "e", "ts": edge.dst_time * 1e6,
        "tid": edge.dst_rank,
    }
    return start, finish


def chrome_trace(
    recorder: Recorder,
    tracer: "Tracer | None" = None,
    critpath: "object | None" = None,
    flow_kinds: tuple[str, ...] = FLOW_KINDS,
) -> dict:
    """Build a Chrome ``trace_event`` document from a recording.

    Args:
        recorder: The engine's span/metrics recorder.
        tracer: Optional structured-event tracer; its events are added
            as instant events on the owning rank's track.
        critpath: Optional :class:`repro.obs.critpath.CritPath`; its
            steps become a highlighted "critical path" process.
        flow_kinds: Causal-edge kinds to draw as flow arrows.
    """
    events: list[dict] = meta_events(recorder.engine.nprocs)
    span_events = []
    for span in recorder.spans:
        if span.end is None:
            continue  # still open: the run aborted inside this span
        span_events.append(span_event(span))
    # Spans recorded out-of-stack (Recorder.complete_span) are appended
    # at close time; re-sort so each rank's track is start-ordered, with
    # the enclosing span first on ties.
    span_events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    events.extend(span_events)
    for inst in recorder.instants:
        events.append(instant_event(inst))
    if tracer is not None:
        for e in tracer.events:
            events.append(
                {
                    "name": e.kind,
                    "cat": "trace",
                    "ph": "i",
                    "s": "t",
                    "ts": e.time * 1e6,
                    "pid": 0,
                    "tid": e.rank,
                    "args": {} if e.detail is None else {"detail": str(e.detail)},
                }
            )
    flows = 0
    for edge in recorder.edges:
        if edge.kind not in flow_kinds:
            continue
        flows += 1
        start, finish = flow_event_pair(edge)
        events.append(start)
        events.append(finish)
    if critpath is not None:
        events.extend(_critpath_events(critpath))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.obs",
            "spans_recorded": recorder.span_count,
            "spans_dropped": recorder.dropped,
            "edges_recorded": recorder.edge_count,
            "flow_events": flows,
        },
    }


def _critpath_events(critpath) -> list[dict]:
    """Render a ``CritPath`` as its own Perfetto process (``pid`` 1)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "critical path"},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"sort_index": -1},  # above the rank tracks
        },
    ]
    for step in critpath.steps:
        blame = max(step.blame.items(), key=lambda kv: kv[1])[0] if step.blame else "idle"
        name = f"{step.name} hop" if step.kind == "edge" else blame
        events.append(
            {
                "name": name,
                "cat": "critpath",
                "ph": "X",
                "ts": step.start * 1e6,
                "dur": step.duration * 1e6,
                "pid": 1,
                "tid": 0,
                "args": {
                    "rank": step.rank,
                    "kind": step.kind,
                    "blame": blame,
                },
            }
        )
    return events


def write_chrome_trace(
    recorder: Recorder,
    path: str | Path,
    tracer: "Tracer | None" = None,
    critpath: "object | None" = None,
) -> Path:
    """Write the Chrome trace JSON to ``path`` (atomically) and return it."""
    path = Path(path)
    atomic_write_text(
        path, json.dumps(chrome_trace(recorder, tracer, critpath=critpath))
    )
    return path


def metrics_dict(
    recorder: Recorder, process_stats: list[dict] | None = None
) -> dict:
    """Flat metrics document: counters, gauges, histograms, span stats."""
    doc = {
        "schema": METRICS_SCHEMA,
        "nprocs": recorder.engine.nprocs,
        **recorder.metrics.to_dict(),
        "spans": {
            "recorded": recorder.span_count,
            "dropped": recorder.dropped,
            "instants": recorder.instant_count,
            "by_category": dict(sorted(recorder.category_counts.items())),
        },
    }
    if process_stats is not None:
        doc["process_stats"] = process_stats
    return doc


def write_metrics_json(
    recorder: Recorder,
    path: str | Path,
    process_stats: list[dict] | None = None,
) -> Path:
    """Write the metrics JSON to ``path`` (atomically) and return it."""
    path = Path(path)
    atomic_write_text(
        path, json.dumps(metrics_dict(recorder, process_stats), indent=2)
    )
    return path


# ---------------------------------------------------------------------- #
# Terminal rendering
# ---------------------------------------------------------------------- #
def _category_priority() -> dict[str, int]:
    return {cat: i for i, (cat, _) in enumerate(CATEGORY_CHARS)}


def ascii_timeline(
    spans: list[SpanRecord], nprocs: int, width: int = 80
) -> str:
    """One row per rank, one character per time bucket.

    The character is the highest-priority span category active in that
    bucket (``T`` task, ``S`` steal, ``Q`` queue move, ``L`` lock,
    ``W`` termination, ``C`` comm, ``i`` idle, ``.`` nothing recorded).
    """
    finished = [s for s in spans if s.end is not None]
    if not finished:
        return "(no finished spans)"
    t0 = min(s.start for s in finished)
    t1 = max(s.end for s in finished)
    extent = max(t1 - t0, 1e-12)
    prio = _category_priority()
    chars = dict(CATEGORY_CHARS)
    # grid[rank][bucket] = priority index of the best category seen
    grid = [[None] * width for _ in range(nprocs)]
    for s in finished:
        p = prio.get(s.category, len(prio))
        b0 = int((s.start - t0) / extent * width)
        b1 = int((s.end - t0) / extent * width)
        b0 = min(b0, width - 1)
        b1 = min(b1, width - 1)
        row = grid[s.rank]
        for b in range(b0, b1 + 1):
            if row[b] is None or p < row[b]:
                row[b] = p
    cats = [c for c, _ in CATEGORY_CHARS]
    lines = [
        f"timeline: {extent * 1e6:.3f} us across {width} buckets "
        f"({extent / width * 1e6:.3f} us/bucket)"
    ]
    for r in range(nprocs):
        row = "".join(
            "." if p is None else chars.get(cats[p], "?") if p < len(cats) else "?"
            for p in grid[r]
        )
        lines.append(f"rank {r:3d} |{row}|")
    legend = "  ".join(f"{ch}={cat}" for cat, ch in CATEGORY_CHARS)
    lines.append(f"legend: {legend}  .=no span")
    return "\n".join(lines)


def self_times(spans: list[SpanRecord]) -> dict[int, dict[str, float]]:
    """Per-rank exclusive (self) time by category.

    A span's self time is its duration minus its *immediate* children's
    durations, so nested spans are not double counted.  Nesting is
    decided by time containment on each rank's track (the same rule
    Perfetto uses), which also handles spans recorded out-of-stack via
    ``Recorder.complete_span`` (waves, lock waits, ``tc_process``).
    """
    by_rank: dict[int, list[SpanRecord]] = defaultdict(list)
    for s in spans:
        if s.end is not None:
            by_rank[s.rank].append(s)
    out: dict[int, dict[str, float]] = {}
    for rank, rs in by_rank.items():
        # Parents sort before children: earlier start first, and on a
        # tie the longer (enclosing) span first.
        rs.sort(key=lambda s: (s.start, -s.end))
        self_time = [s.duration for s in rs]
        stack: list[int] = []  # indexes into rs, innermost open span last
        for i, s in enumerate(rs):
            while stack and rs[stack[-1]].end <= s.start:
                stack.pop()
            if stack:
                self_time[stack[-1]] -= s.duration
            stack.append(i)
        cat_time: dict[str, float] = defaultdict(float)
        for s, t in zip(rs, self_time):
            cat_time[s.category] += max(t, 0.0)
        out[rank] = dict(cat_time)
    return out


def summary_table(spans: list[SpanRecord], nprocs: int) -> str:
    """Per-rank breakdown of exclusive span time by category."""
    times = self_times(spans)
    cats = sorted({c for v in times.values() for c in v})
    if not cats:
        return "(no finished spans)"
    header = ["rank"] + [f"{c}(us)" for c in cats] + ["spans"]
    counts: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.end is not None:
            counts[s.rank] += 1
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for r in range(nprocs):
        row = [str(r)]
        for c in cats:
            row.append(f"{times.get(r, {}).get(c, 0.0) * 1e6:.3f}")
        row.append(str(counts.get(r, 0)))
        lines.append("  ".join(f"{v:>12}" for v in row))
    return "\n".join(lines)

"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, ASCII timeline.

Three views of one recording:

* :func:`write_chrome_trace` — the Chrome/Perfetto ``trace_event`` format
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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from repro.obs.record import EdgeRecord, InstantRecord, Recorder, SpanRecord
from repro.obs.stream import _span_sort_key
from repro.util.io import atomic_open, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import Tracer

__all__ = [
    "write_chrome_trace",
    "write_trace",
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

#: Trace events encoded per ``json.dumps`` by :func:`write_trace`: one
#: encoder call per block, with memory still constant in run length.
_EVENT_BLOCK = 1024

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
# Event builders and the one writer: each Chrome event's exact shape
# (and dict key order) is defined once, and write_trace emits them for
# both the in-memory export and the streamed pack in repro.obs.stream.
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


#: ``float.__repr__`` of the non-finite floats -> their ``json.dumps`` text.
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _span_event_text(span: SpanRecord) -> str:
    """``json.dumps(span_event(span))`` of a finished span, without the
    dict or the encoder (tested byte for byte)."""
    start, detail = span.start, span.detail
    ts = float.__repr__(start * 1e6)
    dur = float.__repr__((span.end - start) * 1e6)
    args = "" if detail is None else f', "args": {{"detail": {_quote(str(detail))}}}'
    return (
        f'{{"name": {_quote(span.name)}, "cat": {_quote(span.category)}, '
        f'"ph": "X", "ts": {_NONFINITE.get(ts, ts)}, '
        f'"dur": {_NONFINITE.get(dur, dur)}, "pid": 0, "tid": {span.rank}{args}}}'
    )


class _EventWriter:
    """Writes a Chrome ``trace_event`` JSON byte-identically to
    ``json.dumps({"traceEvents": [...], ...})`` without holding the
    event list in memory."""

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh
        self._block: list[dict] = []
        self._texts: list[str] = []  # events already encoded
        self._sep = ""
        self._fh.write('{"traceEvents": [')

    def event(self, ev: dict) -> None:
        if self._texts:
            self._flush()
        self._block.append(ev)
        if len(self._block) >= _EVENT_BLOCK:
            self._flush()

    def text(self, ev: str) -> None:
        """Append one event given as its ``json.dumps`` text."""
        if self._block:
            self._flush()
        self._texts.append(ev)
        if len(self._texts) >= _EVENT_BLOCK:
            self._flush()

    def _flush(self) -> None:
        # At most one of the two blocks is non-empty: each call to
        # ``event``/``text`` flushes the other one first.
        if self._block:
            # The encoded list minus its brackets is the ", "-joined events.
            self._fh.write(self._sep + json.dumps(self._block)[1:-1])
            self._sep = ", "
            self._block.clear()
        elif self._texts:
            self._fh.write(self._sep + ", ".join(self._texts))
            self._sep = ", "
            self._texts.clear()

    def finish(self, trailer: dict) -> None:
        """Close the event array and append the remaining document keys."""
        self._flush()
        self._fh.write("]")
        for key, value in trailer.items():
            self._fh.write(f", {json.dumps(key)}: {json.dumps(value)}")
        self._fh.write("}")


def write_trace(
    path: str | Path,
    nprocs: int,
    spans: Iterable[SpanRecord],
    instants: Iterable[InstantRecord],
    edges: Iterable[EdgeRecord],
    counts: tuple[int, int, int],
    marks: Iterable[dict] = (),
    tail: Iterable[dict] = (),
) -> Path:
    """Stream a Chrome ``trace_event`` JSON to ``path`` (atomically).

    The one writer of Chrome trace events, shared by
    :func:`write_chrome_trace` and :func:`repro.obs.stream.pack`.  It
    writes, in order: the rank tracks' metadata, the ``spans`` (finished
    ones only, given in :func:`~repro.obs.stream._span_sort_key` order),
    the ``instants``, the ready-made ``marks``, one flow-arrow pair per
    edge (the caller passes only :data:`FLOW_KINDS` edges), then the
    ready-made ``tail``.
    ``counts`` is ``(spans recorded, records dropped, edges recorded)``
    for ``otherData``.  Nothing is held beyond one block of events; a
    failure leaves no output behind.
    """
    path = Path(path)
    with atomic_open(path, "w") as fh:
        w = _EventWriter(fh)
        for ev in meta_events(nprocs):
            w.event(ev)
        for span in spans:
            w.text(_span_event_text(span))
        for inst in instants:
            w.event(instant_event(inst))
        for ev in marks:
            w.event(ev)
        flows = 0
        for edge in edges:
            flows += 1
            for ev in flow_event_pair(edge):
                w.event(ev)
        for ev in tail:
            w.event(ev)
        spans_recorded, dropped, edges_recorded = counts
        w.finish(
            {
                "displayTimeUnit": "ns",
                "otherData": {
                    "source": "repro.obs",
                    "spans_recorded": spans_recorded,
                    "spans_dropped": dropped,
                    "edges_recorded": edges_recorded,
                    "flow_events": flows,
                },
            }
        )
    return path


def _trace_mark(event) -> dict:
    """One tracer event as a ``trace`` instant on its rank's track."""
    return {
        "name": event.kind,
        "cat": "trace",
        "ph": "i",
        "s": "t",
        "ts": event.time * 1e6,
        "pid": 0,
        "tid": event.rank,
        "args": {} if event.detail is None else {"detail": str(event.detail)},
    }


def write_chrome_trace(
    recorder: Recorder,
    path: str | Path,
    tracer: "Tracer | None" = None,
    critpath: "object | None" = None,
) -> Path:
    """Write a recording as Chrome trace JSON to ``path`` (atomically).

    Args:
        recorder: The engine's span/metrics recorder.
        tracer: Optional structured-event tracer; its events are added
            as instant events on the owning rank's track.
        critpath: Optional :class:`repro.obs.critpath.CritPath`; its
            steps become a highlighted "critical path" process.

    Causal edges of the :data:`FLOW_KINDS` kinds are drawn as flow arrows.
    """
    # Spans recorded out-of-stack (Recorder.complete_span) are stored at
    # close time; the sort makes each rank's track start-ordered, with
    # the enclosing span first on ties.
    spans = sorted(
        (s for s in recorder.spans if s.end is not None), key=_span_sort_key
    )
    return write_trace(
        path,
        recorder.engine.nprocs,
        spans,
        recorder.instants,
        (e for e in recorder.edges if e.kind in FLOW_KINDS),
        (recorder.span_count, recorder.dropped, recorder.edge_count),
        marks=() if tracer is None else map(_trace_mark, tracer.events),
        tail=() if critpath is None else _critpath_events(critpath),
    )


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

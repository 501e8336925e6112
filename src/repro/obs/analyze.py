"""Post-hoc analysis of exported traces: summaries and critical idle gaps.

Works on the Chrome ``trace_event`` JSON written by
:func:`repro.obs.export.write_chrome_trace`, so analyses can run long
after the simulation exited (or on traces produced elsewhere, as long
as they use ``"ph": "X"`` complete events with numeric ``tid`` tracks).

The headline analysis is :func:`critical_idle`: for each rank, the
longest stretches of virtual time with **no span at all** — the
scheduler was neither executing tasks nor communicating — together with
the spans that bounded the gap on each side.  In a work-stealing
runtime these bounds are almost always a failed steal before the gap
and a successful steal or termination token after it, which is exactly
the signal needed to diagnose steal latency and termination waves
(Figures 4 and 8 of the paper).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.obs.export import METRICS_SCHEMA, ascii_timeline, self_times, summary_table
from repro.obs.record import SpanRecord
from repro.util.io import RecordError, read_record, require

__all__ = [
    "load_chrome_trace",
    "load_metrics_json",
    "percentile_table",
    "IdleGap",
    "critical_idle",
    "summarize",
]

def load_chrome_trace(path: str | Path) -> tuple[list[SpanRecord], dict]:
    """Load the complete ("X") events of a Chrome trace as span records.

    Returns the spans and the trace's ``otherData`` block.  Instant and
    metadata events are skipped; timestamps convert back from
    microseconds to seconds of virtual time.  The trace must be an
    object with a ``traceEvents`` list of event objects, and every
    ``"X"`` event must carry a numeric ``ts``; anything else raises
    :class:`~repro.util.io.RecordError` naming the file.
    """
    doc = read_record(path, None)
    spans: list[SpanRecord] = []
    for ev in require(path, doc, "traceEvents", list):
        if type(ev) is not dict:
            raise RecordError(f"{path}: trace event {ev!r} is not an object")
        if ev.get("ph") != "X":
            continue
        start = require(path, ev, "ts", (int, float)) / 1e6
        spans.append(
            SpanRecord(
                rank=int(ev.get("tid", 0)),
                name=ev.get("name", "?"),
                category=ev.get("cat", "runtime"),
                start=start,
                end=start + ev.get("dur", 0.0) / 1e6,
                detail=(ev.get("args") or {}).get("detail"),
            )
        )
    return spans, doc.get("otherData", {})


def load_metrics_json(path: str | Path) -> dict:
    """Load a metrics JSON document written by :func:`write_metrics_json`.

    Only :data:`~repro.obs.export.METRICS_SCHEMA` is accepted; its
    histograms carry sketch-read ``p50``/``p95``/``p99``.  A torn file,
    a non-object document, any other schema or no ``histograms`` object
    raises :class:`~repro.util.io.RecordError` naming the file.
    """
    doc = read_record(path, METRICS_SCHEMA)
    require(path, doc, "histograms", dict)
    return doc


def percentile_table(histograms: dict[str, dict]) -> str:
    """One row per histogram: count, mean, p50/p95/p99, max.

    Values are printed in the histogram's native unit (seconds for the
    latency metrics, plain counts for chunk/occupancy ones).
    """
    if not histograms:
        return "(no histograms)"
    header = ["histogram", "count", "mean", "p50", "p95", "p99", "max"]
    lines = ["  ".join(f"{h:>14}" for h in header)]
    for name in sorted(histograms):
        h = histograms[name]
        row = [name, str(h.get("count", 0))]
        for key in ("mean", "p50", "p95", "p99", "max"):
            v = h.get(key)
            row.append("-" if v is None else f"{v:.6g}")
        lines.append("  ".join(f"{v:>14}" for v in row))
    return "\n".join(lines)


@dataclass(frozen=True)
class IdleGap:
    """One uncovered stretch of a rank's timeline."""

    rank: int
    start: float
    end: float
    before: str  #: name of the span that ended at the gap's start
    after: str  #: name of the span that started at the gap's end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def describe(self) -> str:
        return (
            f"rank {self.rank}: {self.duration * 1e6:10.3f} us idle "
            f"[{self.start * 1e6:.3f} .. {self.end * 1e6:.3f}] "
            f"after '{self.before}', ended by '{self.after}'"
        )


def _merged_cover(intervals: list[tuple[float, float, str]]) -> list[tuple[float, float, str, str]]:
    """Merge overlapping intervals; keep the last/first span names at the
    merged edges (for gap attribution)."""
    if not intervals:
        return []
    intervals.sort(key=lambda iv: (iv[0], iv[1]))
    merged: list[list] = []
    for start, end, name in intervals:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
                merged[-1][3] = name  # new rightmost span
        else:
            merged.append([start, end, name, name])
    return [(s, e, first, last) for s, e, first, last in merged]


def critical_idle(
    spans: list[SpanRecord], top: int = 5, min_gap: float = 0.0
) -> list[IdleGap]:
    """The ``top`` longest per-rank gaps not covered by any span.

    A gap is bounded by the span activity around it: ``before`` names
    the rightmost span of the covered stretch that precedes the gap,
    ``after`` the first span that ends it.  Gaps are measured inside
    each rank's own recorded extent (before a rank's first span and
    after its last one nothing is known, so nothing is reported).
    """
    by_rank: dict[int, list[tuple[float, float, str]]] = defaultdict(list)
    for s in spans:
        if s.end is not None:
            by_rank[s.rank].append((s.start, s.end, s.name))
    gaps: list[IdleGap] = []
    for rank, intervals in by_rank.items():
        cover = _merged_cover(intervals)
        for (s0, e0, _f0, last), (s1, _e1, first, _l1) in zip(cover, cover[1:]):
            if s1 - e0 > min_gap:
                gaps.append(IdleGap(rank, e0, s1, before=last, after=first))
    gaps.sort(key=lambda g: -g.duration)
    return gaps[:top]


def summarize(spans: list[SpanRecord], width: int = 80, top: int = 5) -> str:
    """Full text report: timeline, per-rank breakdown, longest spans, gaps."""
    finished = [s for s in spans if s.end is not None]
    if not finished:
        return "(trace holds no finished spans)"
    nprocs = max(s.rank for s in finished) + 1
    lines = [ascii_timeline(finished, nprocs, width=width), ""]
    lines.append(summary_table(finished, nprocs))
    lines.append("")
    longest = sorted(finished, key=lambda s: -s.duration)[:top]
    lines.append(f"longest {len(longest)} spans:")
    for s in longest:
        detail = f" ({s.detail})" if s.detail is not None else ""
        lines.append(
            f"  rank {s.rank}: {s.name}{detail} [{s.category}] "
            f"{s.duration * 1e6:.3f} us at {s.start * 1e6:.3f} us"
        )
    lines.append("")
    gaps = critical_idle(finished, top=top)
    if gaps:
        lines.append(f"critical idle gaps (top {len(gaps)}):")
        lines.extend(f"  {g.describe()}" for g in gaps)
    else:
        lines.append("no idle gaps between spans")
    # aggregate category totals
    agg: dict[str, float] = defaultdict(float)
    for per_cat in self_times(finished).values():
        for cat, t in per_cat.items():
            agg[cat] += t
    total = sum(agg.values())
    if total > 0:
        lines.append("")
        lines.append("aggregate self time by category:")
        for cat, t in sorted(agg.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {cat:<12} {t * 1e6:12.3f} us  ({t / total * 100:5.1f}%)")
    return "\n".join(lines)

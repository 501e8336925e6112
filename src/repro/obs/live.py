"""Live telemetry bus: virtual-time interval snapshots as append-only JSONL.

A :class:`TelemetryBus` binds to a :class:`~repro.obs.record.Recorder`
and publishes one *frame* per virtual-time interval: windowed histogram
percentiles (from :class:`~repro.obs.metrics.QuantileSketch` deltas, so
p50/p95/p99 carry the sketch's relative-error bound), counter totals,
gauge occupancy, and the engine's event rate.  Frames are appended to a
JSONL feed (:data:`LIVE_SCHEMA`) with a single ``O_APPEND`` write each
(:func:`repro.util.io.append_text_line`), so a concurrent tailer —
``python -m repro.obs top FEED --follow`` — always sees whole records
while the run is still in flight.

Determinism contract
--------------------

The bus is an *observer* exactly like the recorder: its engine tick
(:attr:`repro.sim.engine.Engine._tick`, fired once per scheduling event
with the event's virtual time) never advances a clock, never touches an
RNG, and emits frames at boundaries derived purely from virtual time.
Two runs of the same scenario produce byte-identical feeds;
``repro.obs verify`` checks that enabling the bus leaves the run
fingerprint unchanged, and the bus is entirely absent (one ``None``
attribute read per event) when not attached.

Frame boundaries are sampled at event granularity: the frame for window
``[t0, t1)`` is emitted when the first event at or after ``t1`` is
picked, and covers every event ticked — and every metric observation
recorded — before that moment.  Intervals in which no event fired emit
no frame (the feed is bounded by activity, not by elapsed virtual time).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.util.io import RecordError, append_text_line, read_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.record import Recorder

__all__ = [
    "LIVE_SCHEMA",
    "DEFAULT_INTERVAL",
    "TelemetryBus",
    "read_feed",
    "validate_feed",
    "latest_frames",
    "render_top",
]

#: Schema tag carried by the meta line of every live feed.
LIVE_SCHEMA = "repro-obs-live/1"

#: Default snapshot interval (virtual seconds) when none is given —
#: 100 µs of simulated time, a few hundred events on the app presets.
DEFAULT_INTERVAL = 100e-6


class TelemetryBus:
    """Publishes interval snapshots of a recorder's metrics to a feed.

    Args:
        path: Feed destination (truncated at bind time; appended per
            frame).
        interval: Virtual-time window length in seconds.
        label: Stream label stamped into the meta line and every frame
            (the target name).
    """

    def __init__(
        self,
        path: str | Path,
        interval: float = DEFAULT_INTERVAL,
        label: str = "run",
    ) -> None:
        if interval <= 0:
            raise ValueError("telemetry interval must be > 0")
        self.path = Path(path)
        self.interval = float(interval)
        self.label = label
        self.frames_emitted = 0
        self.recorder: "Recorder | None" = None
        self._engine = None
        self._t0 = 0.0
        self._last = 0.0
        self._events_prev = 0
        # name -> (sketch snapshot, count, sum) at the last frame boundary
        self._snap: dict[str, tuple[Any, int, float]] = {}
        self._finished = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, recorder: "Recorder") -> None:
        """Attach to ``recorder``'s engine; write the feed's meta line.

        Installs the engine tick; called by the recorder when it is
        constructed with ``live=...``.
        """
        self.recorder = recorder
        self._engine = recorder.engine
        self._engine._tick = self.tick
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A fresh run owns its feed: truncate any stale one, then append.
        self.path.write_text("")
        self._write(
            {
                "schema": LIVE_SCHEMA,
                "kind": "meta",
                "label": self.label,
                "interval": self.interval,
                "nprocs": self._engine.nprocs,
            }
        )

    def tick(self, now: float) -> None:
        """Engine hook: called once per scheduling event with its time."""
        if now > self._last:
            self._last = now
        while now >= self._t0 + self.interval:
            self._close(self._t0 + self.interval)

    def finish(self, t_end: float | None = None) -> None:
        """Emit the trailing (possibly partial) frame (idempotent)."""
        if self._finished:
            return
        self._finished = True
        end = self._last if t_end is None else max(t_end, self._last)
        while end >= self._t0 + self.interval:
            self._close(self._t0 + self.interval)
        if self._engine is not None and self._engine.events > self._events_prev:
            self._close(max(end, self._t0))

    # ------------------------------------------------------------------ #
    # Frame emission
    # ------------------------------------------------------------------ #
    def _close(self, t1: float) -> None:
        assert self.recorder is not None and self._engine is not None
        events = self._engine.events
        d_events = events - self._events_prev
        registry = self.recorder.metrics
        histograms: dict[str, dict] = {}
        for name in sorted(registry.histograms):
            h = registry.histograms[name]
            prev = self._snap.get(name)
            prev_sketch, prev_count, prev_sum = (
                prev if prev is not None else (({}, 0, 0), 0, 0.0)
            )
            dcount = h.count - prev_count
            if dcount:
                dsketch = h.sketch.delta(prev_sketch)
                dsum = h.sum - prev_sum
                histograms[name] = {
                    "count": dcount,
                    "mean": dsum / dcount,
                    "p50": dsketch.quantile(0.50),
                    "p95": dsketch.quantile(0.95),
                    "p99": dsketch.quantile(0.99),
                }
            self._snap[name] = (h.sketch.snapshot(), h.count, h.sum)
        if d_events or histograms:
            span = t1 - self._t0
            gauges = {}
            for gname in sorted(registry.gauges):
                g = registry.gauges[gname]
                if g.last:
                    vals = g.last.values()
                    gauges[gname] = {
                        "lo": min(vals),
                        "hi": max(vals),
                        "n": len(vals),
                    }
            frame = {
                "kind": "frame",
                "label": self.label,
                "seq": self.frames_emitted,
                "t0": self._t0,
                "t1": t1,
                "events": events,
                "d_events": d_events,
                "ev_s": (d_events / span) if span > 0 else 0.0,
                "counters": registry.counters.snapshot(),
                "gauges": gauges,
                "histograms": histograms,
            }
            self._write(frame)
            self.frames_emitted += 1
        self._events_prev = events
        self._t0 = t1

    def _write(self, doc: dict) -> None:
        append_text_line(
            self.path, json.dumps(doc, sort_keys=True, separators=(",", ":"))
        )


# ---------------------------------------------------------------------- #
# Feed reading / validation
# ---------------------------------------------------------------------- #
def read_feed(path: str | Path) -> dict:
    """Parse a live feed into ``{"meta": ..., "frames": [...]}``.

    Tolerates exactly one kind of damage: a torn *final* line (a tailer
    racing the writer, or a crash mid-append) is skipped.  A missing or
    unreadable file, an unparseable line anywhere else, a line that is
    not a JSON object, a second meta line, and a missing or wrong-schema
    meta line raise :class:`~repro.util.io.RecordError`
    (``"<path>:<line>: ..."`` where a line is at fault).
    """
    meta: dict | None = None
    frames: list[dict] = []
    torn: str | None = None
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if torn is not None:
            raise RecordError(torn)  # the bad line was not the last one
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            torn = f"{path}:{lineno}: unparseable line ({exc.msg})"
            continue
        if not isinstance(doc, dict):
            raise RecordError(
                f"{path}:{lineno}: expected a JSON object, "
                f"got {type(doc).__name__}"
            )
        if doc.get("kind") == "meta":
            if meta is not None:
                raise RecordError(f"{path}:{lineno}: second meta line")
            if doc.get("schema") != LIVE_SCHEMA:
                raise RecordError(
                    f"{path}:{lineno}: unsupported live-feed schema "
                    f"{doc.get('schema')!r}; expected {LIVE_SCHEMA}"
                )
            meta = doc
        elif doc.get("kind") == "frame":
            frames.append(doc)
    if meta is None:
        raise RecordError(f"{path}: not a live telemetry feed (no meta line)")
    return {"meta": meta, "frames": frames}


def validate_feed(doc: dict) -> list[str]:
    """Structural checks over a parsed feed; returns problem strings.

    Used by the CI schema gate: an empty list means the feed is a valid
    ``repro-obs-live/1`` document.
    """
    problems: list[str] = []
    meta = doc.get("meta") or {}
    if meta.get("schema") != LIVE_SCHEMA:
        problems.append(f"meta schema is {meta.get('schema')!r}")
    if not isinstance(meta.get("interval"), (int, float)) or meta.get("interval", 0) <= 0:
        problems.append(f"meta interval is {meta.get('interval')!r}")
    prev_t1: dict[str, float] = {}
    prev_seq: dict[str, int] = {}
    for i, frame in enumerate(doc.get("frames", ())):
        where = f"frame {i}"
        for key in ("label", "seq", "t0", "t1", "events", "d_events", "histograms"):
            if key not in frame:
                problems.append(f"{where}: missing {key!r}")
        t0, t1 = frame.get("t0"), frame.get("t1")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
            if not t0 < t1:
                problems.append(f"{where}: empty window [{t0}, {t1})")
            stream = str(frame.get("label"))
            if t0 < prev_t1.get(stream, 0.0):
                problems.append(f"{where}: window overlaps previous ({stream})")
            prev_t1[stream] = t1 if isinstance(t1, float) else float(t1)
            seq = frame.get("seq")
            if isinstance(seq, int):
                if seq <= prev_seq.get(stream, -1):
                    problems.append(f"{where}: seq not increasing ({stream})")
                prev_seq[stream] = seq
        for name, h in (frame.get("histograms") or {}).items():
            for key in ("count", "p50", "p95", "p99"):
                if key not in h:
                    problems.append(f"{where}: histogram {name!r} missing {key!r}")
    return problems


# ---------------------------------------------------------------------- #
# Terminal rendering (repro.obs top)
# ---------------------------------------------------------------------- #
def latest_frames(doc: dict) -> list[dict]:
    """The most recent frame of each labelled stream, sorted by label."""
    latest: dict[str, dict] = {}
    for frame in doc.get("frames", ()):
        latest[str(frame.get("label"))] = frame
    return [latest[k] for k in sorted(latest)]


def _fmt_seconds(v: float | None) -> str:
    if v is None:
        return "-"
    if v >= 1.0:
        return f"{v:.3g}s"
    if v >= 1e-3:
        return f"{v * 1e3:.3g}ms"
    if v >= 1e-6:
        return f"{v * 1e6:.3g}us"
    return f"{v * 1e9:.3g}ns"


def _fmt_value(name: str, v: float | None) -> str:
    # Latency-style metrics are seconds; count-style ones are unitless.
    if any(h in name for h in ("chunk", "occupancy", "events", "jobs")):
        return "-" if v is None else f"{v:.4g}"
    return _fmt_seconds(v)


#: Counters shown per frame by :func:`render_top`, largest first.
TOP_COUNTERS = 6


def render_top(doc: dict) -> str:
    """One status table over the latest frame(s) of a feed."""
    frames = latest_frames(doc)
    if not frames:
        return "telemetry feed: no frames yet"
    lines: list[str] = []
    interval = doc.get("meta", {}).get("interval")
    for frame in frames:
        lines.append(
            f"{frame.get('label', '?')}: t={_fmt_seconds(frame.get('t1'))} virtual  "
            f"frame #{frame.get('seq')}  events={frame.get('events')}  "
            f"window ev/s={frame.get('ev_s', 0.0):.4g}"
            + (f"  (interval {_fmt_seconds(interval)})" if interval else "")
        )
        hists = frame.get("histograms") or {}
        if hists:
            name_w = max(len(n) for n in hists) + 2
            lines.append(
                f"  {'metric'.ljust(name_w)}{'count':>8}{'mean':>10}"
                f"{'p50':>10}{'p95':>10}{'p99':>10}"
            )
            for name in sorted(hists):
                h = hists[name]
                lines.append(
                    f"  {name.ljust(name_w)}{h.get('count', 0):>8}"
                    f"{_fmt_value(name, h.get('mean')):>10}"
                    f"{_fmt_value(name, h.get('p50')):>10}"
                    f"{_fmt_value(name, h.get('p95')):>10}"
                    f"{_fmt_value(name, h.get('p99')):>10}"
                )
        gauges = frame.get("gauges") or {}
        for gname in sorted(gauges):
            g = gauges[gname]
            lines.append(
                f"  {gname}: lo={g.get('lo'):g} hi={g.get('hi'):g} "
                f"(over {g.get('n')} ranks)"
            )
        counters = frame.get("counters") or {}
        if counters:
            top = sorted(counters.items(), key=lambda kv: -kv[1])[:TOP_COUNTERS]
            lines.append(
                "  counters: "
                + "  ".join(f"{k}={v:g}" for k, v in top)
            )
        lines.append("")
    return "\n".join(lines).rstrip()

"""Streaming span sinks: bounded-memory spill, sharded JSONL, trace pack.

The :class:`~repro.obs.record.Recorder` does not own its storage any
more — it pushes records into a :class:`SpanSink`:

* :class:`MemorySink` (the default) is the historical in-memory list
  behaviour, bit-for-bit: spans are appended at *open* time (so list
  index equals the span's stable ``sid``), instants and edges append in
  emission order, and the ``capacity`` bound drops-and-counts exactly
  as before.
* :class:`SpillSink` holds **no** completed records in memory: it
  buffers up to ``shard_size`` records and flushes them as sharded
  JSONL files (``spans-00000.jsonl`` …) in a spill directory, written
  atomically via :func:`repro.util.io.atomic_write_text`.  A footer
  ``index.json`` (schema :data:`STREAM_SCHEMA`) is sealed at the end of
  the run.  Recorder memory is bounded by the open-span stacks plus one
  shard buffer, independent of run length — this is what lets a
  million-event run be recorded at all (ROADMAP item 3).
* :class:`NullSink` stores nothing; it exists so the flight recorder
  (:mod:`repro.obs.flight`) can tap the completed-span stream without
  any retention.

Span shards are written **pre-sorted by the Chrome-trace event order**
``(tid, ts, -dur, sid)``, so :func:`pack` can produce a byte-identical
Chrome ``trace_event`` JSON with a constant-memory k-way merge over the
shard files — the packed bytes equal what
:func:`repro.obs.export.write_chrome_trace` writes for the same run
recorded in memory (tested on every check scenario).  Instants and
edges are order-preserving streams, so their shards concatenate.

Spill directories hold the *span* stream; the companion *metrics*
stream — interval telemetry frames — is the live feed of
:mod:`repro.obs.live`.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from repro.obs.record import EdgeRecord, InstantRecord, SpanRecord
from repro.util.io import RecordError, atomic_write_text, read_record, require

__all__ = [
    "STREAM_SCHEMA",
    "SpanSink",
    "MemorySink",
    "SpillSink",
    "NullSink",
    "TeeSink",
    "SpillReader",
    "pack",
]

#: Schema tag sealed into every spill directory's ``index.json``.
STREAM_SCHEMA = "repro-obs-stream/1"

#: Default records per shard file.  Bounds both the sink's buffer and
#: the per-shard sort cost; 32k span records is ~4 MB of JSONL.
DEFAULT_SHARD_SIZE = 32_768

#: Shard lines parsed per ``json.loads`` and trace events encoded per
#: ``json.dumps`` in :func:`pack`: one codec call per block instead of
#: one per record, with memory still constant in run length.
_BLOCK = 1024


def _span_sort_key(span: SpanRecord) -> tuple:
    """The Chrome-trace global span order: ``(tid, ts, -dur, sid)``.

    Computed with the exact float expressions the exporter uses for
    ``ts``/``dur``, so the shard merge reproduces the in-memory stable
    sort (which is sid-ordered input under key ``(tid, ts, -dur)``).
    """
    return (
        span.rank,
        span.start * 1e6,
        -(span.duration * 1e6),
        span.sid,
    )


class SpanSink:
    """Protocol for recorder storage; subclasses override what they keep.

    The recorder calls ``on_open`` when a span begins, ``on_close`` when
    it completes (``end`` is set), ``on_complete`` for out-of-stack
    completed spans, and ``on_instant``/``on_edge`` for the other record
    kinds.  ``accepts_*`` lets a bounded sink refuse a record *before*
    the recorder allocates it (the refusal is counted as a drop).
    """

    def accepts_span(self) -> bool:
        return True

    def accepts_instant(self) -> bool:
        return True

    def accepts_edge(self) -> bool:
        return True

    def on_open(self, span: SpanRecord) -> None:
        pass

    def on_close(self, span: SpanRecord) -> None:
        pass

    def on_complete(self, span: SpanRecord) -> None:
        pass

    def on_instant(self, inst: InstantRecord) -> None:
        pass

    def on_edge(self, edge: EdgeRecord) -> None:
        pass

    def seal(self, footer: dict) -> None:
        """Finish the stream (flush buffers, write the footer index)."""

    # -- full-stream reads (fingerprints, small-run analysis) ----------- #
    def span_stream(self) -> list[SpanRecord]:
        """Every recorded span in ``sid`` (emission) order."""
        raise NotImplementedError

    def instant_stream(self) -> list[InstantRecord]:
        raise NotImplementedError

    def edge_stream(self) -> list[EdgeRecord]:
        raise NotImplementedError


class MemorySink(SpanSink):
    """The historical in-memory storage: plain lists, capacity-bounded."""

    def __init__(self, capacity: int = 2_000_000) -> None:
        self.capacity = capacity
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.edges: list[EdgeRecord] = []

    def accepts_span(self) -> bool:
        return len(self.spans) < self.capacity

    def accepts_instant(self) -> bool:
        return len(self.instants) < self.capacity

    def accepts_edge(self) -> bool:
        return len(self.edges) < self.capacity

    def on_open(self, span: SpanRecord) -> None:
        # Appending at open keeps list index == sid, which is what makes
        # ``parent`` usable as an index into ``Recorder.spans``.
        self.spans.append(span)

    def on_complete(self, span: SpanRecord) -> None:
        self.spans.append(span)

    def on_instant(self, inst: InstantRecord) -> None:
        self.instants.append(inst)

    def on_edge(self, edge: EdgeRecord) -> None:
        self.edges.append(edge)

    def span_stream(self) -> list[SpanRecord]:
        return self.spans

    def instant_stream(self) -> list[InstantRecord]:
        return self.instants

    def edge_stream(self) -> list[EdgeRecord]:
        return self.edges


class NullSink(SpanSink):
    """Keeps nothing.  Used when only side-taps (flight rings) matter."""

    def span_stream(self) -> list[SpanRecord]:
        return []

    def instant_stream(self) -> list[InstantRecord]:
        return []

    def edge_stream(self) -> list[EdgeRecord]:
        return []


class TeeSink(SpanSink):
    """Duplicates one recording into several sinks.

    A record is accepted only if *every* child accepts it, so the drop
    decision (and the recorder's sid allocation) is shared — each child
    sees the exact same stream.  Reads delegate to the first child.
    The equivalence tests use this to record one run into a
    :class:`MemorySink` and a :class:`SpillSink` simultaneously, which
    is the only way to compare the two paths byte-for-byte (two
    *separate* runs differ in task uids carried in span details).
    """

    def __init__(self, *sinks: SpanSink) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = sinks

    def accepts_span(self) -> bool:
        return all(s.accepts_span() for s in self.sinks)

    def accepts_instant(self) -> bool:
        return all(s.accepts_instant() for s in self.sinks)

    def accepts_edge(self) -> bool:
        return all(s.accepts_edge() for s in self.sinks)

    def on_open(self, span: SpanRecord) -> None:
        for s in self.sinks:
            s.on_open(span)

    def on_close(self, span: SpanRecord) -> None:
        for s in self.sinks:
            s.on_close(span)

    def on_complete(self, span: SpanRecord) -> None:
        for s in self.sinks:
            s.on_complete(span)

    def on_instant(self, inst: InstantRecord) -> None:
        for s in self.sinks:
            s.on_instant(inst)

    def on_edge(self, edge: EdgeRecord) -> None:
        for s in self.sinks:
            s.on_edge(edge)

    def seal(self, footer: dict) -> None:
        for s in self.sinks:
            s.seal(footer)

    def span_stream(self) -> list[SpanRecord]:
        return self.sinks[0].span_stream()

    def instant_stream(self) -> list[InstantRecord]:
        return self.sinks[0].instant_stream()

    def edge_stream(self) -> list[EdgeRecord]:
        return self.sinks[0].edge_stream()


# The three line formatters write exactly the bytes ``json.dumps`` gives
# for the same list (tested byte for byte), without building an encoder
# per record.
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _num(x: float | int | None) -> str:
    if x is None:
        return "null"
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NONFINITE.get(text, text)
    return int.__repr__(x)


def _detail(detail: Any) -> str:
    return "null" if detail is None else _quote(str(detail))


def _span_line(span: SpanRecord) -> str:
    return (
        f"[{span.sid}, {span.rank}, {_quote(span.name)}, {_quote(span.category)}, "
        f"{_num(span.start)}, {_num(span.end)}, {span.depth}, {_num(span.parent)}, "
        f"{_detail(span.detail)}]"
    )


def _instant_line(inst: InstantRecord) -> str:
    return (
        f"[{_num(inst.time)}, {inst.rank}, {_quote(inst.name)}, "
        f"{_quote(inst.category)}, {_detail(inst.detail)}]"
    )


def _edge_line(edge: EdgeRecord) -> str:
    return (
        f"[{edge.eid}, {_quote(edge.kind)}, {edge.src_rank}, {_num(edge.src_time)}, "
        f"{edge.dst_rank}, {_num(edge.dst_time)}, {_detail(edge.detail)}]"
    )


def _span_from_line(fields: list) -> SpanRecord:
    sid, rank, name, category, start, end, depth, parent, detail = fields
    return SpanRecord(rank, name, category, start, end, depth, parent, detail, sid)


def _instant_from_line(fields: list) -> InstantRecord:
    time, rank, name, category, detail = fields
    return InstantRecord(time, rank, name, category, detail)


def _edge_from_line(fields: list) -> EdgeRecord:
    eid, kind, src_rank, src_time, dst_rank, dst_time, detail = fields
    return EdgeRecord(eid, kind, src_rank, src_time, dst_rank, dst_time, detail)


class SpillSink(SpanSink):
    """Constant-memory sink: sharded JSONL spill under one directory.

    Completed records are formatted as they arrive and buffer, as
    lines, up to ``shard_size`` before flushing as one atomically
    written shard file (strings are invisible to the cyclic collector;
    a buffer of record objects is re-scanned by every full collection).
    Span lines carry their :func:`_span_sort_key` and are sorted by it
    before writing so :func:`pack` can k-way merge shards without
    materializing the run; instant/edge shards preserve emission order.
    Detail payloads are stringified exactly the way the Chrome exporter
    would (``str(detail)``).
    """

    def __init__(
        self, directory: str | Path, shard_size: int = DEFAULT_SHARD_SIZE
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_size = shard_size
        self._bufs: dict[str, list] = {"spans": [], "instants": [], "edges": []}
        self.shards: dict[str, list[dict]] = {"spans": [], "instants": [], "edges": []}
        self.sealed = False

    # -- recorder interface -------------------------------------------- #
    def on_close(self, span: SpanRecord) -> None:
        self._push("spans", (*_span_sort_key(span), _span_line(span)))

    def on_complete(self, span: SpanRecord) -> None:
        self._push("spans", (*_span_sort_key(span), _span_line(span)))

    def on_instant(self, inst: InstantRecord) -> None:
        self._push("instants", _instant_line(inst))

    def on_edge(self, edge: EdgeRecord) -> None:
        self._push("edges", _edge_line(edge))

    def _push(self, kind: str, entry: "str | tuple") -> None:
        buf = self._bufs[kind]
        buf.append(entry)
        if len(buf) >= self.shard_size:
            self._flush(kind)

    def _flush(self, kind: str) -> None:
        buf = self._bufs[kind]
        if not buf:
            return
        lines = buf
        if kind == "spans":
            buf.sort()  # sids are unique, so the line itself never compares
            lines = [entry[-1] for entry in buf]
        name = f"{kind}-{len(self.shards[kind]):05d}.jsonl"
        atomic_write_text(self.directory / name, "\n".join(lines) + "\n")
        self.shards[kind].append({"file": name, "count": len(buf)})
        buf.clear()

    def flush(self) -> None:
        """Flush every pending buffer to shard files."""
        for kind in ("spans", "instants", "edges"):
            self._flush(kind)

    def seal(self, footer: dict) -> None:
        """Write the footer ``index.json`` (idempotent; atomic)."""
        self.flush()
        doc = {
            "schema": STREAM_SCHEMA,
            **footer,
            "shards": self.shards,
        }
        atomic_write_text(self.directory / "index.json", json.dumps(doc, indent=2))
        self.sealed = True

    # -- full-stream reads --------------------------------------------- #
    def _reader(self) -> "SpillReader":
        self.flush()
        return SpillReader(self.directory, shards=self.shards)

    def span_stream(self) -> list[SpanRecord]:
        spans = list(self._reader().iter_spans())
        spans.sort(key=lambda s: s.sid)
        return spans

    def instant_stream(self) -> list[InstantRecord]:
        return list(self._reader().iter_instants())

    def edge_stream(self) -> list[EdgeRecord]:
        return list(self._reader().iter_edges())


def _parse_block(path: Path, first_lineno: int, lines: list[str]) -> list[list]:
    """Parse a block of shard lines with one ``json.loads``.

    A block that does not parse as a whole is re-parsed line by line
    (blank lines skipped) so the error can name the offending line.
    """
    try:
        rows = json.loads(f"[{','.join(lines)}]")
        if len(rows) == len(lines):
            return rows
    except json.JSONDecodeError:
        pass
    rows = []
    for lineno, line in enumerate(lines, first_lineno):
        if line.strip():
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{lineno}: {exc}") from None
    return rows


class SpillReader:
    """Read-side of a spill directory (sealed or mid-write)."""

    def __init__(self, directory: str | Path, shards: dict | None = None) -> None:
        """Read ``directory``'s sealed ``index.json``, or, mid-write, take
        the sink's own ``shards`` list (there is no index yet)."""
        self.directory = Path(directory)
        self.index: dict = {}
        if shards is None:
            path = self.directory / "index.json"
            self.index = read_record(path, STREAM_SCHEMA)
            shards = require(path, self.index, "shards", dict)
            for kind in ("spans", "instants", "edges"):
                for shard in require(path, shards, kind, list):
                    require(path, shard, "file", str)
                    require(path, shard, "count", int)
        self.shards = shards

    @property
    def nprocs(self) -> int:
        return int(self.index.get("nprocs", 0))

    def _iter_shard(self, shard: dict, make: Callable[[list], Any]) -> Iterator:
        """One shard's records, ``_BLOCK`` lines per parse.

        Raises :class:`~repro.util.io.RecordError` naming the shard file
        on a file that cannot be read, a line that does not parse (with
        its line number) or a row that is not a record and, at the end
        of the shard, on a row count that disagrees with the index — a
        truncated spill must not pack as if it were whole.
        """
        path = self.directory / shard["file"]
        lineno = rows_seen = 0
        try:
            with open(path, "r") as fh:
                while lines := list(islice(fh, _BLOCK)):
                    rows = _parse_block(path, lineno + 1, lines)
                    lineno += len(lines)
                    rows_seen += len(rows)
                    yield from map(make, rows)
        except RecordError:
            raise
        except (OSError, ValueError, TypeError) as exc:
            raise RecordError(f"{path}: unreadable shard ({exc})") from None
        if rows_seen != shard["count"]:
            raise RecordError(
                f"{path}: index.json records {shard['count']} records in this "
                f"shard, the file holds {rows_seen} (truncated or edited spill)"
            )

    def iter_spans_merged(self) -> Iterator[SpanRecord]:
        """All spans in Chrome-trace order: k-way merge of sorted shards."""
        streams = [self._iter_shard(sh, _span_from_line) for sh in self.shards["spans"]]
        return heapq.merge(*streams, key=_span_sort_key)

    def iter_spans(self) -> Iterator[SpanRecord]:
        """All spans, shard order (use ``sorted(..., key=sid)`` for stream order)."""
        for sh in self.shards["spans"]:
            yield from self._iter_shard(sh, _span_from_line)

    def iter_instants(self) -> Iterator[InstantRecord]:
        for sh in self.shards["instants"]:
            yield from self._iter_shard(sh, _instant_from_line)

    def iter_edges(self) -> Iterator[EdgeRecord]:
        for sh in self.shards["edges"]:
            yield from self._iter_shard(sh, _edge_from_line)

    def load(self) -> tuple[list[SpanRecord], list[InstantRecord], list[EdgeRecord]]:
        """Materialize the full stream (for small-run analysis/verify)."""
        spans = sorted(self.iter_spans(), key=lambda s: s.sid)
        return spans, list(self.iter_instants()), list(self.iter_edges())


# ---------------------------------------------------------------------- #
# Streaming pack: spill directory -> Chrome trace JSON, constant memory
# ---------------------------------------------------------------------- #
class _EventWriter:
    """Writes a Chrome ``trace_event`` JSON byte-identically to
    ``json.dumps({"traceEvents": [...], ...})`` without holding the
    event list in memory."""

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh
        self._block: list[dict] = []
        self._sep = ""
        self._fh.write('{"traceEvents": [')

    def event(self, ev: dict) -> None:
        self._block.append(ev)
        if len(self._block) >= _BLOCK:
            self._flush()

    def _flush(self) -> None:
        if self._block:
            # The encoded list minus its brackets is the ", "-joined events.
            self._fh.write(self._sep + json.dumps(self._block)[1:-1])
            self._sep = ", "
            self._block.clear()

    def finish(self, trailer: dict) -> None:
        """Close the event array and append the remaining document keys."""
        self._flush()
        self._fh.write("]")
        for key, value in trailer.items():
            self._fh.write(f", {json.dumps(key)}: {json.dumps(value)}")
        self._fh.write("}")


def _atomic_stream(path: Path):
    """(fd-backed file handle, publish callable) for atomic streaming."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    fh = os.fdopen(fd, "w")

    def publish() -> None:
        fh.close()
        os.replace(tmp_name, path)

    def discard() -> None:
        try:
            fh.close()
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    return fh, publish, discard


def pack(
    spill_dir: str | Path,
    out_path: str | Path,
    flow_kinds: tuple[str, ...] | None = None,
) -> Path:
    """Convert a sealed spill directory into a Chrome trace JSON.

    Streams shard files straight into the output (constant memory) and
    produces bytes identical to
    :func:`repro.obs.export.write_chrome_trace` over the same run
    recorded with a :class:`MemorySink` (without a tracer or critical
    path attached).  The output is published atomically; a spill that
    fails to read (:class:`SpillReader`) leaves no output behind.
    """
    # Imported here: export imports record, stream must stay importable
    # from record's siblings without a cycle.
    from repro.obs.export import (
        FLOW_KINDS,
        flow_event_pair,
        instant_event,
        meta_events,
        span_event,
    )

    if flow_kinds is None:
        flow_kinds = FLOW_KINDS
    reader = SpillReader(spill_dir)
    out_path = Path(out_path)
    fh, publish, discard = _atomic_stream(out_path)
    try:
        w = _EventWriter(fh)
        for ev in meta_events(reader.nprocs):
            w.event(ev)
        for span in reader.iter_spans_merged():
            if span.end is not None:
                w.event(span_event(span))
        for inst in reader.iter_instants():
            w.event(instant_event(inst))
        flows = 0
        for edge in reader.iter_edges():
            if edge.kind in flow_kinds:
                flows += 1
                for ev in flow_event_pair(edge):
                    w.event(ev)
        w.finish(
            {
                "displayTimeUnit": "ns",
                "otherData": {
                    "source": "repro.obs",
                    "spans_recorded": reader.index.get("spans", 0),
                    "spans_dropped": reader.index.get("dropped", 0),
                    "edges_recorded": reader.index.get("edges", 0),
                    "flow_events": flows,
                },
            }
        )
        publish()
    except BaseException:
        discard()
        raise
    return out_path

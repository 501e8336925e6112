"""Streaming span sinks: bounded-memory spill, sharded JSONL, trace pack.

The :class:`~repro.obs.record.Recorder` does not own its storage any
more — it pushes records into a :class:`SpanSink`:

* :class:`MemorySink` (the default) is the historical in-memory list
  behaviour, bit-for-bit: spans are appended at *open* time (so list
  index equals the span's stable ``sid``), instants and edges append in
  emission order, and its ``capacity`` bounds each record kind (the
  recorder counts every record past it as dropped).
* :class:`SpillSink` holds **no** completed records in memory: it
  buffers up to ``shard_size`` records and flushes them as sharded
  JSONL files (``spans-00000.jsonl`` …) in a spill directory, written
  atomically via :func:`repro.util.io.atomic_write_text`.  A footer
  ``index.json`` (schema :data:`STREAM_SCHEMA`) is sealed at the end of
  the run.  Recorder memory is bounded by the open-span stacks plus one
  shard buffer, independent of run length — this is what lets a
  million-event run be recorded at all (ROADMAP item 3).

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
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Container, Iterator

from repro.obs.record import EdgeRecord, InstantRecord, SpanRecord
from repro.util.io import RecordError, atomic_write_text, read_record, require

__all__ = [
    "STREAM_SCHEMA",
    "SpanSink",
    "MemorySink",
    "SpillSink",
    "TeeSink",
    "SpillReader",
    "pack",
]

#: Schema tag sealed into every spill directory's ``index.json``.
STREAM_SCHEMA = "repro-obs-stream/1"

#: Default records per shard file.  Bounds both the sink's buffer and
#: the per-shard sort cost; 32k span records is ~4 MB of JSONL.
DEFAULT_SHARD_SIZE = 32_768

#: Shard lines parsed per ``json.loads`` in :func:`pack`: one codec
#: call per block instead of one per record, with memory still constant
#: in run length.
_BLOCK = 1024


def _span_sort_key(span: SpanRecord) -> tuple:
    """The Chrome-trace global span order: ``(tid, ts, -dur, sid)``.

    Computed with the exact float expressions the exporter uses for
    ``ts``/``dur``.  The shard merge and the in-memory export both
    order spans by it, so they write the same bytes.
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
    kinds.

    :attr:`capacity` is the one loss rule: the number of records of each
    kind the sink keeps (None keeps all).  The recorder refuses every
    record past it before allocating one, and counts each refusal in
    its ``dropped_*`` tallies.
    """

    capacity: int | None = None

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


class TeeSink(SpanSink):
    """Duplicates one recording into several sinks.

    Its capacity is the smallest child capacity, so the drop decision
    (and the recorder's sid allocation) is shared — each child sees the
    exact same stream.  Reads delegate to the first child.
    The equivalence tests use this to record one run into a
    :class:`MemorySink` and a :class:`SpillSink` simultaneously, which
    is the only way to compare the two paths byte-for-byte (two
    *separate* runs differ in task uids carried in span details).
    """

    def __init__(self, *sinks: SpanSink) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = sinks
        caps = [s.capacity for s in sinks if s.capacity is not None]
        self.capacity = min(caps, default=None)

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


# The line formatters write exactly the bytes ``json.dumps`` gives for
# the same list (tested byte for byte), without building an encoder per
# record.  ``SpillSink.on_close``/``on_edge`` inline the float case and
# fall back to these for any other number type.
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

    It keeps every record it is given (``capacity`` None).

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
        start, end, parent, detail = span.start, span.end, span.parent, span.detail
        buf = self._bufs["spans"]
        try:
            s, e = float.__repr__(start), float.__repr__(end)
        except TypeError:  # not float times; the recorder's clocks always are
            buf.append((*_span_sort_key(span), _span_line(span)))
        else:
            # the _span_sort_key fields, then the line
            buf.append((
                span.rank, start * 1e6, -((end - start) * 1e6), span.sid,
                f"[{span.sid}, {span.rank}, {_quote(span.name)}, "
                f"{_quote(span.category)}, {_NONFINITE.get(s, s)}, "
                f"{_NONFINITE.get(e, e)}, {span.depth}, "
                f"{'null' if parent is None else parent}, "
                f"{'null' if detail is None else _quote(str(detail))}]",
            ))
        if len(buf) >= self.shard_size:
            self._flush("spans")

    on_complete = on_close

    def on_instant(self, inst: InstantRecord) -> None:
        buf = self._bufs["instants"]
        buf.append(_instant_line(inst))
        if len(buf) >= self.shard_size:
            self._flush("instants")

    def on_edge(self, edge: EdgeRecord) -> None:
        eid, kind, src_rank, src_time, dst_rank, dst_time, detail = edge
        try:
            s, d = float.__repr__(src_time), float.__repr__(dst_time)
        except TypeError:  # not float times; the recorder's clocks always are
            line = _edge_line(edge)
        else:
            line = (
                f"[{eid}, {_quote(kind)}, {src_rank}, {_NONFINITE.get(s, s)}, "
                f"{dst_rank}, {_NONFINITE.get(d, d)}, "
                f"{'null' if detail is None else _quote(str(detail))}]"
            )
        buf = self._bufs["edges"]
        buf.append(line)
        if len(buf) >= self.shard_size:
            self._flush("edges")

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

    def _iter_shard(
        self,
        shard: dict,
        make: Callable[[list], Any],
        keep: Callable[[list], bool] | None = None,
    ) -> Iterator:
        """One shard's records, ``_BLOCK`` lines per parse; with ``keep``,
        only the rows it accepts become records (every row still counts).

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
                    yield from map(make, rows if keep is None else filter(keep, rows))
        except RecordError:
            raise
        except (OSError, ValueError, TypeError, IndexError) as exc:
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

    def iter_edges(self, kinds: Container[str] | None = None) -> Iterator[EdgeRecord]:
        """All edges in emission order, or only those of ``kinds``."""
        keep = None if kinds is None else (lambda row: row[1] in kinds)
        for sh in self.shards["edges"]:
            yield from self._iter_shard(sh, _edge_from_line, keep)

    def load(self) -> tuple[list[SpanRecord], list[InstantRecord], list[EdgeRecord]]:
        """Materialize the full stream (for small-run analysis/verify)."""
        spans = sorted(self.iter_spans(), key=lambda s: s.sid)
        return spans, list(self.iter_instants()), list(self.iter_edges())


# ---------------------------------------------------------------------- #
# Streaming pack: spill directory -> Chrome trace JSON, constant memory
# ---------------------------------------------------------------------- #
def pack(spill_dir: str | Path, out_path: str | Path) -> Path:
    """Convert a sealed spill directory into a Chrome trace JSON.

    Streams the k-way merged span shards and the instant and edge
    shards through :func:`repro.obs.export.write_trace`, the writer
    :func:`~repro.obs.export.write_chrome_trace` uses too, so memory is
    constant in run length and the bytes equal what the in-memory
    export writes for the same run recorded with a :class:`MemorySink`
    (without a tracer or critical path attached).  Span shards hold
    closed spans only (:class:`SpillSink` writes a span when it closes).
    The output is published atomically; a spill that fails to read
    (:class:`SpillReader`) leaves no output behind.
    """
    # Imported here: export imports this module.
    from repro.obs.export import FLOW_KINDS, write_trace

    reader = SpillReader(spill_dir)
    idx = reader.index
    return write_trace(
        out_path,
        reader.nprocs,
        reader.iter_spans_merged(),
        reader.iter_instants(),
        reader.iter_edges(FLOW_KINDS),
        (idx.get("spans", 0), idx.get("dropped", 0), idx.get("edges", 0)),
    )

"""Streaming span sinks: bounded-memory spill, binary shards, trace pack.

The :class:`~repro.obs.record.Recorder` does not own its storage any
more — it pushes records into a :class:`SpanSink`:

* :class:`MemorySink` (the default) is the historical in-memory list
  behaviour, bit-for-bit: spans are appended at *open* time (so list
  index equals the span's stable ``sid``), instants and edges append in
  emission order, and its ``capacity`` bounds each record kind (the
  recorder counts every record past it as dropped).
* :class:`SpillSink` holds **no** completed records in memory beyond
  one buffer: it buffers up to ``shard_size`` records per kind and
  flushes them as binary shard files (``spans-00000.bin`` …) in a spill
  directory, written atomically via
  :func:`repro.util.io.atomic_write_bytes`.  A footer ``index.json``
  (schema :data:`STREAM_SCHEMA`) is sealed at the end of the run.
  Recorder memory is bounded by the open-span stacks plus one shard
  buffer, independent of run length — this is what lets a
  million-event run be recorded at all.

A shard is a string table and fixed-width rows of int64/float64
fields (see :data:`_ROWS`): the only reader is :class:`SpillReader`, so
no number is formatted as text until :func:`pack` writes it once into
the Chrome trace.  Span shards are written **pre-sorted by the
Chrome-trace event order** ``(tid, ts, -dur, sid)``, so :func:`pack`
can produce a byte-identical Chrome ``trace_event`` JSON with a
constant-memory k-way merge over the shard files — the packed bytes
equal what :func:`repro.obs.export.write_chrome_trace` writes for the
same run recorded in memory (tested on every check scenario).  Instants
and edges are order-preserving streams, so their shards concatenate.

Spill directories hold the *span* stream; the companion *metrics*
stream — interval telemetry frames — is the live feed of
:mod:`repro.obs.live`.
"""

from __future__ import annotations

import heapq
import json
import os
from functools import partial
from pathlib import Path
from struct import Struct
from struct import error as StructError
from typing import Callable, Container, Iterator

from repro.obs.record import EdgeRecord, InstantRecord, SpanRecord
from repro.util.io import (
    RecordError,
    atomic_write_bytes,
    atomic_write_text,
    read_record,
    require,
)

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
STREAM_SCHEMA = "repro-obs-stream/2"

#: Default records per shard file.  Bounds both the sink's buffer and
#: the per-shard sort cost; 32k span records is ~2.4 MB of rows.
DEFAULT_SHARD_SIZE = 32_768

#: Shard rows unpacked per read: memory per open shard is its string
#: table plus one block, never the run.
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


# ---------------------------------------------------------------------- #
# Shard files
# ---------------------------------------------------------------------- #
#: A shard file is an int64 byte count ``n``, then ``n`` bytes of string
#: table (the ASCII ``json.dumps`` of a list holding each name,
#: category, edge kind and ``str(detail)`` of the shard once), then one
#: fixed-width row per record.  A row names a string by its table
#: index; -1 stands for a ``None`` detail or parent.  All fields are
#: little-endian int64 (``q``) or float64 (``d``), so every float comes
#: back with the bits it was written with.
_HEAD = Struct("<q")
_ROWS = {
    # sid, rank, name, category, start, end, depth, parent, detail
    "spans": Struct("<qqqqddqqq"),
    # time, rank, name, category, detail
    "instants": Struct("<dqqqq"),
    # eid, kind, src_rank, src_time, dst_rank, dst_time, detail
    "edges": Struct("<qqqdqdq"),
}


def _write_shard(path: Path, kind: str, records: list) -> None:
    """Write ``records`` (of ``kind``) as one shard file at ``path``.

    Rows are packed into one preallocated body, so the transient memory
    of a flush is the body and the string table, not a bytes object per
    record.
    """
    ids: dict[str, int] = {}
    intern = ids.setdefault
    row = _ROWS[kind]
    body = bytearray(len(records) * row.size)
    put = partial(row.pack_into, body)
    offsets = range(0, len(body), row.size)
    if kind == "spans":
        for at, s in zip(offsets, records):
            put(
                at, s.sid, s.rank, intern(s.name, len(ids)), intern(s.category, len(ids)),
                s.start, s.end, s.depth, -1 if s.parent is None else s.parent,
                -1 if s.detail is None else intern(str(s.detail), len(ids)),
            )
    elif kind == "instants":
        for at, (time, rank, name, cat, detail) in zip(offsets, records):
            put(at, time, rank, intern(name, len(ids)), intern(cat, len(ids)),
                -1 if detail is None else intern(str(detail), len(ids)))
    else:
        for at, (eid, ek, src_rank, src_time, dst_rank, dst_time, detail) in zip(
            offsets, records
        ):
            put(at, eid, intern(ek, len(ids)), src_rank, src_time, dst_rank, dst_time,
                -1 if detail is None else intern(str(detail), len(ids)))
    table = json.dumps(list(ids)).encode("ascii")
    atomic_write_bytes(path, _HEAD.pack(len(table)), table, body)


def _spans(rows: Iterator[tuple], names: dict, details: dict) -> Iterator[SpanRecord]:
    for sid, rank, name, cat, start, end, depth, parent, detail in rows:
        yield SpanRecord(
            rank, names[name], names[cat], start, end, depth,
            None if parent < 0 else parent, details[detail], sid,
        )


def _instants(rows: Iterator[tuple], names: dict, details: dict) -> Iterator[InstantRecord]:
    for time, rank, name, cat, detail in rows:
        yield InstantRecord(time, rank, names[name], names[cat], details[detail])


def _edges(kinds: Container[str] | None) -> Callable[..., Iterator[EdgeRecord]]:
    """An edge builder keeping only ``kinds`` (all with None); a dropped
    row is judged on its kind alone and never becomes a record."""

    def build(rows: Iterator[tuple], names: dict, details: dict) -> Iterator[EdgeRecord]:
        for eid, ek, src_rank, src_time, dst_rank, dst_time, detail in rows:
            ek = names[ek]
            if kinds is None or ek in kinds:
                yield EdgeRecord(
                    eid, ek, src_rank, src_time, dst_rank, dst_time, details[detail]
                )

    return build


class SpillSink(SpanSink):
    """Constant-memory sink: binary shard files under one directory.

    It keeps every record it is given (``capacity`` None).

    Completed records buffer as the objects the recorder built, up to
    ``shard_size`` per kind, and flush as one atomically written shard
    file: nothing is formatted per record.  Spans are sorted by
    :func:`_span_sort_key` at flush so :func:`pack` can k-way merge
    shards without materializing the run; instant/edge shards preserve
    emission order.  Details are stored as ``str(detail)``, the text the
    Chrome exporter writes.
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
        buf = self._bufs["spans"]
        buf.append(span)
        if len(buf) >= self.shard_size:
            self._flush("spans")

    on_complete = on_close

    def on_instant(self, inst: InstantRecord) -> None:
        buf = self._bufs["instants"]
        buf.append(inst)
        if len(buf) >= self.shard_size:
            self._flush("instants")

    def on_edge(self, edge: EdgeRecord) -> None:
        buf = self._bufs["edges"]
        buf.append(edge)
        if len(buf) >= self.shard_size:
            self._flush("edges")

    def _flush(self, kind: str) -> None:
        buf = self._bufs[kind]
        if not buf:
            return
        if kind == "spans":
            buf.sort(key=_span_sort_key)
        name = f"{kind}-{len(self.shards[kind]):05d}.bin"
        _write_shard(self.directory / name, kind, buf)
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

    def _iter_shard(self, kind: str, shard: dict, build: Callable[..., Iterator]) -> Iterator:
        """One shard's records, unpacked ``_BLOCK`` rows per read and
        made into records by ``build(rows, names, details)``.

        Raises :class:`~repro.util.io.RecordError` naming the shard file,
        before the first record, on a file that cannot be read, a string
        table that does not parse and on a row count that disagrees with
        the index (a truncated spill must not pack as if it were whole);
        and on a row that names a string the table does not hold.
        """
        path = self.directory / shard["file"]
        row = _ROWS[kind]
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size - _HEAD.size
                (n,) = _HEAD.unpack(fh.read(_HEAD.size))
                if not 0 <= n <= size:
                    raise RecordError(
                        f"{path}: damaged string table ({n} bytes declared, "
                        f"{size} in the file)"
                    )
                strings = json.loads(fh.read(n))
                if type(strings) is not list or not all(type(t) is str for t in strings):
                    raise RecordError(f"{path}: damaged string table")
                rows, stray = divmod(size - n, row.size)
                if rows != shard["count"] or stray:
                    raise RecordError(
                        f"{path}: index.json records {shard['count']} records in "
                        f"this shard, the file holds {rows}"
                        f"{' and a partial row' if stray else ''} "
                        "(truncated or edited spill)"
                    )
                names = dict(enumerate(strings))
                details = {**names, -1: None}
                while block := fh.read(_BLOCK * row.size):
                    yield from build(row.iter_unpack(block), names, details)
        except RecordError:
            raise
        except KeyError as exc:
            raise RecordError(
                f"{path}: a row names string {exc}, the table holds {len(strings)}"
            ) from None
        except (OSError, ValueError, StructError) as exc:
            raise RecordError(f"{path}: unreadable shard ({exc})") from None

    def iter_spans_merged(self) -> Iterator[SpanRecord]:
        """All spans in Chrome-trace order: k-way merge of sorted shards."""
        streams = [self._iter_shard("spans", sh, _spans) for sh in self.shards["spans"]]
        return heapq.merge(*streams, key=_span_sort_key)

    def iter_spans(self) -> Iterator[SpanRecord]:
        """All spans, shard order (use ``sorted(..., key=sid)`` for stream order)."""
        for sh in self.shards["spans"]:
            yield from self._iter_shard("spans", sh, _spans)

    def iter_instants(self) -> Iterator[InstantRecord]:
        for sh in self.shards["instants"]:
            yield from self._iter_shard("instants", sh, _instants)

    def iter_edges(self, kinds: Container[str] | None = None) -> Iterator[EdgeRecord]:
        """All edges in emission order, or only those of ``kinds``."""
        build = _edges(kinds)
        for sh in self.shards["edges"]:
            yield from self._iter_shard("edges", sh, build)

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

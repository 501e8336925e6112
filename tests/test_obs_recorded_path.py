"""The recorded path after its per-record diet: same bytes, typed failures.

* a spill round-trips every field of every record kind (floats bit for
  bit), and ``pack`` writes the bytes the in-memory export writes;
* sha256 goldens of every spill file and of the packed trace; the
  packed digests date from the last commit that wrote one
  ``json.dumps`` per record;
* records are still immutable, picklable and drop-counted per kind;
* a truncated or damaged spill fails with a ``RecordError`` that names
  the shard (it used to pack as if whole).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle
import struct
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task, TaskCollection
from repro.core.task import reset_uids
from repro.obs import export, stream
from repro.obs.__main__ import main as obs_main
from repro.obs.export import span_event
from repro.obs.record import EdgeRecord, InstantRecord, Recorder, SpanRecord, span
from repro.obs.scenarios import run_target
from repro.obs.stream import MemorySink, SpillReader, SpillSink, TeeSink, pack
from repro.obs.tracing import TraceEvent, Tracer
from repro.sim.engine import Engine
from repro.util.io import RecordError

# ---------------------------------------------------------------------- #
# Spill round trip and the one text encoding
# ---------------------------------------------------------------------- #
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e-07, 1e22, 1.5e-05,
                     math.inf, -math.inf, math.nan]),
)
ints = st.integers(min_value=-(2**70), max_value=2**70)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)  # the spill's int field
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['q"uote', "back\\slash", "tab\tnl\n\x00\x1f", "héllo ☃ \U0001f600",
                     "\ud800", "lone \udfff surrogate"]),
)
details = st.one_of(st.none(), ints, texts, st.tuples(ints, texts))
parents = st.one_of(st.none(), st.integers(min_value=0, max_value=2**63 - 1))
spans_st = st.lists(
    st.builds(SpanRecord, int64s, texts, texts, floats, floats, int64s, parents,
              details, int64s),
    max_size=12, unique_by=lambda s: s.sid,
)
instants_st = st.lists(st.builds(InstantRecord, floats, int64s, texts, texts, details),
                       max_size=6)
edges_st = st.lists(
    st.builds(EdgeRecord, int64s, st.one_of(st.sampled_from(["steal", "msg", "spawn"]), texts),
              int64s, floats, int64s, floats, details),
    max_size=12,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=120, deadline=None)
@given(spans_st, instants_st, edges_st)
def test_spill_round_trips_every_field_and_packs_the_exported_bytes(spans, instants, edges):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        memory = MemorySink()
        # one shard per kind (pack equals the export even for NaN keys),
        # and shards of two records (many files, many merges)
        tee = TeeSink(memory, SpillSink(tmp / "one"), SpillSink(tmp / "many", shard_size=2))
        for s in spans:
            tee.on_open(s)
            tee.on_close(s)
        for i in instants:
            tee.on_instant(i)
        for e in edges:
            tee.on_edge(e)
        footer = {"nprocs": 4, "spans": len(spans), "dropped": 0, "edges": len(edges)}
        tee.seal(footer)

        def text(detail):
            return None if detail is None else str(detail)

        got_spans, got_instants, got_edges = SpillReader(tmp / "many").load()
        assert [
            (s.sid, s.rank, s.name, s.category, _bits(s.start), _bits(s.end), s.depth,
             s.parent, s.detail) for s in got_spans
        ] == [
            (s.sid, s.rank, s.name, s.category, _bits(s.start), _bits(s.end), s.depth,
             s.parent, text(s.detail)) for s in sorted(spans, key=lambda s: s.sid)
        ]
        assert [(_bits(i.time), *i[1:4], i.detail) for i in got_instants] == [
            (_bits(i.time), *i[1:4], text(i.detail)) for i in instants
        ]
        assert [
            (e.eid, e.kind, e.src_rank, _bits(e.src_time), e.dst_rank, _bits(e.dst_time),
             e.detail) for e in got_edges
        ] == [
            (e.eid, e.kind, e.src_rank, _bits(e.src_time), e.dst_rank, _bits(e.dst_time),
             text(e.detail)) for e in edges
        ]

        recorder = SimpleNamespace(
            spans=memory.spans, instants=memory.instants, edges=memory.edges,
            engine=SimpleNamespace(nprocs=4), span_count=len(spans), dropped=0,
            edge_count=len(edges),
        )
        exported = export.write_chrome_trace(recorder, tmp / "memory.json")
        packed = pack(tmp / "one", tmp / "packed.json")
        assert packed.read_bytes() == exported.read_bytes()


@settings(max_examples=300, deadline=None)
@given(ints, texts, texts, floats, floats, details)
def test_pack_span_event_text_is_json_dumps(rank, name, cat, start, end, detail):
    span = SpanRecord(rank, name, cat, start, end, 0, None, detail, 0)
    assert export._span_event_text(span) == json.dumps(span_event(span))


BLOCK = export._EVENT_BLOCK


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_event_writer_batches_are_json_dumps(n):
    events = [
        {"name": f"n{i}", "ph": "X", "ts": i * 1e-3, "args": {"detail": 'q"\\ ☃'}}
        for i in range(n)
    ]
    trailer = {"displayTimeUnit": "ns", "otherData": {"source": "t", "flow_events": n}}
    fh = io.StringIO()
    w = export._EventWriter(fh)
    for ev in events:
        w.event(ev)
    w.finish(trailer)
    assert fh.getvalue() == json.dumps({"traceEvents": events, **trailer})


def test_event_writer_mixes_text_and_dict_events_in_order():
    events = [{"a": i} for i in range(3)] + [{"t": i} for i in range(BLOCK + 2)]
    events += [{"b": 1}]
    fh = io.StringIO()
    w = export._EventWriter(fh)
    for ev in events:
        if "t" in ev:
            w.text(json.dumps(ev))
        else:
            w.event(ev)
    w.finish({"k": 1})
    assert fh.getvalue() == json.dumps({"traceEvents": events, "k": 1})


# ---------------------------------------------------------------------- #
# Goldens from the parent commit
# ---------------------------------------------------------------------- #
#: (target, seed, shard_size) -> (digest of every spill file, digest of the
#: packed trace), after ``reset_uids()``.  ``shard_size=64`` makes ``pack``
#: k-way merge many shards; queue/queue-wf record fewer than 64 spans.
#: The spill digests are of the binary ``repro-obs-stream/2`` shards; the
#: packed digests are unchanged since the JSONL spill.
SPILL_GOLDEN = {
    ("uts-small", 41, None): ("f5ba144cf8d4ba41", "e446ada0011f0a5c"),
    ("uts-small", 41, 64): ("b7d1dfb847166fec", "e446ada0011f0a5c"),
    ("graph", 0, None): ("8f35a3a13c203fd0", "a7d8fcb0736accc7"),
    ("graph", 0, 64): ("bc807eadb35e1bf3", "a7d8fcb0736accc7"),
    ("queue", 0, None): ("91ea6894cb1c8717", "95d837a0f602bcb6"),
    ("queue", 0, 64): ("91ea6894cb1c8717", "95d837a0f602bcb6"),
    ("queue-wf", 0, None): ("2c0714418080329a", "9c8a1ec01f05f2a8"),
    ("queue-wf", 0, 64): ("2c0714418080329a", "9c8a1ec01f05f2a8"),
    ("steals", 0, None): ("fe26916f2391a24a", "92e9aebc347be817"),
    ("steals", 0, 64): ("085c2424ab245026", "92e9aebc347be817"),
    ("termination", 0, None): ("d4899135035fdbf1", "b1798af56d3f59fd"),
    ("termination", 0, 64): ("96f47b6e9bbc6aa2", "b1798af56d3f59fd"),
    ("waitfree", 0, None): ("4279a78e06065c50", "08e04fdbaf4288c2"),
    ("waitfree", 0, 64): ("ffc5ad0166061c7b", "08e04fdbaf4288c2"),
}


@pytest.mark.parametrize("case", sorted(SPILL_GOLDEN, key=str))
def test_spill_and_packed_bytes_match_parent(case, tmp_path):
    target, seed, shard_size = case
    spill = tmp_path / "spill"
    reset_uids()
    run_target(target, nprocs=4, seed=seed, stream_dir=spill, shard_size=shard_size)
    files = hashlib.sha256()
    for path in sorted(spill.iterdir()):
        files.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    packed = pack(spill, tmp_path / "trace.json")
    got = (files.hexdigest()[:16], hashlib.sha256(packed.read_bytes()).hexdigest()[:16])
    assert got == SPILL_GOLDEN[case]


#: argv -> digest of the Chrome trace ``repro.obs`` writes from an
#: in-memory recording, after ``reset_uids()``.  Unlike the packed
#: traces above these carry the tracer's instants (``run``) and the
#: critical-path process (``critpath``).
MEMORY_TRACE_GOLDEN = {
    ("run", "steals"): "fede0ff9c1a812c5",
    ("critpath", "steals"): "ec3f9ca5c5d77348",
}


@pytest.mark.parametrize("argv", sorted(MEMORY_TRACE_GOLDEN), ids="-".join)
def test_in_memory_trace_bytes_match_parent(argv, tmp_path):
    path = tmp_path / "trace.json"
    reset_uids()
    assert obs_main([*argv, "--trace", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digest == MEMORY_TRACE_GOLDEN[argv]


# ---------------------------------------------------------------------- #
# Record semantics
# ---------------------------------------------------------------------- #
RECORDS = [
    TraceEvent(1.5e-6, 2, "q-push", (2, 17)),
    InstantRecord(1.5e-6, 2, "dirty", "termination", "wave 3"),
    EdgeRecord(4, "steal", 1, 1e-6, 2, 3e-6, (17, 18)),
    SpanRecord(2, "task", "task", 1e-6, 3e-6, 1, 0, 17, 5),
]


@pytest.mark.parametrize("rec", RECORDS[:3], ids=lambda r: type(r).__name__)
def test_row_records_are_immutable(rec):
    with pytest.raises(AttributeError):
        rec.detail = "changed"
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_round_trip_through_pickle(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec


def test_edge_latency_and_span_duration_survive():
    assert RECORDS[2].latency == 3e-6 - 1e-6
    assert EdgeRecord(0, "msg", 0, 5.0, 1, 4.0).latency == 0.0  # clamped
    assert RECORDS[3].duration == 3e-6 - 1e-6
    with pytest.raises(AttributeError):
        RECORDS[3].extra = 1  # slotted: no per-instance dict


def test_tracer_events_are_rows_in_emission_order():
    run = run_target("steals")
    events = run.tracer.events
    assert events and all(type(e) is TraceEvent for e in events)
    assert events == run.tracer.events  # a view: rebuilt per access, equal
    assert sum(Counter(e.kind for e in run.tracer.events).values()) == len(events)
    assert [e.time for e in run.tracer.events if e.rank == 0] == sorted(
        e.time for e in events if e.rank == 0
    )


def test_recorder_overflow_counts_drops_per_kind():
    rec = run_target("steals", sink=MemorySink(capacity=2)).recorder
    assert (len(rec.spans), len(rec.edges)) == (2, 2)
    assert rec.dropped_spans > 0 and rec.dropped_edges > 0
    full = run_target("steals").recorder
    assert rec.dropped_spans == full.span_count - 2
    assert rec.dropped_edges == full.edge_count - 2
    assert rec.dropped_instants == max(full.instant_count - 2, 0)


# ---------------------------------------------------------------------- #
# Corrupt spills fail typed
# ---------------------------------------------------------------------- #
def _spill(tmp_path, edges: int = 0):
    """A sealed spill of the ``steals`` scenario (or of ``edges`` synthetic
    edge rows, enough of them to span several parse blocks)."""
    spill = tmp_path / "spill"
    if not edges:
        run_target("steals", stream_dir=spill)
        return spill
    sink = SpillSink(spill)
    for i in range(edges):
        sink.on_edge(EdgeRecord(i, "steal", 0, i * 1e-6, 1, i * 1e-6 + 5e-7, i))
    sink.seal({"nprocs": 2, "spans": 0, "instants": 0, "edges": edges, "dropped": 0})
    return spill


def _truncate(spill, kind: str, keep: int, extra: int = 0) -> tuple[str, int]:
    """Cut ``kind``'s first shard after ``keep`` rows and ``extra`` bytes."""
    shard = json.loads((spill / "index.json").read_text())["shards"][kind][0]
    path = spill / shard["file"]
    data = path.read_bytes()
    (table,) = struct.unpack_from("<q", data)
    path.write_bytes(data[: 8 + table + keep * stream._ROWS[kind].size + extra])
    return shard["file"], shard["count"]


READERS = {
    "pack": lambda spill, out: pack(spill, out),
    "load": lambda spill, out: SpillReader(spill).load(),
    "iter_spans": lambda spill, out: list(SpillReader(spill).iter_spans()),
    "iter_spans_merged": lambda spill, out: list(SpillReader(spill).iter_spans_merged()),
}


def _check_cut_is_refused(reader, tmp_path, extra):
    spill = _spill(tmp_path)
    name, count = _truncate(spill, "spans", keep=5, extra=extra)
    assert count > 5
    out = tmp_path / "out.json"
    with pytest.raises(RecordError) as err:
        READERS[reader](spill, out)
    assert name in str(err.value)
    assert f"{count} records" in str(err.value) and "holds 5" in str(err.value)
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("reader", sorted(READERS))
def test_truncated_shard_is_refused(reader, tmp_path):
    _check_cut_is_refused(reader, tmp_path, extra=0)  # at a row boundary


@pytest.mark.parametrize("reader", sorted(READERS))
def test_shard_cut_mid_row_is_refused(reader, tmp_path):
    _check_cut_is_refused(reader, tmp_path, extra=30)


def test_truncated_edge_and_instant_shards_are_refused(tmp_path):
    spill = _spill(tmp_path)
    name, _ = _truncate(spill, "edges", keep=1)
    with pytest.raises(RecordError, match=name):
        list(SpillReader(spill).iter_edges())
    with pytest.raises(RecordError, match=name):
        pack(spill, tmp_path / "out.json")


def _edit_shard(path, table=None, row0=None, tail=b""):
    """Rewrite an edge shard: a new string table, new fields for row 0,
    bytes appended to the body."""
    data = path.read_bytes()
    (n,) = struct.unpack_from("<q", data)
    table = data[8 : 8 + n] if table is None else table
    body = data[8 + n :]
    if row0 is not None:
        row = stream._ROWS["edges"]
        body = row.pack(*row0) + body[row.size :]
    path.write_bytes(struct.pack("<q", len(table)) + table + body + tail)


#: damage -> (edit of ``edges-00000.bin``, text the error must contain).
SHARD_DAMAGE = {
    "table-cut": (lambda p: p.write_bytes(p.read_bytes()[:40]), "damaged string table"),
    "table-not-json": (lambda p: _edit_shard(p, table=b'["steal", "0"'), "unreadable shard"),
    "table-not-strings": (lambda p: _edit_shard(p, table=b'["steal", 0]'),
                          "damaged string table"),
    "table-longer-than-file": (
        lambda p: p.write_bytes(struct.pack("<q", 1 << 62) + p.read_bytes()[8:]),
        "damaged string table"),
    "kind-index-past-table": (lambda p: _edit_shard(p, row0=(0, 99, 0, 0.0, 1, 1.0, -1)),
                              "names string 99"),
    "kind-index-negative": (lambda p: _edit_shard(p, row0=(0, -1, 0, 0.0, 1, 1.0, -1)),
                            "names string -1"),
    "detail-index-negative": (lambda p: _edit_shard(p, row0=(0, 0, 0, 0.0, 1, 1.0, -2)),
                              "names string -2"),
    "body-partial-row": (lambda p: _edit_shard(p, tail=b"\0" * 3),
                         "holds 10 and a partial row"),
    "body-extra-row": (lambda p: _edit_shard(p, tail=b"\0" * stream._ROWS["edges"].size),
                       "holds 11"),
}


@pytest.mark.parametrize("damage", sorted(SHARD_DAMAGE))
def test_damaged_shard_is_refused_naming_it(damage, tmp_path):
    spill = _spill(tmp_path, edges=10)
    path = spill / "edges-00000.bin"
    edit, text = SHARD_DAMAGE[damage]
    edit(path)
    with pytest.raises(RecordError) as err:
        list(SpillReader(spill).iter_edges())
    assert str(err.value).startswith(f"{path}: ") and text in str(err.value)
    with pytest.raises(RecordError, match="edges-00000.bin"):
        pack(spill, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


def test_schema_1_spill_is_refused_naming_the_schema(tmp_path):
    spill = _spill(tmp_path, edges=3)
    index = spill / "index.json"
    index.write_text(index.read_text().replace(stream.STREAM_SCHEMA, "repro-obs-stream/1"))
    for read in (SpillReader, lambda d: pack(d, tmp_path / "out.json")):
        with pytest.raises(RecordError, match="repro-obs-stream/1") as err:
            read(spill)
        assert str(err.value).startswith(str(index))
    assert not (tmp_path / "out.json").exists()


def test_cli_pack_refuses_truncated_spill(tmp_path, capsys):
    from repro.obs.__main__ import main

    spill = _spill(tmp_path)
    name, _ = _truncate(spill, "spans", keep=5)
    trace = tmp_path / "packed.json"
    assert main(["pack", str(spill), "--trace", str(trace)]) != 0
    assert name in capsys.readouterr().err
    assert not trace.exists()


# ---------------------------------------------------------------------- #
# The fused task site keeps the ``with span(...)`` exception behaviour
# ---------------------------------------------------------------------- #
class Exploded(Exception):
    pass


@pytest.mark.parametrize("communicates", [False, True])
def test_raising_task_surfaces_its_exception_and_closes_its_span(communicates):
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)

        def plain(tc_, task):
            with span(tc_.proc, "inner", "comm"):
                tc_.proc.advance(1e-6)
                raise Exploded(f"task on rank {tc_.rank}")

        def gen(tc_, task):
            with span(tc_.proc, "inner", "comm"):
                yield from tc_.proc.co_sleep(1e-6)
                raise Exploded(f"task on rank {tc_.rank}")

        h = tc.register(gen if communicates else plain)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        yield from tc.co_process()

    eng = Engine(2, max_events=100_000)
    rec = Recorder.attach(eng)
    Tracer.attach(eng)
    eng.spawn_all(main)
    with pytest.raises(Exploded, match="task on rank"):
        eng.run()
    (task,) = [s for s in rec.spans if s.category == "task"]
    (inner,) = [s for s in rec.spans if s.name == "inner"]
    # as `with span(...)` leaves it: both spans closed at the raise, the
    # inner one nested in the task span, the rank's stack empty again
    assert inner.parent == task.sid and inner.depth == task.depth + 1
    assert task.end is not None and inner.end == task.end
    assert task.end - task.start == pytest.approx(1e-6)
    assert rec._stacks[task.rank] == []
    assert rec.metrics.histogram("task_time").count == 0  # observed only on return

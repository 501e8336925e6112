"""The recorded path after its per-record diet: same bytes, typed failures.

* the three direct shard-line formatters and the batched event writer
  against ``json.dumps`` of the same data, byte for byte;
* sha256 goldens of every spill file and of the packed trace, taken at
  the last commit that wrote one ``json.dumps`` per record;
* records are still immutable, picklable and drop-counted per kind;
* a truncated or garbled spill fails with a ``RecordError`` that names
  the shard (it used to pack as if whole, or raise a bare
  ``JSONDecodeError: line 1 column 74``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import reset_uids
from repro.obs import stream
from repro.obs.record import EdgeRecord, InstantRecord, SpanRecord
from repro.obs.scenarios import run_target
from repro.obs.stream import MemorySink, SpillReader, SpillSink, pack
from repro.obs.tracing import TraceEvent
from repro.util.io import RecordError

# ---------------------------------------------------------------------- #
# Encoder equality
# ---------------------------------------------------------------------- #
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-07, 1e22, 1.5e-05, math.inf, -math.inf, math.nan]),
)
ints = st.integers(min_value=-(2**70), max_value=2**70)
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['q"uote', "back\\slash", "tab\tnl\n\x00\x1f", "héllo ☃ \U0001f600"]),
)
details = st.one_of(st.none(), ints, texts, st.tuples(ints, texts))
times = st.one_of(floats, ints)


def dumped(fields: list, detail) -> str:
    return json.dumps(fields + [None if detail is None else str(detail)])


@settings(max_examples=300, deadline=None)
@given(ints, ints, texts, texts, times, st.one_of(st.none(), times), ints,
       st.one_of(st.none(), ints), details)
def test_span_line_is_json_dumps(sid, rank, name, cat, start, end, depth, parent, detail):
    span = SpanRecord(rank, name, cat, start, end, depth, parent, detail, sid)
    assert stream._span_line(span) == dumped(
        [sid, rank, name, cat, start, end, depth, parent], detail
    )


@settings(max_examples=200, deadline=None)
@given(times, ints, texts, texts, details)
def test_instant_line_is_json_dumps(time, rank, name, cat, detail):
    inst = InstantRecord(time, rank, name, cat, detail)
    assert stream._instant_line(inst) == dumped([time, rank, name, cat], detail)


@settings(max_examples=200, deadline=None)
@given(ints, texts, ints, times, ints, times, details)
def test_edge_line_is_json_dumps(eid, kind, src_rank, src_time, dst_rank, dst_time, detail):
    edge = EdgeRecord(eid, kind, src_rank, src_time, dst_rank, dst_time, detail)
    assert stream._edge_line(edge) == dumped(
        [eid, kind, src_rank, src_time, dst_rank, dst_time], detail
    )


@pytest.mark.parametrize("n", [0, 1, stream._BLOCK - 1, stream._BLOCK, stream._BLOCK + 1])
def test_event_writer_batches_are_json_dumps(n):
    events = [
        {"name": f"n{i}", "ph": "X", "ts": i * 1e-3, "args": {"detail": 'q"\\ ☃'}}
        for i in range(n)
    ]
    trailer = {"displayTimeUnit": "ns", "otherData": {"source": "t", "flow_events": n}}
    fh = io.StringIO()
    w = stream._EventWriter(fh)
    for ev in events:
        w.event(ev)
    w.finish(trailer)
    assert fh.getvalue() == json.dumps({"traceEvents": events, **trailer})


# ---------------------------------------------------------------------- #
# Goldens from the parent commit
# ---------------------------------------------------------------------- #
#: (target, seed, shard_size) -> (digest of every spill file, digest of the
#: packed trace), after ``reset_uids()``.  ``shard_size=64`` makes ``pack``
#: k-way merge many shards; queue/queue-wf record fewer than 64 spans.
SPILL_GOLDEN = {
    ("uts-small", 41, None): ("bc9ed70b9df0a6fc", "e446ada0011f0a5c"),
    ("uts-small", 41, 64): ("1dfc16616ebd66be", "e446ada0011f0a5c"),
    ("graph", 0, None): ("9b9ba2742456b2c5", "a7d8fcb0736accc7"),
    ("graph", 0, 64): ("40609aa0dcfd70bf", "a7d8fcb0736accc7"),
    ("queue", 0, None): ("7f371798b4eca9d1", "95d837a0f602bcb6"),
    ("queue", 0, 64): ("7f371798b4eca9d1", "95d837a0f602bcb6"),
    ("queue-wf", 0, None): ("8cbc9b02a7bf7466", "9c8a1ec01f05f2a8"),
    ("queue-wf", 0, 64): ("8cbc9b02a7bf7466", "9c8a1ec01f05f2a8"),
    ("steals", 0, None): ("3d95eb522ddf0bcc", "92e9aebc347be817"),
    ("steals", 0, 64): ("8ddc92bd0d2c5a04", "92e9aebc347be817"),
    ("termination", 0, None): ("4bca1f36539e9233", "b1798af56d3f59fd"),
    ("termination", 0, 64): ("3176b3a1f0d71773", "b1798af56d3f59fd"),
    ("waitfree", 0, None): ("60478522bfe918e6", "08e04fdbaf4288c2"),
    ("waitfree", 0, 64): ("31cd0a050bc38ae0", "08e04fdbaf4288c2"),
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
    assert sum(run.tracer.counts().values()) == len(events)
    assert [e.time for e in run.tracer.by_rank(0)] == sorted(
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


def _truncate(spill, kind: str, keep: int) -> tuple[str, int]:
    shard = json.loads((spill / "index.json").read_text())["shards"][kind][0]
    path = spill / shard["file"]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
    return shard["file"], shard["count"]


READERS = {
    "pack": lambda spill, out: pack(spill, out),
    "load": lambda spill, out: SpillReader(spill).load(),
    "iter_spans": lambda spill, out: list(SpillReader(spill).iter_spans()),
    "iter_spans_merged": lambda spill, out: list(SpillReader(spill).iter_spans_merged()),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_truncated_shard_is_refused(reader, tmp_path):
    spill = _spill(tmp_path)
    name, count = _truncate(spill, "spans", keep=5)
    assert count > 5
    out = tmp_path / "out.json"
    with pytest.raises(RecordError) as err:
        READERS[reader](spill, out)
    assert name in str(err.value)
    assert f"{count} records" in str(err.value) and "holds 5" in str(err.value)
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_truncated_edge_and_instant_shards_are_refused(tmp_path):
    spill = _spill(tmp_path)
    name, _ = _truncate(spill, "edges", keep=1)
    with pytest.raises(RecordError, match=name):
        list(SpillReader(spill).iter_edges())
    with pytest.raises(RecordError, match=name):
        pack(spill, tmp_path / "out.json")


@pytest.mark.parametrize("lineno", [1, 700, stream._BLOCK + 1, 2 * stream._BLOCK + 77])
def test_garbled_line_is_located(lineno, tmp_path):
    spill = _spill(tmp_path, edges=2 * stream._BLOCK + 100)
    path = spill / "edges-00000.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1][: len(lines[lineno - 1]) // 2] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(RecordError) as err:
        list(SpillReader(spill).iter_edges())
    assert str(err.value).startswith(f"{path}:{lineno}: ")
    with pytest.raises(RecordError, match=f"edges-00000.jsonl:{lineno}: "):
        pack(spill, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


def test_blank_lines_are_still_skipped(tmp_path):
    spill = _spill(tmp_path, edges=10)
    path = spill / "edges-00000.jsonl"
    path.write_text(path.read_text().replace("\n", "\n\n", 3))
    assert [e.eid for e in SpillReader(spill).iter_edges()] == list(range(10))


def test_cli_pack_refuses_truncated_spill(tmp_path, capsys):
    from repro.obs.__main__ import main

    spill = _spill(tmp_path)
    name, _ = _truncate(spill, "spans", keep=5)
    trace = tmp_path / "packed.json"
    assert main(["pack", str(spill), "--trace", str(trace)]) != 0
    assert name in capsys.readouterr().err
    assert not trace.exists()

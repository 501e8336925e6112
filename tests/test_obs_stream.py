"""Streaming observability: spill sinks, pack equivalence.

The load-bearing guarantees tested here:

* **Equivalence** — a run recorded through a constant-memory
  :class:`~repro.obs.stream.SpillSink` is indistinguishable from the
  same run recorded in memory: identical ``stream_fingerprint``,
  byte-identical packed Chrome trace (via a :class:`TeeSink`, the only
  rigorous same-run comparison: separate runs differ in the task uids
  carried in span details), and identical critical-path / what-if
  analyses rebuilt from the spill.
* **Bounded memory** — the sink never holds more than one shard buffer;
  shards stay within ``shard_size`` records.
* **Loss accounting** — a sink refusing records increments the per-kind
  drop counters, and drops surface in the seal footer.
* **Atomicity** — trace/pack outputs never leave temp droppings.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.critpath import CausalGraph, critical_path
from repro.obs.export import write_chrome_trace
from repro.obs.live import read_feed
from repro.obs.scenarios import fingerprint, run_target
from repro.obs.stream import (
    STREAM_SCHEMA,
    MemorySink,
    SpillReader,
    SpillSink,
    TeeSink,
    pack,
)
from repro.obs.whatif import project
from repro.util.io import RecordError

CHECK_TARGETS = ["graph", "queue", "queue-wf", "steals", "termination", "waitfree"]


# ---------------------------------------------------------------------- #
# Spill format and round-trip
# ---------------------------------------------------------------------- #
class TestSpillFormat:
    def test_sealed_index_and_counts(self, tmp_path):
        run = run_target("queue", stream_dir=tmp_path / "spill")
        idx = json.loads((tmp_path / "spill" / "index.json").read_text())
        assert idx["schema"] == STREAM_SCHEMA
        assert idx["spans"] == run.recorder.span_count
        assert idx["edges"] == run.recorder.edge_count
        assert idx["dropped"] == 0
        assert idx["nprocs"] == len(run.engine.procs)
        total = sum(sh["count"] for sh in idx["shards"]["spans"])
        assert total == run.recorder.span_count

    def test_round_trip_preserves_records(self, tmp_path):
        run = run_target("steals", stream_dir=tmp_path / "spill")
        spans, instants, edges = SpillReader(tmp_path / "spill").load()
        assert len(spans) == run.recorder.span_count
        assert len(edges) == run.recorder.edge_count
        # sid order is emission order; sids are dense
        assert [s.sid for s in spans] == list(range(len(spans)))

    def test_small_shards_stay_bounded(self, tmp_path):
        sink = SpillSink(tmp_path / "spill", shard_size=16)
        run_target("steals", sink=sink)
        idx = json.loads((tmp_path / "spill" / "index.json").read_text())
        assert len(idx["shards"]["spans"]) > 1
        assert all(sh["count"] <= 16 for sh in idx["shards"]["spans"])
        # buffers were flushed by seal; nothing retained in memory
        assert all(not buf for buf in sink._bufs.values())

    def test_reader_rejects_unsealed_or_foreign_dirs(self, tmp_path):
        with pytest.raises(RecordError, match="nope/index.json: cannot read"):
            SpillReader(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "index.json").write_text('{"schema": "something-else/9"}')
        with pytest.raises(RecordError, match="bad/index.json: unsupported schema"):
            SpillReader(bad)


# ---------------------------------------------------------------------- #
# Streaming == in-memory
# ---------------------------------------------------------------------- #
class TestEquivalence:
    @pytest.mark.parametrize("target", CHECK_TARGETS)
    def test_stream_fingerprint_matches_memory(self, target, tmp_path):
        mem = run_target(target)
        spill = run_target(target, stream_dir=tmp_path / "spill")
        assert spill.recorder.stream_fingerprint() == mem.recorder.stream_fingerprint()
        assert fingerprint(spill) == fingerprint(mem)

    def test_uts_stream_fingerprint_matches_memory(self, tmp_path):
        mem = run_target("uts-small")
        spill = run_target("uts-small", stream_dir=tmp_path / "spill")
        assert spill.recorder.stream_fingerprint() == mem.recorder.stream_fingerprint()

    @pytest.mark.parametrize("target", ["queue", "steals", "uts-small"])
    def test_packed_trace_bytes_equal_in_memory_export(self, target, tmp_path):
        # One run, two sinks: the only byte-rigorous comparison (span
        # details carry process-global task uids, so two separate runs
        # differ there by design).
        tee = TeeSink(MemorySink(), SpillSink(tmp_path / "spill", shard_size=64))
        rec = run_target(target, sink=tee, events=False).recorder
        mem_path = write_chrome_trace(rec, tmp_path / "mem.json")
        packed = pack(tmp_path / "spill", tmp_path / "packed.json")
        assert packed.read_bytes() == mem_path.read_bytes()

    def test_critpath_and_whatif_parity(self, tmp_path):
        tee = TeeSink(MemorySink(), SpillSink(tmp_path / "spill"))
        rec = run_target("steals", sink=tee, events=False).recorder
        g_mem = CausalGraph.from_recorder(rec)
        spans, _instants, edges = SpillReader(tmp_path / "spill").load()
        g_spill = CausalGraph.build(spans, edges, len(rec.engine.procs))
        cp_mem, cp_spill = critical_path(g_mem), critical_path(g_spill)
        assert [
            (s.kind, s.rank, s.start, s.end, s.name) for s in cp_mem.steps
        ] == [(s.kind, s.rank, s.start, s.end, s.name) for s in cp_spill.steps]
        scales = {"steal": 0.5}
        assert (
            project(g_mem, scales).projected_makespan
            == project(g_spill, scales).projected_makespan
        )


# ---------------------------------------------------------------------- #
# Drop accounting
# ---------------------------------------------------------------------- #
class TestDropAccounting:
    def test_capacity_overflow_counts_per_kind(self, tmp_path):
        sink = MemorySink(capacity=5)
        run = run_target("queue", sink=sink)
        rec = run.recorder
        # sids are only allocated for accepted spans; refusals are
        # tallied separately so nothing is silently lost
        assert rec.span_count == 5
        assert rec.dropped_spans > 0
        assert len(rec.spans) == 5
        assert rec.dropped == (
            rec.dropped_spans + rec.dropped_instants + rec.dropped_edges
        )

    def test_tee_takes_its_smallest_child_capacity(self, tmp_path):
        tee = TeeSink(MemorySink(capacity=5), SpillSink(tmp_path / "spill"))
        rec = run_target("queue", sink=tee).recorder
        assert tee.capacity == 5 and rec.span_count == 5 and rec.dropped_spans > 0
        spans, _instants, edges = SpillReader(tmp_path / "spill").load()
        # both children saw the same records (the spill stringifies details)
        assert [(s.sid, s.name, s.end) for s in spans] == [
            (s.sid, s.name, s.end) for s in rec.spans
        ]
        assert [e.eid for e in edges] == [e.eid for e in rec.edges] == list(range(5))

    def test_drops_surface_in_seal_footer(self, tmp_path):
        class Stingy(SpillSink):
            capacity = 0

        sink = Stingy(tmp_path / "spill")
        run = run_target("queue", sink=sink)
        idx = json.loads((tmp_path / "spill" / "index.json").read_text())
        assert idx["dropped"] == run.recorder.dropped > 0
        assert idx["dropped_spans"] == run.recorder.dropped_spans

    def test_pack_propagates_drop_counts(self, tmp_path):
        class Stingy(SpillSink):
            capacity = 0

        run_target("queue", sink=Stingy(tmp_path / "spill"))
        out = pack(tmp_path / "spill", tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["spans_dropped"] > 0
        assert doc["otherData"]["spans_recorded"] == 0


# ---------------------------------------------------------------------- #
# Rolling windows (the telemetry bus is the only windowed path)
# ---------------------------------------------------------------------- #
class TestRollingWindows:
    def test_windows_snapshot_and_are_deterministic(self, tmp_path):
        def frames(name):
            path = tmp_path / name
            run_target("uts-small", record=True, live_path=path, live_interval=1e-3)
            return read_feed(path)["frames"]

        series = frames("a.jsonl")
        assert len(series) > 1
        for w in series:
            assert w["t1"] > w["t0"]
            for h in w["histograms"].values():
                assert h["count"] > 0
                assert h["p50"] <= h["p95"] <= h["p99"]
        # windows derive from virtual time only: bit-for-bit repeatable
        assert series == frames("b.jsonl")


# ---------------------------------------------------------------------- #
# Atomic outputs
# ---------------------------------------------------------------------- #
class TestAtomicity:
    def test_no_temp_droppings(self, tmp_path):
        run = run_target("queue", stream_dir=tmp_path / "spill")
        write_chrome_trace(run.recorder, tmp_path / "mem.json")
        pack(tmp_path / "spill", tmp_path / "packed.json")
        stray = [p.name for p in tmp_path.rglob("*.tmp")]
        assert stray == []

    def test_failed_pack_cleans_up(self, tmp_path):
        (tmp_path / "spill").mkdir()
        with pytest.raises(RecordError, match="spill/index.json"):
            pack(tmp_path / "spill", tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()
        assert [p.name for p in tmp_path.glob(".out.json.*")] == []


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_run_stream_then_pack(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        spill = tmp_path / "spill"
        trace = tmp_path / "trace.json"
        assert main(["run", "queue", "--stream", str(spill)]) == 0
        assert main(["pack", str(spill), "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["source"] == "repro.obs"
        assert doc["otherData"]["spans_dropped"] == 0

    def test_pack_rejects_non_spill_dir(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["pack", str(tmp_path), "--trace", str(tmp_path / "t.json")]) == 2

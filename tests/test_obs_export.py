"""Exporters and post-hoc analysis: Chrome trace, metrics JSON, gaps."""

from __future__ import annotations

import json
from collections import defaultdict

from repro.obs.analyze import critical_idle, load_chrome_trace, summarize
from repro.obs.export import (
    METRICS_SCHEMA,
    ascii_timeline,
    metrics_dict,
    self_times,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.record import Recorder, SpanRecord
from repro.obs.scenarios import run_target


def _recorded_run():
    return run_target("steals", record=True)


class TestChromeTrace:
    def test_document_is_valid_and_loadable(self, tmp_path):
        run = _recorded_run()
        path = write_chrome_trace(run.recorder, tmp_path / "t.json", tracer=run.tracer)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for ev in events:
            # X/i/M plus the s/f flow-event pairs drawn for causal edges
            assert ev["ph"] in ("X", "i", "M", "s", "f")
            assert ev["pid"] == 0
            assert isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
        assert doc["otherData"]["spans_dropped"] == 0

    def test_span_timestamps_monotone_per_rank_track(self, tmp_path):
        run = _recorded_run()
        doc = json.loads(write_chrome_trace(run.recorder, tmp_path / "t.json").read_text())
        per_tid = defaultdict(list)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                per_tid[ev["tid"]].append(ev["ts"])
        assert len(per_tid) > 1
        for tid, ts in per_tid.items():
            assert ts == sorted(ts), f"track {tid} out of order"

    def test_metadata_names_every_rank_track(self, tmp_path):
        run = _recorded_run()
        doc = json.loads(write_chrome_trace(run.recorder, tmp_path / "t.json").read_text())
        named = {
            ev["tid"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert named == set(range(run.engine.nprocs))

    def test_roundtrip_through_file(self, tmp_path):
        run = _recorded_run()
        path = write_chrome_trace(run.recorder, tmp_path / "t.json", tracer=run.tracer)
        spans, _ = load_chrome_trace(path)
        assert len(spans) == len([s for s in run.recorder.spans if s.end is not None])
        cats = {s.category for s in spans}
        assert "steal" in cats


class TestMetricsJson:
    def test_schema_and_required_histograms(self, tmp_path):
        run = _recorded_run()
        path = write_metrics_json(run.recorder, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["nprocs"] == run.engine.nprocs
        hs = doc["histograms"]
        assert hs["steal_latency"]["count"] > 0
        assert hs["wave_rtt"]["count"] > 0
        assert hs["steal_latency"]["sketch"]["count"] == hs["steal_latency"]["count"]
        assert "edges" not in hs["steal_latency"] and "counts" not in hs["steal_latency"]
        assert doc["spans"]["recorded"] == len(run.recorder.spans)

    def test_process_stats_embedded_when_given(self):
        run = run_target("uts-tiny")
        stats = [s.to_dict() for s in run.process_stats]
        doc = metrics_dict(run.recorder, process_stats=stats)
        assert doc["process_stats"] == stats
        assert all("efficiency" in d for d in doc["process_stats"])


def _span(rank, name, cat, start, end):
    return SpanRecord(rank=rank, name=name, category=cat, start=start, end=end)


class TestAnalysis:
    def test_ascii_timeline_rows_and_legend(self):
        run = _recorded_run()
        spans = [s for s in run.recorder.spans if s.end is not None]
        art = ascii_timeline(spans, run.engine.nprocs, width=40)
        lines = art.splitlines()
        assert sum(1 for ln in lines if ln.startswith("rank")) == run.engine.nprocs
        assert "legend:" in lines[-1]

    def test_critical_idle_finds_the_gap_and_its_bounds(self):
        spans = [
            _span(0, "work", "task", 0.0, 1.0),
            _span(0, "late", "task", 3.0, 4.0),
            _span(1, "busy", "task", 0.0, 4.0),
        ]
        (gap,) = critical_idle(spans, top=5)
        assert gap.rank == 0
        assert gap.start == 1.0 and gap.end == 3.0
        assert gap.before == "work" and gap.after == "late"
        assert "idle" in gap.describe()

    def test_overlapping_cover_hides_non_gaps(self):
        spans = [
            _span(0, "a", "task", 0.0, 2.0),
            _span(0, "b", "comm", 1.0, 3.0),  # overlaps a: no gap at [1,2]
            _span(0, "c", "task", 3.0, 4.0),  # touches b: still no gap
        ]
        assert critical_idle(spans) == []

    def test_self_times_subtract_nested_children(self):
        spans = [
            _span(0, "parent", "task", 0.0, 10.0),
            _span(0, "child", "comm", 2.0, 6.0),
            _span(0, "grandchild", "lock", 3.0, 4.0),
        ]
        st = self_times(spans)[0]
        assert st["task"] == 6.0  # 10 - child's 4
        assert st["comm"] == 3.0  # 4 - grandchild's 1
        assert st["lock"] == 1.0

    def test_self_times_handle_out_of_stack_spans(self):
        # a complete_span-style interval covering everything on the rank
        spans = [
            _span(0, "tc_process", "runtime", 0.0, 10.0),
            _span(0, "t1", "task", 0.0, 4.0),
            _span(0, "t2", "task", 5.0, 9.0),
        ]
        st = self_times(spans)[0]
        assert st["runtime"] == 2.0
        assert st["task"] == 8.0

    def test_summarize_report_sections(self):
        run = _recorded_run()
        spans = [s for s in run.recorder.spans if s.end is not None]
        text = summarize(spans, width=40, top=3)
        assert "timeline:" in text
        assert "longest 3 spans:" in text
        assert "aggregate self time by category:" in text


class TestCli:
    def test_run_writes_both_exports(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(
            ["run", "uts-tiny", "--trace", str(trace), "--metrics", str(metrics),
             "--timeline", "--width", "40"]
        )
        assert rc == 0
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(metrics.read_text())["schema"] == METRICS_SCHEMA
        out = capsys.readouterr().out
        assert "chrome trace ->" in out and "legend:" in out
        assert "per-rank" in out

    def test_summarize_and_critical_idle_commands(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "t.json"
        assert main(["run", "steals", "--trace", str(trace)]) == 0
        assert main(["summarize", str(trace), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "idle gaps" in out  # the critical-idle section, folded into summarize

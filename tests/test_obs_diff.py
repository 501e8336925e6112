"""Trajectory differ: schema walkers, direction heuristics, CLI gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.diff import diff_documents, diff_files, render_diff
from repro.obs.export import METRICS_SCHEMA, metrics_dict, write_metrics_json
from repro.obs.scenarios import run_target


def _bench_doc():
    return {
        "schema": "repro-bench/1",
        "experiments": [
            {
                "experiment": "table1",
                "series": [
                    {"label": "cluster-measured", "unit": "us",
                     "xs": [0, 1], "ys": [0.5, 20.0]},
                    {"label": "speedup", "unit": "x",
                     "xs": [1, 2], "ys": [1.0, 1.9]},
                ],
            }
        ],
    }


class TestBenchDiff:
    def test_identical_documents_are_clean(self):
        report = diff_documents(_bench_doc(), _bench_doc())
        assert report.ok
        assert not report.changes
        assert "0 regressed" in render_diff(report)

    def test_time_series_regress_upward(self):
        new = _bench_doc()
        new["experiments"][0]["series"][0]["ys"][1] = 30.0  # +50% on a us series
        report = diff_documents(_bench_doc(), new)
        assert not report.ok
        (regress,) = report.regressions
        assert regress.key == "table1/cluster-measured"
        assert regress.metric == "ys[1]"
        assert regress.rel == pytest.approx(0.5)

    def test_time_series_improve_downward(self):
        new = _bench_doc()
        new["experiments"][0]["series"][0]["ys"][1] = 10.0
        report = diff_documents(_bench_doc(), new)
        assert report.ok
        assert any(e.status == "improve" for e in report.entries)

    def test_speedup_series_regress_downward(self):
        new = _bench_doc()
        new["experiments"][0]["series"][1]["ys"][1] = 1.0  # speedup dropped
        report = diff_documents(_bench_doc(), new)
        assert not report.ok
        assert report.regressions[0].key == "table1/speedup"

    def test_within_threshold_is_noise(self):
        new = _bench_doc()
        new["experiments"][0]["series"][0]["ys"][1] = 21.0  # +5%
        assert diff_documents(_bench_doc(), new, threshold=0.10).ok

    def test_removed_series_reported(self):
        new = _bench_doc()
        del new["experiments"][0]["series"][1]
        report = diff_documents(_bench_doc(), new)
        assert any(e.status == "removed" for e in report.entries)

    def test_length_mismatch_is_a_regression(self):
        new = _bench_doc()
        new["experiments"][0]["series"][0]["ys"] = [0.5]
        new["experiments"][0]["series"][0]["xs"] = [0]
        report = diff_documents(_bench_doc(), new)
        assert any(e.status == "mismatch" for e in report.regressions)


class TestMetricsDiff:
    def test_real_metrics_roundtrip_is_clean(self):
        doc = metrics_dict(run_target("steals").recorder)
        report = diff_documents(doc, copy.deepcopy(doc))
        assert report.ok and not report.changes

    def test_counter_drift_warns_without_regressing(self):
        doc = metrics_dict(run_target("steals").recorder)
        doc["counters"]["total"]["steal_attempts"] = 100.0
        new = copy.deepcopy(doc)
        new["counters"]["total"]["steal_attempts"] = 250.0
        report = diff_documents(doc, new)
        assert report.ok  # counters are direction-neutral
        assert any(e.status == "changed" for e in report.changes)

    @pytest.mark.parametrize("schema", ["repro-obs-metrics/1", "repro-obs-metrics/2"])
    def test_old_metrics_schemas_refused(self, schema):
        doc = metrics_dict(run_target("steals").recorder)
        assert doc["schema"] == METRICS_SCHEMA
        old = copy.deepcopy(doc)
        old["schema"] = schema
        with pytest.raises(ValueError, match="schema mismatch"):
            diff_documents(old, doc)
        with pytest.raises(ValueError, match="unsupported schema"):
            diff_documents(old, old)


class TestSchemaHandling:
    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            diff_documents({"schema": "bogus/1"}, {"schema": "bogus/1"})

    def test_cross_schema_rejected(self):
        with pytest.raises(ValueError, match="schema mismatch"):
            diff_documents(_bench_doc(), {"schema": METRICS_SCHEMA, "histograms": {}})


class TestCli:
    def test_diff_command_warn_only_by_default(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        doc = _bench_doc()
        old.write_text(json.dumps(doc))
        doc["experiments"][0]["series"][0]["ys"][1] = 40.0
        new.write_text(json.dumps(doc))
        assert main(["diff", str(old), str(new)]) == 0  # warn-only
        assert "regress" in capsys.readouterr().out
        assert main(["diff", str(old), str(new), "--fail-on-regress"]) == 1
        assert main(["diff", str(old), str(old), "--fail-on-regress"]) == 0

    def test_diff_files_on_committed_baseline(self):
        report = diff_files("BENCH_sim.json", "BENCH_sim.json")
        assert report.ok and report.entries

    def test_critpath_check_and_whatif_commands(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "crit.json"
        assert main(["critpath", "uts-tiny", "--check",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "check ok" in out and "critical path:" in out
        doc = json.loads(trace.read_text())
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"s", "f"} <= phs  # causal-edge flow arrows
        assert any(e.get("pid") == 1 for e in doc["traceEvents"])  # highlight
        assert main(["whatif", "uts-tiny", "--scale", "steal=0.5"]) == 0
        assert "projected speedup" in capsys.readouterr().out
        assert main(["whatif", "uts-tiny", "--scale", "nope=1"]) == 2

    def test_summarize_prints_percentiles_with_metrics(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        run = run_target("steals")
        trace = tmp_path / "t.json"
        metrics = write_metrics_json(run.recorder, tmp_path / "m.json")
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(run.recorder, trace)
        assert main(["summarize", str(trace), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "histogram percentiles" in out and "p95" in out

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('{"schema": "repro-obs-metrics/2", "histograms": {}}',
             "unsupported schema 'repro-obs-metrics/2'"),
            ('{"schema": "repro-obs-metrics/3", "histo', "torn or garbled JSON"),
        ],
        ids=["schema-v2", "torn"],
    )
    def test_summarize_refuses_bad_metrics_with_exit_2(
        self, tmp_path, capsys, text, fragment
    ):
        from repro.obs.__main__ import main
        from repro.obs.export import write_chrome_trace

        trace = write_chrome_trace(run_target("steals").recorder, tmp_path / "t.json")
        metrics = tmp_path / "m.json"
        metrics.write_text(text)
        assert main(["summarize", str(trace), "--metrics", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert str(metrics) in captured.err and fragment in captured.err
        assert captured.out == ""

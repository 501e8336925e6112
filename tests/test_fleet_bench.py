"""BENCH_fleet.json: schema validation, the diff walker, and writes."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.fleet import bench, scheduler
from repro.fleet.bench import (
    FLEET_SCHEMA,
    run_fleet_bench,
    validate_fleet_json,
    write_fleet_json,
)
from repro.fleet.pool import InlinePool
from repro.obs.diff import diff_documents


def make_doc(digest="abc123", levels=(1, 2)):
    return {
        "schema": FLEET_SCHEMA,
        "host": {"platform": "test", "python": "3.x", "cpus": 4},
        "entries": [
            {
                "jobs": n,
                "scenarios": ["queue"],
                "strategy": "random",
                "seed": 0,
                "schedules": 40,
                "events": 4000,
                "wall_s": 2.0 / n,
                "schedules_per_sec": 20.0 * n,
                "requeues": 0,
                "failures": 0,
                "failing_digest": digest,
                "speedup": float(n),
            }
            for n in levels
        ],
    }


class TestValidation:
    def test_valid_document_passes(self):
        validate_fleet_json(make_doc())

    def test_digest_mismatch_across_levels_rejected(self):
        doc = make_doc()
        doc["entries"][1]["failing_digest"] = "different"
        with pytest.raises(ValueError, match="failing_digest differs"):
            validate_fleet_json(doc)

    def test_missing_host_cpus_rejected(self):
        doc = make_doc()
        del doc["host"]["cpus"]
        with pytest.raises(ValueError, match="host.cpus"):
            validate_fleet_json(doc)

    def test_committed_record_validates(self):
        validate_fleet_json(json.loads(Path("BENCH_fleet.json").read_text()))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema="nope/9"), "schema"),
            (lambda d: d.update(entries=[]), "non-empty"),
            (lambda d: d["entries"][0].update(jobs=0), "jobs"),
            (lambda d: d["entries"][0].update(schedules=0), "schedules"),
            (lambda d: d["entries"][0].update(schedules_per_sec=0.0),
             "schedules_per_sec"),
            (lambda d: d["entries"][0].update(failing_digest=""),
             "failing_digest"),
            (lambda d: d["host"].update(cpus=1), "jobs=2: speedup claimed"),
            (lambda d: d["entries"].pop(0), "without a jobs=1 entry"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate, fragment):
        doc = make_doc()
        mutate(doc)
        with pytest.raises(ValueError, match=fragment):
            validate_fleet_json(doc)


class TestWrite:
    def test_write_validates_then_roundtrips(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        out = write_fleet_json(make_doc(), path)
        assert out == path
        assert json.loads(path.read_text())["schema"] == FLEET_SCHEMA
        # Atomic write: no temp files survive.
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_fleet.json"]

    def test_write_rejects_invalid_without_touching_path(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        doc = make_doc()
        doc["entries"][1]["failing_digest"] = "different"
        with pytest.raises(ValueError):
            write_fleet_json(doc, path)
        assert not path.exists()


class TestFleetDiff:
    def test_identical_documents_are_clean(self):
        doc = make_doc()
        report = diff_documents(doc, copy.deepcopy(doc))
        assert report.ok
        assert report.changes == []

    def test_throughput_drop_regresses(self):
        old, new = make_doc(), make_doc()
        new["entries"][0]["schedules_per_sec"] *= 0.5
        report = diff_documents(old, new)
        assert not report.ok
        (entry,) = report.regressions
        assert entry.key == "fleet[jobs=1]"
        assert entry.metric == "schedules_per_sec"

    def test_throughput_gain_is_an_improvement(self):
        old, new = make_doc(), make_doc()
        new["entries"][0]["schedules_per_sec"] *= 2.0
        assert diff_documents(old, new).ok

    def test_digest_drift_is_a_mismatch(self):
        old, new = make_doc("aaa"), make_doc("bbb")
        report = diff_documents(old, new)
        assert not report.ok
        assert any(e.metric == "failing_digest" for e in report.regressions)

    def test_schedule_count_drift_is_exact_mismatch(self):
        old, new = make_doc(), make_doc()
        new["entries"][1]["schedules"] += 1  # +2.5%: below threshold, still flagged
        report = diff_documents(old, new)
        assert any(
            e.metric == "schedules" and e.status == "mismatch"
            for e in report.entries
        )

    def test_added_level_reported(self):
        old, new = make_doc(levels=(1,)), make_doc(levels=(1, 2))
        report = diff_documents(old, new)
        assert any(e.status == "added" for e in report.entries)


class TestRunFleetBench:
    def test_tiny_sweep_produces_a_valid_committed_shape(self):
        """End-to-end: a real (tiny) sweep through the process pool must
        produce a document the validator and the differ both accept."""
        doc = run_fleet_bench(
            jobs_levels=(1, 2), targets=["queue"], schedules=6, verbose=False
        )
        validate_fleet_json(doc)
        assert [e["jobs"] for e in doc["entries"]] == [1, 2]
        assert doc["entries"][0]["speedup"] == 1.0
        assert diff_documents(doc, copy.deepcopy(doc)).ok

    def test_speedup_only_where_jobs_fit_the_host(self, monkeypatch):
        host = {"platform": "test", "python": "3.x", "cpus": 1}
        monkeypatch.setattr(bench, "_host_info", lambda: host)
        doc = run_fleet_bench(
            jobs_levels=(1, 2), targets=["queue"], schedules=4, verbose=False
        )
        validate_fleet_json(doc)
        one, two = doc["entries"]
        assert one["speedup"] == 1.0
        assert "speedup" not in two

    def _inline_sweep(self, monkeypatch, levels):
        host = {"platform": "test", "python": "3.x", "cpus": 4}
        monkeypatch.setattr(bench, "_host_info", lambda: host)
        # Every jobs level runs on the inline pool: no worker processes.
        monkeypatch.setattr(scheduler, "ProcessPool", InlinePool)
        return run_fleet_bench(
            jobs_levels=levels, targets=["queue"], schedules=4, verbose=False
        )

    def test_speedup_base_is_the_jobs_1_entry(self, monkeypatch):
        doc = self._inline_sweep(monkeypatch, (2, 1))
        validate_fleet_json(doc)
        two, one = doc["entries"]
        assert one["jobs"] == 1 and one["speedup"] == 1.0
        assert two["speedup"] == two["schedules_per_sec"] / one["schedules_per_sec"]

    def test_no_speedup_without_a_jobs_1_entry(self, monkeypatch):
        doc = self._inline_sweep(monkeypatch, (2,))
        validate_fleet_json(doc)
        assert "speedup" not in doc["entries"][0]

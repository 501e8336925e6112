"""Tests for formatting helpers and result records."""

from __future__ import annotations

import pytest

from repro.util.format import format_table
from repro.util.records import Series, SweepResult


class TestFormat:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a    bbbb")
        assert all(len(l) >= 6 for l in lines[2:])

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestRecords:
    def test_series_add_and_lookup(self):
        s = Series(label="l", unit="us")
        s.add(2, 10.0)
        s.add(4, 20.0)
        assert s.y_at(4) == 20.0
        with pytest.raises(ValueError):
            s.y_at(8)

    def test_sweep_get_by_label(self):
        r = SweepResult(experiment="e", series=[Series(label="a"), Series(label="b")])
        assert r.get("b").label == "b"
        assert r.labels() == ["a", "b"]
        with pytest.raises(KeyError):
            r.get("c")


class TestBenchHarness:
    def test_scale_resolution(self, monkeypatch):
        from repro.bench.harness import scale

        assert scale() == "quick"
        assert scale("full") == "full"  # the --scale argument is the one way
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scale() == "quick"  # no environment variable is read
        with pytest.raises(ValueError):
            scale("huge")

    def test_sweep_procs(self):
        from repro.bench.harness import sweep_procs

        assert sweep_procs("quick") == [2, 4, 8, 16]
        assert sweep_procs("full") == [2, 4, 8, 16, 32, 64]

    def test_render_mixed_xs(self):
        from repro.bench.report import render

        a = Series(label="a", unit="u")
        a.add(2, 1.0)
        b = Series(label="b")
        b.add(4, 2.0)
        text = render(SweepResult(experiment="e", series=[a, b], notes=["n"]))
        assert "-" in text  # missing points rendered as dash
        assert "note: n" in text


class TestAtomicWrite:
    def test_writes_content_and_returns_path(self, tmp_path):
        from repro.util.io import atomic_write_text

        target = tmp_path / "out.json"
        assert atomic_write_text(target, "hello") == target
        assert target.read_text() == "hello"

    def test_creates_parent_directories(self, tmp_path):
        from repro.util.io import atomic_write_text

        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_overwrites_atomically_without_temp_leftovers(self, tmp_path):
        from repro.util.io import atomic_write_text

        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_destination_and_no_temp(self, tmp_path, monkeypatch):
        import os as _os

        from repro.util import io as uio

        target = tmp_path / "out.txt"
        uio.atomic_write_text(target, "original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(uio.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            uio.atomic_write_text(target, "partial")
        monkeypatch.undo()
        # The old document survives intact and the temp file is gone.
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert _os.path.exists(target)

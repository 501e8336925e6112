"""Live telemetry bus: feed determinism, window edges, reading, rendering.

The bus is an observer: two identical runs produce byte-identical feeds
and attaching it never changes the run fingerprint (``repro.obs verify``
checks both for every check scenario).  It is the only windowed view of
the metrics, so these tests pin its bytes (sha256 goldens), its window
boundaries and its counts against the cumulative registry.  They also
cover the feed reader's damage rules and the schema validator.
"""

from __future__ import annotations

import hashlib
import json
import math
from types import SimpleNamespace

import pytest

from repro.obs.live import (
    LIVE_SCHEMA,
    TelemetryBus,
    _window_start,
    latest_frames,
    read_feed,
    render_top,
    validate_feed,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.scenarios import fingerprint, run_target

#: sha256 of each target's feed (P=4, seed 0, 50 us frames), recorded
#: before rolling windows were deleted: the surviving window path must
#: keep emitting these exact bytes.
FEED_GOLDENS = {
    "graph": "a8f389eb9a202c198d9a7684b98453bcd25787fdd1db7f86ac94f0ea9145c7e0",
    "queue": "be693ea525dcf6c5d0d39c231b58aa4e66c5065d6dfe3917ed3cd0b7685d78c8",
    "queue-wf": "3404dae6659b409243dfb3fb6e5c0ecb1cebbc9bb2e1018236846d1c1d94a889",
    "steals": "1287941d4f39dbc9d74ff51b0a1c52e3aeb56fee48fbb11483d6e23d4767c9c6",
    "termination": "b0e142183566ea1f2cead88410711afefb1bb1968c336afe50e61ab1520b3b28",
    "waitfree": "1ed1486b2bc878c242c81cb68e3fb9cb9180c52252e4897b6165cb9586efbb4e",
    "uts-small": "dde715b0f85c22c2aaf6af1daebc15aad180344638a749c247ca14f8e702df29",
}


def run_with_feed(tmp_path, target="queue", name="feed.jsonl", **kw):
    path = tmp_path / name
    run = run_target(target, record=True, live_path=path, live_interval=50e-6, **kw)
    return run, path


def bare_bus(tmp_path, interval=1.0):
    """A bus bound to a stand-in engine: ``event(t)`` does what the engine
    does per event — tick the bus with the event's time, then count it."""
    engine = SimpleNamespace(nprocs=1, events=0, _tick=None)
    rec = SimpleNamespace(engine=engine, metrics=MetricsRegistry())
    bus = TelemetryBus(tmp_path / "f.jsonl", interval=interval)
    bus.bind(rec)

    def event(t):
        engine._tick(t)
        engine.events += 1

    return bus, rec.metrics, event


def frames_of(bus):
    return read_feed(bus.path)["frames"]


@pytest.mark.parametrize("target", sorted(FEED_GOLDENS))
def test_feed_bytes_match_golden(tmp_path, target):
    path = tmp_path / "feed.jsonl"
    run_target(target, nprocs=4, seed=0, record=True, live_path=path,
               live_interval=50e-6)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FEED_GOLDENS[target]


class TestFeedDeterminism:
    def test_two_runs_produce_byte_identical_feeds(self, tmp_path):
        _, a = run_with_feed(tmp_path, name="a.jsonl")
        _, b = run_with_feed(tmp_path, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # and the feed is non-empty

    def test_bus_does_not_perturb_the_run(self, tmp_path):
        base = fingerprint(run_target("queue", record=True))
        lived, _ = run_with_feed(tmp_path)
        assert fingerprint(lived) == base

    def test_feed_validates_clean(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        doc = read_feed(path)
        assert doc["meta"]["schema"] == LIVE_SCHEMA
        assert doc["frames"]
        assert validate_feed(doc) == []

    def test_frames_cover_disjoint_increasing_windows(self, tmp_path):
        _, path = run_with_feed(tmp_path, target="uts-small")
        frames = read_feed(path)["frames"]
        assert len(frames) > 1
        for prev, cur in zip(frames, frames[1:]):
            assert prev["t1"] <= cur["t0"]
            assert prev["seq"] < cur["seq"]
        for frame in frames:
            assert frame["t1"] > frame["t0"]
            for h in frame["histograms"].values():
                assert h["count"] > 0
                assert h["p50"] <= h["p95"] <= h["p99"]

    def test_frame_counts_sum_to_cumulative(self, tmp_path):
        run, path = run_with_feed(tmp_path, target="steals")
        frames = read_feed(path)["frames"]
        histograms = run.recorder.metrics.histograms
        assert histograms
        for name, hist in histograms.items():
            windowed = sum(
                f["histograms"][name]["count"]
                for f in frames
                if name in f["histograms"]
            )
            assert windowed == hist.count

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryBus(tmp_path / "f.jsonl", interval=0.0)


class TestWindowEdges:
    def test_empty_final_window_not_emitted(self, tmp_path):
        bus, reg, event = bare_bus(tmp_path)
        event(0.5)
        reg.observe("lock_wait", 1e-6)
        # Virtual time passes through several quiet intervals.
        event(5.5)
        bus.finish(9.0)
        frames = frames_of(bus)
        assert [(f["t0"], f["t1"]) for f in frames] == [(0.0, 1.0), (5.0, 6.0)]
        assert frames[0]["histograms"]["lock_wait"]["count"] == 1
        assert frames[1]["histograms"] == {} and frames[1]["d_events"] == 1

    def test_observation_on_interval_boundary_lands_in_next_window(self, tmp_path):
        bus, reg, event = bare_bus(tmp_path)
        event(0.2)
        reg.observe("lock_wait", 1e-6)
        # The tick for an event at t fires before the event records
        # anything: the boundary observation belongs to [1, 2).
        event(1.0)
        reg.observe("lock_wait", 2e-6)
        bus.finish(2.0)
        frames = frames_of(bus)
        assert [f["histograms"]["lock_wait"]["count"] for f in frames] == [1, 1]
        assert [f["t0"] for f in frames] == [0.0, 1.0]

    def test_interval_far_below_event_gaps_costs_only_its_frames(self, tmp_path):
        # 1e-12 s windows: ~2.6e8 of them in this run, all but a few
        # hundred empty.  The bus skips the empty ones.
        path = tmp_path / "f.jsonl"
        run = run_target("queue", record=True, live_path=path, live_interval=1e-12)
        frames = read_feed(path)["frames"]
        assert 0 < len(frames) <= run.events
        assert sum(f["d_events"] for f in frames) == run.events

    def test_zero_duration_run_with_observations(self, tmp_path):
        bus, reg, event = bare_bus(tmp_path)
        event(0.0)
        reg.observe("lock_wait", 1e-6)
        bus.finish(0.0)
        (frame,) = frames_of(bus)
        assert frame["t0"] == 0.0 and frame["t1"] == 0.0
        assert frame["histograms"]["lock_wait"]["count"] == 1

    def test_zero_duration_run_without_observations(self, tmp_path):
        bus, _, _ = bare_bus(tmp_path)
        bus.finish(0.0)
        assert frames_of(bus) == [] and bus.frames_emitted == 0

    def test_window_percentiles_use_sketch_resolution(self, tmp_path):
        # Three values within 40% of each other: each frame percentile
        # stays within the sketch's 1% of the true value.
        bus, reg, event = bare_bus(tmp_path)
        event(0.0)
        for v in (100e-9, 101e-9, 140e-9):
            reg.observe("lock_wait", v)
        bus.finish(1.0)
        h = frames_of(bus)[0]["histograms"]["lock_wait"]
        assert abs(h["p50"] - 101e-9) <= 0.01 * 101e-9 * 1.001
        assert abs(h["p99"] - 140e-9) <= 0.01 * 140e-9 * 1.001
        assert h["p50"] <= h["p95"] <= h["p99"]


class TestFeedReader:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        whole = read_feed(path)
        with path.open("a") as fh:
            fh.write('{"kind": "frame", "label": "torn", "t0"')
        assert len(read_feed(path)["frames"]) == len(whole["frames"])

    def test_bad_line_before_the_last_is_refused(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) > 2
        lines.insert(2, '{"kind": "frame", "t0"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path.name}:3: unparseable"):
            read_feed(path)

    def test_non_object_line_is_refused(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        with path.open("a") as fh:
            fh.write("[1]\n")
        with pytest.raises(ValueError, match="expected a JSON object, got list"):
            read_feed(path)

    def test_second_meta_line_is_refused(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        meta = path.read_text().splitlines()[0]
        with path.open("a") as fh:
            fh.write(meta + "\n")
        with pytest.raises(ValueError, match="second meta line"):
            read_feed(path)

    def test_missing_meta_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "frame", "t0": 0}\n')
        with pytest.raises(ValueError, match="no meta line"):
            read_feed(p)

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "meta", "schema": "other/9"}\n')
        with pytest.raises(ValueError, match="unsupported"):
            read_feed(p)

    def test_validate_flags_structural_problems(self):
        doc = {
            "meta": {"schema": LIVE_SCHEMA, "interval": 0},
            "frames": [{"label": "x", "seq": 0, "t0": 1.0, "t1": 1.0,
                        "events": 5, "d_events": 5,
                        "histograms": {"h": {"count": 1}}}],
        }
        problems = validate_feed(doc)
        assert any("interval" in p for p in problems)
        assert any("empty window" in p for p in problems)
        assert any("missing 'p50'" in p for p in problems)


class TestMergeAndRender:
    def test_latest_frames_picks_one_per_stream(self, tmp_path):
        _, a = run_with_feed(tmp_path, target="queue", name="a.jsonl")
        _, b = run_with_feed(tmp_path, target="steals", name="b.jsonl")
        doc = read_feed(a)
        doc["frames"] += read_feed(b)["frames"]
        latest = latest_frames(doc)
        assert [f["label"] for f in latest] == ["queue", "steals"]
        for f in latest:
            same = [g for g in doc["frames"] if g["label"] == f["label"]]
            assert f["seq"] == max(g["seq"] for g in same)

    def test_render_top_mentions_streams_and_metrics(self, tmp_path):
        _, path = run_with_feed(tmp_path, target="steals")
        text = render_top(read_feed(path))
        assert "steals" in text
        assert "p99" in text
        assert "events=" in text

    def test_render_top_empty_feed(self):
        assert "no frames" in render_top({"meta": {}, "frames": []})


class TestCli:
    def test_run_and_top(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        feed = tmp_path / "feed.jsonl"
        assert main(["run", "queue", "--live", str(feed),
                     "--live-interval", "0.00005"]) == 0
        assert main(["top", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "queue" in out and "p99" in out

    def test_top_rejects_non_feed(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        p = tmp_path / "x.jsonl"
        p.write_text(json.dumps({"schema": "nope"}) + "\n")
        assert main(["top", str(p)]) == 2
        assert str(p) in capsys.readouterr().err


def _walk(t: float, d: float, now: float) -> float:
    """The one-window-at-a-time walk that ``_window_start`` stands for."""
    while now >= t + d:
        t = t + d
    return t


@pytest.mark.parametrize("start", [0.0, 1.0, 1.0 + 2**-52, 0.75, 3e-4])
@pytest.mark.parametrize("ulps", [1.0, 1.5, 2.5, 3.0, 1023.5])
def test_window_start_matches_the_walk(start, ulps):
    # Half-ulp multiples round on ties; 1023.5 ulps crosses binades.
    d = ulps * math.ulp(start or 1.0)
    for steps in (0, 1, 2, 3, 10, 2000):
        for frac in (0.0, 0.3, 0.99):
            now = start + steps * d + frac * d
            assert _window_start(start, d, now) == _walk(start, d, now)

"""Crash flight recorder: bounded rings, failure dumps, env attachment.

The flight recorder's contract is forensic: whatever kills a run — a
deadlock, an invariant violation, or a SIGKILL'd fleet worker — the
last moments of every rank must already be (or immediately get) on
disk, from a ring whose memory never grows with run length.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.flight import (
    ENV_FLIGHT_DIR,
    ENV_FLIGHT_FLUSH,
    FLIGHT_SCHEMA,
    FlightRecorder,
    flight_from_env,
    load_flight_dump,
    maybe_attach_flight,
)
from repro.obs.record import InstantRecord, Recorder, SpanRecord
from repro.sim.engine import Engine
from repro.util.errors import SimDeadlockError


def _span(rank, start, end, name="work"):
    return SpanRecord(
        rank=rank, name=name, category="task", start=start, end=end, depth=0
    )


class TestRing:
    def test_ring_keeps_only_the_last_per_rank(self, tmp_path):
        fl = FlightRecorder(tmp_path / "f.json", per_rank=4)
        for i in range(100):
            fl.record_span(_span(0, i * 1.0, i + 0.5, name=f"s{i}"))
        fl.record_instant(InstantRecord(1.0, 1, "tick", "probe", None))
        fl.dump("test")
        doc = load_flight_dump(tmp_path / "f.json")
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["records_seen"] == 101
        assert [e["name"] for e in doc["rings"]["0"]] == ["s96", "s97", "s98", "s99"]
        assert doc["rings"]["1"][0]["kind"] == "instant"

    def test_periodic_flush_writes_without_failure(self, tmp_path):
        fl = FlightRecorder(tmp_path / "f.json", per_rank=8, flush_every=10)
        for i in range(25):
            fl.record_span(_span(0, i, i + 1))
        # 25 records, flush every 10 -> two periodic dumps already on disk
        assert fl.dumps == 2
        assert load_flight_dump(tmp_path / "f.json")["reason"] == "periodic"

    def test_load_rejects_foreign_schema(self, tmp_path):
        (tmp_path / "x.json").write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="x.json: unsupported schema 'other/1'"):
            load_flight_dump(tmp_path / "x.json")

    def test_load_names_the_file_of_a_torn_dump(self, tmp_path):
        fl = FlightRecorder(tmp_path / "f.json", per_rank=4)
        fl.record_span(_span(0, 0.0, 1.0))
        fl.dump("test")
        torn = tmp_path / "torn.json"
        torn.write_text((tmp_path / "f.json").read_text()[:40])
        with pytest.raises(ValueError, match="torn.json: torn or garbled"):
            load_flight_dump(torn)

    def test_load_rejects_a_non_object(self, tmp_path):
        (tmp_path / "x.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="x.json: expected a JSON object, got list"):
            load_flight_dump(tmp_path / "x.json")

    def test_load_rejects_a_dump_without_rings(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"schema": FLIGHT_SCHEMA}))
        with pytest.raises(ValueError, match="x.json: missing required key rings"):
            load_flight_dump(tmp_path / "x.json")


class TestEngineFailureDump:
    def test_deadlock_dumps_recent_spans(self, tmp_path):
        engine = Engine(2)
        flight = FlightRecorder(tmp_path / "f.json", per_rank=16)
        Recorder.attach(engine, flight=flight)

        def main(proc):
            from repro.obs.record import span

            with span(proc, "step", "task"):
                proc.compute(1e-6)
            if proc.rank == 1:
                yield from proc.co_park("never released")

        engine.spawn_all(main)
        with pytest.raises(SimDeadlockError):
            engine.run()
        doc = load_flight_dump(tmp_path / "f.json")
        assert doc["reason"] == "SimDeadlockError"
        assert "never released" in doc["error"]
        assert "0" in doc["rings"]  # both ranks ran at least one span
        assert doc["rings"]["0"][-1]["name"] == "step"

    def test_dump_never_masks_the_failure(self, tmp_path):
        """A broken flight recorder must not replace the real error."""
        engine = Engine(2)

        class Broken(FlightRecorder):
            def dump(self, *a, **k):
                raise OSError("disk full")

        Recorder.attach(engine, flight=Broken(tmp_path / "f.json"))
        def main(proc):
            if proc.rank:
                yield from proc.co_park("stuck")

        engine.spawn_all(main)
        with pytest.raises(SimDeadlockError):  # not OSError
            engine.run()


class TestInvariantFailureDump:
    def test_check_runner_dumps_on_violation(self, tmp_path, monkeypatch):
        from repro.check.invariants import Violation
        from repro.check.runner import run_once
        from repro.check.scenarios import make_scenario

        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))

        class AlwaysFails:
            def check(self, events, ctx):
                return [Violation("test_invariant", "planted failure")]

        scenario = make_scenario("queue")
        monkeypatch.setattr(scenario, "checkers", lambda: [AlwaysFails()])
        out = run_once(scenario, None)
        assert out.violations
        dumps = list(tmp_path.glob("flight-check-queue-*.json"))
        assert len(dumps) == 1
        doc = load_flight_dump(dumps[0])
        assert doc["reason"] == "invariant-failure"
        assert "test_invariant" in doc["error"]


class TestEnvAttachment:
    def test_no_env_no_flight(self, monkeypatch):
        monkeypatch.delenv(ENV_FLIGHT_DIR, raising=False)
        assert flight_from_env() is None
        assert maybe_attach_flight(Engine(1)) is None

    def test_env_attaches_storage_free_recorder(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))
        engine = Engine(2)
        flight = maybe_attach_flight(engine, context="unit/test run")
        assert flight is not None
        # context is sanitized into the filename
        assert "unit-test-run" in flight.path.name
        rec = Recorder.of(engine)
        assert rec is not None and rec.flight is flight
        assert rec.spans == []  # NullSink: the ring is the only retention

    def test_env_reuses_existing_recorder(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))
        engine = Engine(2)
        rec = Recorder.attach(engine)
        flight = maybe_attach_flight(engine)
        assert Recorder.of(engine) is rec and rec.flight is flight

    def test_flush_cadence_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))
        monkeypatch.setenv(ENV_FLIGHT_FLUSH, "7")
        assert flight_from_env().flush_every == 7

    def test_flight_does_not_perturb_the_run(self, tmp_path, monkeypatch):
        from repro.obs.scenarios import fingerprint, run_target

        base = fingerprint(run_target("steals", record=False))
        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))
        flight = flight_from_env(context="fp")
        with_flight = run_target("steals", flight=flight)
        assert fingerprint(with_flight) == base
        assert flight.records_seen > 0


class TestCrashReportDoc:
    def test_dump_is_valid_json_with_context(self, tmp_path):
        fl = FlightRecorder(tmp_path / "f.json")
        fl.context = {"context": "obs-queue"}
        fl.record_span(_span(3, 0.0, 1.0))
        path = fl.dump("worker-crash", error="SIGKILL", context={"job": "obs/queue"})
        doc = json.loads(path.read_text())
        assert doc["context"] == {"context": "obs-queue", "job": "obs/queue"}
        assert doc["error"] == "SIGKILL"
        assert sorted(doc["rings"]) == ["3"]

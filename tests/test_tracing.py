"""Tests for the optional event tracer."""

from __future__ import annotations

import pytest

from repro.core import Task, TaskCollection
from repro.sim.engine import Engine
from repro.obs.tracing import Tracer, trace


def _scioto_workload(eng):
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)

        def node(tc_, t):
            tc_.proc.compute(5e-6)
            if t.body < 30:
                yield from tc_.co_add(Task(callback=h, body=2 * t.body + 1))
                yield from tc_.co_add(Task(callback=h, body=2 * t.body + 2))

        h = tc.register(node)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h, body=0))
        yield from tc.co_process()

    eng.spawn_all(main)
    eng.run()


def test_tracer_records_steals_and_tokens():
    eng = Engine(4, seed=3, max_events=2_000_000)
    tracer = Tracer.attach(eng)
    _scioto_workload(eng)
    counts = tracer.counts()
    assert counts.get("steal", 0) >= 1
    assert counts.get("td-msg", 0) >= 3  # down + up + done at minimum
    # events carry valid coordinates
    for e in tracer.events:
        assert e.time >= 0
        assert 0 <= e.rank < 4


def test_tracing_off_by_default_costs_nothing():
    eng = Engine(3, seed=3, max_events=2_000_000)
    _scioto_workload(eng)
    assert Tracer.of(eng) is None


def test_tracing_does_not_perturb_virtual_time():
    def run(with_tracer):
        eng = Engine(3, seed=5, max_events=2_000_000)
        if with_tracer:
            Tracer.attach(eng)
        _scioto_workload(eng)
        return max(p.now for p in eng.procs)

    assert run(False) == run(True)


def test_render_and_filters():
    eng = Engine(2, seed=1, max_events=2_000_000)
    tracer = Tracer.attach(eng)

    def main(proc):
        proc.compute(1e-6)
        trace(proc, "custom", {"x": proc.rank})
        yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    text = tracer.render(kinds={"custom"})
    assert "custom" in text
    assert len(tracer.by_kind("custom")) == 2
    assert len(tracer.by_rank(1)) == 1


def test_capacity_limit_drops_and_reports():
    eng = Engine(1, max_events=100_000)
    tracer = Tracer.attach(eng, capacity=5)

    def main(proc):
        for i in range(10):
            trace(proc, "tick", i)

    eng.spawn_all(main)
    eng.run()
    assert len(tracer.events) == 5
    assert tracer.dropped == 5
    assert "dropped" in tracer.render()


def test_dropped_events_counted_in_counts_render_reports_total():
    """Drop accounting: every event past capacity increments ``dropped``
    exactly once, recorded events keep their order, and ``render``
    reports the overflow even when kind filters hide all kept events."""
    eng = Engine(2, max_events=100_000)
    tracer = Tracer.attach(eng, capacity=3)

    def main(proc):
        for i in range(4):
            trace(proc, f"kind{proc.rank}", i)
            proc.advance(1e-6)
            yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    assert len(tracer.events) == 3
    assert tracer.dropped == 2 * 4 - 3
    times = [e.time for e in tracer.events]
    assert times == sorted(times)
    filtered = tracer.render(kinds={"no-such-kind"})
    assert "5 events dropped" in filtered


def test_old_import_paths_are_gone():
    """The rename shims (``repro.sim.tracing``, ``repro.sim.trace``)
    lived for one release and have been removed; the old paths must now
    fail loudly rather than silently resolve to stale modules."""
    import importlib
    import sys

    for old in ("repro.sim.tracing", "repro.sim.trace"):
        sys.modules.pop(old, None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(old)

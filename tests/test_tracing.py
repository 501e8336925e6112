"""Tests for the optional event tracer."""

from __future__ import annotations

from collections import Counter

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
    counts = Counter(e.kind for e in tracer.events)
    assert counts.get("steal", 0) >= 1
    assert counts.get("td-msg", 0) >= 3  # down + up + done at minimum
    # events carry valid coordinates
    for e in tracer.events:
        assert e.time >= 0
        assert 0 <= e.rank < 4


def test_tracing_off_by_default_costs_nothing():
    eng = Engine(3, seed=3, max_events=2_000_000)
    _scioto_workload(eng)
    assert eng.tracer is None


def test_tracing_does_not_perturb_virtual_time():
    def run(with_tracer):
        eng = Engine(3, seed=5, max_events=2_000_000)
        if with_tracer:
            Tracer.attach(eng)
        _scioto_workload(eng)
        return max(p.now for p in eng.procs)

    assert run(False) == run(True)


def test_events_filter_by_kind_and_rank():
    eng = Engine(2, seed=1, max_events=2_000_000)
    tracer = Tracer.attach(eng)

    def main(proc):
        proc.compute(1e-6)
        trace(proc, "custom", {"x": proc.rank})
        yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    assert len([e for e in tracer.events if e.kind == "custom"]) == 2
    assert len([e for e in tracer.events if e.rank == 1]) == 1


def test_subscribers_get_their_kinds_with_global_indices():
    eng = Engine(2)
    got = []
    tracer = Tracer.subscribe(eng, ["b"], lambda *event: got.append(event))
    for rank, kind in [(0, "a"), (1, "b"), (0, "a"), (0, "b")]:
        tracer.record(eng.procs[rank], kind, rank)
    assert tracer.count == 4
    assert got == [(1, 1, "b", 1), (3, 0, "b", 0)]


def test_a_consumer_joining_after_an_event_is_refused():
    eng = Engine(2)
    tracer = Tracer.attach(eng)
    assert Tracer.attach(eng) is tracer  # idempotent before and after events
    tracer.record(eng.procs[0], "a")
    assert Tracer.attach(eng) is tracer
    with pytest.raises(RuntimeError, match="after 1 events were recorded"):
        Tracer.subscribe(eng, ["a"], lambda *event: None)
    late = Engine(2)
    Tracer.subscribe(late, ["a"], lambda *event: None).record(late.procs[0], "a")
    with pytest.raises(RuntimeError, match="after 1 events were recorded"):
        Tracer.attach(late)


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

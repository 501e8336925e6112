"""Span recording: nesting, ordering, zero-cost-off, capacity limits."""

from __future__ import annotations

from repro.obs.record import _NULL_SPAN, Recorder, instant, observe, span
from repro.sim.engine import Engine


def test_spans_nest_with_depth_and_parent():
    eng = Engine(2, max_events=100_000)
    rec = Recorder.attach(eng)

    def main(proc):
        with span(proc, "outer", "task"):
            proc.advance(10e-6)
            with span(proc, "inner", "comm"):
                proc.advance(2e-6)
            proc.advance(1e-6)
        yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    spans = rec.finished_spans()
    assert len(spans) == 4  # outer + inner per rank
    for r in range(2):
        outer = next(s for s in spans if s.rank == r and s.name == "outer")
        inner = next(s for s in spans if s.rank == r and s.name == "inner")
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1
        assert rec.spans[inner.parent] is outer
        # the child lies strictly inside the parent
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert abs(outer.duration - 13e-6) < 1e-12
        assert abs(inner.duration - 2e-6) < 1e-12


def test_span_ordering_is_monotone_per_rank():
    eng = Engine(3, seed=1, max_events=100_000)
    rec = Recorder.attach(eng)

    def main(proc):
        for i in range(5):
            with span(proc, f"step{i}", "runtime"):
                proc.advance((proc.rank + 1) * 1e-6)
            yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    for r in range(3):
        starts = [s.start for s in rec.spans if s.rank == r]
        assert starts == sorted(starts)
        assert len(starts) == 5


def test_hooks_are_noops_without_recorder():
    eng = Engine(1, max_events=100_000)

    def main(proc):
        ctx = span(proc, "ignored", "task")
        assert ctx is _NULL_SPAN  # shared singleton: no allocation per call
        with ctx:
            proc.advance(1e-6)
        observe(proc, "steal_latency", 1e-6)
        instant(proc, "marker")

    eng.spawn_all(main)
    eng.run()
    assert Recorder.of(eng) is None
    assert "obs" not in eng.state


def test_complete_span_and_instants():
    eng = Engine(1, max_events=100_000)
    rec = Recorder.attach(eng)

    def main(proc):
        t0 = proc.now
        proc.advance(5e-6)
        rec.complete_span(proc, "wave 1", "termination", t0, detail="white")
        instant(proc, "dirty-mark", "termination", detail=3)

    eng.spawn_all(main)
    eng.run()
    (s,) = rec.by_category("termination")
    assert s.name == "wave 1" and abs(s.duration - 5e-6) < 1e-12
    (i,) = rec.instants
    assert i.name == "dirty-mark" and i.detail == 3


def test_capacity_drops_spans_but_keeps_stack_consistent():
    eng = Engine(1, max_events=100_000)
    rec = Recorder.attach(eng, capacity=2)

    def main(proc):
        for i in range(5):
            with span(proc, f"s{i}", "task"):
                proc.advance(1e-6)

    eng.spawn_all(main)
    eng.run()
    assert len(rec.spans) == 2
    assert rec.dropped == 3
    assert all(s.end is not None for s in rec.spans)


def test_recorder_attach_is_idempotent():
    eng = Engine(1, max_events=1_000)
    a = Recorder.attach(eng)
    b = Recorder.attach(eng)
    assert a is b
    assert Recorder.of(eng) is a

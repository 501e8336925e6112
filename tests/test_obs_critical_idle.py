"""Edge cases for ``repro.obs.analyze.critical_idle``.

The happy path (a gap between two spans, overlapping covers) is tested
in ``test_obs_export.py``; these are the boundary conditions: an empty
recording, a single-rank run, and a run whose recording ends inside a
termination wave (open spans).
"""

from __future__ import annotations

from repro.obs.analyze import critical_idle, summarize
from repro.obs.record import SpanRecord
from repro.obs.scenarios import run_target


def _span(rank, name, cat, start, end):
    return SpanRecord(rank=rank, name=name, category=cat, start=start, end=end)


class TestEmptyRecording:
    def test_no_spans_yields_no_gaps(self):
        assert critical_idle([]) == []

    def test_only_open_spans_yields_no_gaps(self):
        # A run that aborted mid-span records end=None; those spans
        # cover nothing and must not crash the merge.
        open_span = SpanRecord(rank=0, name="wave 3", category="termination",
                               start=1.0, end=None)
        assert critical_idle([open_span]) == []

    def test_summarize_copes_with_empty_stream(self):
        assert "no finished spans" in summarize([])


class TestSingleRank:
    def test_single_rank_gap_found(self):
        spans = [
            _span(0, "t1", "task", 0.0, 1.0),
            _span(0, "t2", "task", 5.0, 6.0),
        ]
        (gap,) = critical_idle(spans)
        assert (gap.rank, gap.start, gap.end) == (0, 1.0, 5.0)

    def test_single_rank_real_run(self):
        # nprocs=1: no steals, no cross-rank tokens — gaps can only come
        # from scheduler polling, and the extent bounds must hold.
        run = run_target("uts-tiny", nprocs=1)
        spans = [s for s in run.recorder.spans if s.end is not None]
        assert spans and all(s.rank == 0 for s in spans)
        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
        for gap in critical_idle(spans, top=100):
            assert gap.rank == 0
            assert t0 <= gap.start < gap.end <= t1

    def test_no_gap_before_first_or_after_last_span(self):
        # Outside a rank's recorded extent nothing is known: no gaps.
        spans = [_span(0, "t", "task", 2.0, 3.0), _span(1, "u", "task", 0.0, 9.0)]
        assert critical_idle(spans) == []


class TestTerminationDuringWave:
    def test_open_wave_span_is_ignored(self):
        # The root launched a wave that never completed (recording ended
        # mid-wave): the open span must not mask the real gap.
        spans = [
            _span(0, "t1", "task", 0.0, 1.0),
            _span(0, "t2", "task", 4.0, 5.0),
            SpanRecord(rank=0, name="wave 9", category="termination",
                       start=0.5, end=None),
        ]
        (gap,) = critical_idle(spans)
        assert (gap.start, gap.end) == (1.0, 4.0)

    def test_completed_wave_span_masks_the_gap(self):
        # Same layout, but the wave completed: the rank was inside the
        # wave interval, so there is no uncovered stretch.
        spans = [
            _span(0, "t1", "task", 0.0, 1.0),
            _span(0, "t2", "task", 4.0, 5.0),
            _span(0, "wave 9", "termination", 0.5, 4.5),
        ]
        assert critical_idle(spans) == []

    def test_real_run_with_waves_has_consistent_gaps(self):
        # The termination scenario ends through a full wave protocol;
        # every reported gap must be bounded by real span names.
        run = run_target("termination")
        spans = [s for s in run.recorder.spans if s.end is not None]
        assert any(s.category == "termination" for s in spans)
        names = {s.name for s in spans}
        for gap in critical_idle(spans, top=10):
            assert gap.duration > 0
            assert gap.before in names and gap.after in names

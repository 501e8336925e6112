"""Causal graph, critical path, blame decomposition, what-if projection."""

from __future__ import annotations

import pytest

from repro.obs.critpath import (
    BLAME_CATEGORIES,
    CausalGraph,
    blame_profile,
    critical_path,
    edge_blame,
    render_critical_path,
)
from repro.obs.record import EdgeRecord, SpanRecord
from repro.obs.scenarios import run_target
from repro.obs.whatif import parse_scales, project, render_projection


def _span(rank, name, cat, start, end):
    return SpanRecord(rank=rank, name=name, category=cat, start=start, end=end)


def _edge(eid, kind, src_rank, src_time, dst_rank, dst_time, detail=None):
    return EdgeRecord(eid, kind, src_rank, src_time, dst_rank, dst_time, detail)


class TestBlameProfile:
    def test_covers_window_exactly(self):
        spans = [_span(0, "t", "task", 1.0, 3.0)]
        pieces = blame_profile(spans, 0.0, 4.0)
        assert pieces[0] == (0.0, 1.0, "idle")
        assert pieces[1] == (1.0, 3.0, "task")
        assert pieces[2] == (3.0, 4.0, "idle")
        assert sum(e - s for s, e, _ in pieces) == 4.0

    def test_innermost_span_wins(self):
        spans = [
            _span(0, "outer", "task", 0.0, 10.0),
            _span(0, "inner", "steal", 2.0, 5.0),
        ]
        pieces = blame_profile(spans, 0.0, 10.0)
        assert (2.0, 5.0, "steal") in pieces

    def test_transparent_comm_falls_through_to_enclosing(self):
        spans = [
            _span(0, "steal", "steal", 0.0, 4.0),
            _span(0, "get", "comm", 1.0, 2.0),  # comm inside a steal = steal
        ]
        pieces = blame_profile(spans, 0.0, 4.0)
        assert pieces == [(0.0, 4.0, "steal")]

    def test_bare_comm_blames_comm(self):
        spans = [_span(0, "get", "comm", 0.0, 1.0)]
        assert blame_profile(spans, 0.0, 1.0) == [(0.0, 1.0, "comm")]

    def test_empty_and_degenerate_windows(self):
        assert blame_profile([], 0.0, 2.0) == [(0.0, 2.0, "idle")]
        assert blame_profile([], 1.0, 1.0) == []


class TestCausalGraph:
    def test_segments_cut_at_edge_endpoints(self):
        spans = [_span(0, "t", "task", 0.0, 10.0), _span(1, "u", "task", 0.0, 10.0)]
        edges = [_edge(0, "steal", 0, 4.0, 1, 6.0)]
        g = CausalGraph.build(spans, edges, nprocs=2)
        assert g.points[0] == [0.0, 4.0, 10.0]
        assert g.points[1] == [0.0, 6.0, 10.0]
        assert g.makespan == 10.0

    def test_segment_blame_durations_cover_rank_timeline(self):
        spans = [_span(0, "t", "task", 2.0, 8.0)]
        g = CausalGraph.build(spans, [], nprocs=1)
        total = sum(sum(b.values()) for b in g.segments[0])
        assert total == pytest.approx(g.makespan)

    def test_end_rank_is_the_rank_whose_activity_reaches_t1(self):
        spans = [
            _span(0, "short", "task", 0.0, 4.0),
            _span(1, "long", "task", 0.0, 10.0),
        ]
        g = CausalGraph.build(spans, [], nprocs=2)
        assert g.end_rank == 1


class TestCriticalPath:
    def test_single_rank_path_is_its_whole_timeline(self):
        spans = [_span(0, "t", "task", 0.0, 5.0)]
        g = CausalGraph.build(spans, [], nprocs=1)
        path = critical_path(g)
        assert path.makespan == 5.0
        assert sum(path.blame().values()) == pytest.approx(5.0)
        assert path.blame()["task"] == pytest.approx(5.0)
        assert path.hops() == 0

    def test_path_hops_across_edge_when_destination_was_waiting(self):
        # Rank 1 idles until a steal edge releases it at t=6, then works.
        spans = [
            _span(0, "work", "task", 0.0, 6.0),
            _span(1, "stolen", "task", 6.0, 10.0),
        ]
        edges = [_edge(0, "steal", 0, 4.0, 1, 6.0)]
        g = CausalGraph.build(spans, edges, nprocs=2)
        path = critical_path(g)
        assert path.hops() == 1
        kinds = [s.kind for s in path.steps]
        assert kinds[-1] == "local" and "edge" in kinds
        # contiguity => exact decomposition
        assert sum(path.blame().values()) == pytest.approx(path.makespan)
        assert path.blame()["steal"] == pytest.approx(2.0)  # the 4->6 hop

    def test_path_stays_local_when_destination_was_busy(self):
        # Rank 1 was computing when the edge arrived: no hop.
        spans = [
            _span(0, "work", "task", 0.0, 6.0),
            _span(1, "busy", "task", 0.0, 10.0),
        ]
        edges = [_edge(0, "steal", 0, 4.0, 1, 6.0)]
        g = CausalGraph.build(spans, edges, nprocs=2)
        path = critical_path(g)
        assert path.hops() == 0
        assert all(s.rank == 1 for s in path.steps)

    def test_zero_latency_edge_cannot_bind(self):
        spans = [_span(1, "w", "task", 4.0, 10.0)]
        edges = [_edge(0, "dirty", 0, 4.0, 1, 4.0)]
        g = CausalGraph.build(spans, edges, nprocs=2)
        path = critical_path(g)  # must terminate and stay contiguous
        assert sum(path.blame().values()) == pytest.approx(path.makespan)

    def test_steps_are_time_ordered_and_contiguous(self):
        run = run_target("steals")
        g = CausalGraph.from_recorder(run.recorder)
        path = critical_path(g)
        assert path.steps
        t = path.t0
        for step in path.steps:
            assert step.start == pytest.approx(t)
            t = step.end
        assert t == pytest.approx(path.t1)

    def test_blame_sums_to_makespan_on_real_run(self):
        run = run_target("uts-tiny")
        g = CausalGraph.from_recorder(run.recorder)
        path = critical_path(g)
        assert g.makespan == pytest.approx(run.elapsed)
        assert sum(path.blame().values()) == pytest.approx(path.makespan)
        assert sum(path.blame_fractions().values()) == pytest.approx(1.0)
        assert set(path.blame()) <= set(BLAME_CATEGORIES)

    def test_render_mentions_every_blamed_category(self):
        run = run_target("steals")
        g = CausalGraph.from_recorder(run.recorder)
        path = critical_path(g)
        text = render_critical_path(path, g, top=3)
        assert "critical path:" in text
        for cat in path.blame():
            assert cat in text


class TestEdgeBlame:
    def test_kind_mapping(self):
        assert edge_blame(_edge(0, "steal", 0, 0, 1, 1)) == "steal"
        assert edge_blame(_edge(0, "lock", 0, 0, 1, 1)) == "lock"
        assert edge_blame(_edge(0, "dirty", 0, 0, 1, 1)) == "wave"
        assert edge_blame(_edge(0, "spawn", 0, 0, 1, 1)) == "task"
        assert edge_blame(_edge(0, "msg", 0, 0, 1, 1, detail="td:tc0:g1")) == "wave"
        assert edge_blame(_edge(0, "msg", 0, 0, 1, 1, detail="app")) == "comm"


class TestWhatIf:
    def test_identity_scales_reproduce_measured_makespan(self):
        run = run_target("uts-tiny")
        g = CausalGraph.from_recorder(run.recorder)
        proj = project(g, {})
        assert proj.projected_makespan == pytest.approx(proj.measured_makespan)
        assert proj.speedup == pytest.approx(1.0)

    def test_shrinking_any_category_never_slows_the_projection(self):
        run = run_target("uts-tiny")
        g = CausalGraph.from_recorder(run.recorder)
        for cat in ("task", "steal", "lock", "wave", "comm"):
            proj = project(g, {cat: 0.5})
            assert proj.projected_makespan <= proj.measured_makespan + 1e-12

    def test_halving_everything_projects_a_real_speedup(self):
        run = run_target("uts-tiny")
        g = CausalGraph.from_recorder(run.recorder)
        scales = {cat: 0.5 for cat in BLAME_CATEGORIES}
        proj = project(g, scales)
        assert proj.speedup > 1.0
        assert "projected speedup" in render_projection(proj)

    def test_elastic_wait_shrinks_with_its_releasing_edge(self):
        # Rank 1's idle until the steal landed is slack: halving the
        # producer's task time must pull the whole makespan in.
        spans = [
            _span(0, "work", "task", 0.0, 6.0),
            _span(1, "stolen", "task", 6.0, 10.0),
        ]
        edges = [_edge(0, "steal", 0, 6.0, 1, 6.0)]
        g = CausalGraph.build(spans, edges, nprocs=2)
        proj = project(g, {"task": 0.5})
        assert proj.projected_makespan == pytest.approx(5.0)  # 3 + 2

    def test_non_elastic_idle_is_not_shrunk(self):
        # No edge explains the gap, so the projection refuses to close it.
        spans = [
            _span(0, "a", "task", 0.0, 2.0),
            _span(0, "b", "task", 6.0, 8.0),
        ]
        g = CausalGraph.build(spans, [], nprocs=1)
        proj = project(g, {"task": 0.5})
        assert proj.projected_makespan == pytest.approx(6.0)  # 1 + 4 + 1

    def test_parse_scales(self):
        assert parse_scales(["steal=0.5", "task=2"]) == {"steal": 0.5, "task": 2.0}
        with pytest.raises(ValueError):
            parse_scales(["steal"])
        with pytest.raises(ValueError):
            parse_scales(["bogus=0.5"])
        with pytest.raises(ValueError):
            parse_scales(["steal=-1"])

    @pytest.mark.parametrize("factor", ["nan", "inf", "-1", "x"])
    def test_cli_refuses_bad_factor_naming_the_flag(self, factor, capsys):
        from repro.obs.__main__ import main

        assert main(["whatif", "uts-tiny", "--scale", f"steal={factor}"]) == 2
        assert "--scale" in capsys.readouterr().err


class TestDeterminism:
    def test_path_and_projection_identical_across_runs(self):
        def once():
            run = run_target("steals")
            g = CausalGraph.from_recorder(run.recorder)
            path = critical_path(g)
            proj = project(g, {"steal": 0.5})
            return (
                [(s.kind, s.rank, s.start, s.end) for s in path.steps],
                path.blame(),
                proj.projected_makespan,
            )

        assert once() == once()

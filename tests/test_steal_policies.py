"""Tests for uniform random victim selection (§5.1)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.uts import UTSParams, count_tree, run_uts_scioto
from repro.core.stealing import RandomSelector
from repro.sim.engine import run_spmd

SMALL = UTSParams(b0=4.0, gen_mx=8, root_seed=6)


class TestSelectors:
    def test_never_selects_self(self):
        def main(proc):
            sel = RandomSelector(proc)
            picks = [sel.next_victim() for _ in range(50)]
            return picks

        res = run_spmd(5, main, seed=9)
        for rank, picks in enumerate(res.returns):
            assert all(0 <= v < 5 and v != rank for v in picks), (rank, picks)


class TestPoliciesEndToEnd:
    def test_uts_exact(self):
        ref = count_tree(SMALL)
        r = run_uts_scioto(4, SMALL, seed=2, max_events=3_000_000)
        assert r.stats.nodes == ref.nodes

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_policies_deterministic(self, seed):
        a = run_uts_scioto(3, SMALL, seed=seed, max_events=3_000_000)
        b = run_uts_scioto(3, SMALL, seed=seed, max_events=3_000_000)
        assert a.elapsed == b.elapsed
        assert a.total_steals == b.total_steals

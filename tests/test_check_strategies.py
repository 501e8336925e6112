"""Tests for the scheduling strategies and the engine's strategy hook."""

from __future__ import annotations

import pytest

from repro.check.runner import run_once
from repro.check.scenarios import make_scenario
from repro.check.strategies import (
    DeterministicStrategy,
    PctStrategy,
    RandomWalk,
    ReplayStrategy,
    make_strategy,
)
from repro.sim.engine import SchedulingStrategy, run_spmd


def small_spmd(proc):
    """A tiny workload with real cross-rank interaction (shared syncs)."""
    for i in range(8):
        proc.compute(1e-6 * ((proc.rank + i) % 3 + 1))
        yield from proc.co_sync()
    return proc.now


class TestDefaultDeterminism:
    def test_base_strategy_is_bit_for_bit_identical(self):
        """The acceptance bar for the engine refactor: a no-op strategy
        must reproduce the historical schedule exactly."""
        baseline = run_spmd(4, small_spmd, seed=3)
        with_hook = run_spmd(4, small_spmd, seed=3, strategy=SchedulingStrategy())
        explicit = run_spmd(4, small_spmd, seed=3, strategy=DeterministicStrategy())
        assert with_hook.elapsed == baseline.elapsed
        assert with_hook.events == baseline.events
        assert with_hook.finish_times == baseline.finish_times
        assert explicit.elapsed == baseline.elapsed
        assert explicit.events == baseline.events

    def test_scenarios_identical_under_none_and_deterministic(self):
        for target in ("queue", "termination"):
            scenario = make_scenario(target)
            a = run_once(scenario, None)
            b = run_once(make_scenario(target), DeterministicStrategy())
            assert a.error is None and b.error is None
            assert a.events == b.events


class TestRandomWalk:
    def test_same_seed_same_schedule(self):
        a = run_once(make_scenario("queue"), RandomWalk(seed=11))
        b = run_once(make_scenario("queue"), RandomWalk(seed=11))
        assert a.decisions == b.decisions
        assert a.events == b.events

    def test_different_seeds_diverge(self):
        a = run_once(make_scenario("queue"), RandomWalk(seed=1))
        b = run_once(make_scenario("queue"), RandomWalk(seed=2))
        assert a.decisions != b.decisions

    def test_clean_protocol_has_no_violations(self):
        for seed in range(5):
            out = run_once(make_scenario("queue"), RandomWalk(seed=seed))
            assert out.error is None
            assert out.violations == []


class TestPct:
    def test_completes_despite_poll_loops(self):
        """Strict PCT priorities starve pollers; the fairness bound must
        keep every scenario terminating."""
        for target in ("queue", "termination", "graph"):
            out = run_once(make_scenario(target), PctStrategy(seed=0))
            assert out.error is None, out.describe()

    def test_reproducible(self):
        a = run_once(make_scenario("termination"), PctStrategy(seed=5))
        b = run_once(make_scenario("termination"), PctStrategy(seed=5))
        assert a.decisions == b.decisions


class TestReplay:
    def test_replay_reproduces_event_count(self):
        original = run_once(make_scenario("queue"), RandomWalk(seed=7))
        replayed = run_once(make_scenario("queue"), ReplayStrategy(original.decisions))
        assert replayed.events == original.events
        assert replayed.error is None

    def test_replay_records_decisions_it_consumed(self):
        original = run_once(make_scenario("queue"), RandomWalk(seed=7))
        strategy = ReplayStrategy(original.decisions)
        run_once(make_scenario("queue"), strategy)
        assert strategy.divergences == 0

    def test_empty_trace_falls_back_to_default_order(self):
        out = run_once(make_scenario("queue"), ReplayStrategy([]))
        assert out.error is None


class TestFactory:
    def test_known_names(self):
        for name in ("random", "pct", "delay", "deterministic"):
            assert make_strategy(name, seed=1) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("fuzz", seed=0)

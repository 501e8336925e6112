"""Explored schedules are pinned by content hash.

Exploration, replay and minimisation in ``repro.check`` all run on the
engine's exploring path (a strategy with ``explores = True``: every
resume goes through ``SchedulingStrategy.choose``).  These goldens fix,
for each exploring strategy × check scenario × strategy seed, what the
strategy was shown and what its choices did:

* the recorded decision list;
* every candidate list handed to ``choose`` — captured by a recording
  subclass, this is the only thing that pins candidate *order*;
* the per-rank finish clocks, the event count and the verdict.

The hashes were computed on the heap-scanning exploring path that the
per-rank entry slot replaced; a change to what a strategy sees, or to
what its picks do, changes them.  The witness traces of the two seeded
bugs the predictive analyzer confirms are pinned the same way.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analyze.predict import predict
from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import (
    DelayInjector,
    PctStrategy,
    RandomWalk,
    ReplayStrategy,
)
from repro.check.traces import DecisionTrace

SEEDS = range(6)
ENGINE_SEED = 0


def _recording(cls):
    """``cls`` plus a log of every candidate list passed to ``choose``."""

    class Recording(cls):
        def choose(self, candidates):
            self.seen.append(list(candidates))
            return super().choose(candidates)

    return Recording


_RECORDING = {
    "random": _recording(RandomWalk),
    "pct": _recording(PctStrategy),
    "delay": _recording(DelayInjector),
}


def _run(target, strategy):
    engines = []
    outcome = run_once(
        make_scenario(target), strategy, engine_seed=ENGINE_SEED,
        engine_hook=engines.append,
    )
    return outcome, [p.now for p in engines[0].procs]


def _digest(strategy_name, target):
    rows = []
    for seed in SEEDS:
        strategy = _RECORDING[strategy_name](seed=seed)
        strategy.seen = []
        outcome, clocks = _run(target, strategy)
        rows.append([
            outcome.decisions,
            strategy.seen,
            clocks,
            outcome.events,
            outcome.signature_json,
            outcome.describe(),
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


GOLDENS = {
    ("delay", "graph"): "361c928b7fb5552571114ab9a217b527c54540b1354b49ad4696cd5fa26eb7e9",
    ("delay", "queue"): "a820d26eebf62e8a277cc2e463ca6f7af4714349a44ada32932ff8ef94a7ff99",
    ("delay", "queue-wf"): "08a9d095aa0e0b90d7079fd4668470752250955052d38379aff4c95348f8885f",
    ("delay", "steals"): "c91d2dc85cf4275149a1c7c8418d42073a52b4d210acc238c8e8a9978674b830",
    ("delay", "termination"): "d17b5fe1f9adc95540b053a4e709803e291c560d8bff7dbd12788e3096590074",
    ("delay", "waitfree"): "db318d970f9cdb14982c8d47b0f2fd1b93fc9b057885da60e20be6537dec3e33",
    ("pct", "graph"): "119d162528eaf79092d340086d6151b4ac02b4ee2be86669067c21af5d47d8fb",
    ("pct", "queue"): "87dace0b085c3465f388962474450a4ca22305dc31952af625f8745853bc33cc",
    ("pct", "queue-wf"): "74176cf5f9672ef362dbb67c1ce37f3a2ae8026b1d98423b13f2ff513e26f36a",
    ("pct", "steals"): "effefa830324beb48eb0ade4d1f6e1e9e34a47d4ddff7975135da3883298047b",
    ("pct", "termination"): "a98765c213413009303d724b446fd9b7d37cb59b09f2276b8fa56e1e7ae6418a",
    ("pct", "waitfree"): "5de1d5cb43891fdec4d49810eb6430f8552c275aeae8e75cc6e08b07db7c59d1",
    ("random", "graph"): "c0acdca6b25a95d4af2645edc650fab3ab8c87e69a6fdc0c4b9d03ebf87e164e",
    ("random", "queue"): "8340c59c8a4b44cdbfac4a32fa233db0d97b6b44b5218d5fabdf9ea164f6026e",
    ("random", "queue-wf"): "f4e1eff0b10a80f41d90826b775debb92210b8c886d48bb4c81801f2ae41d667",
    ("random", "steals"): "f842bdcda04ad3aa93e3b06a39037e849ba5ceaf52f3f3fc224dffc051d730bb",
    ("random", "termination"): "c53a608530d7dec0831e73643a6628856a3fee083f723e9fab986819d3ddd288",
    ("random", "waitfree"): "7d2f0e674cb73285a5c0dac9ab10e185c73aa8aeef776e6198e0ac2d6ea9325d",
}


@pytest.mark.parametrize("target", sorted(SCENARIOS))
@pytest.mark.parametrize("strategy_name", sorted(_RECORDING))
def test_explored_schedules_match_golden(strategy_name, target):
    assert _digest(strategy_name, target) == GOLDENS[strategy_name, target]


def test_replay_round_trip_has_no_divergences(tmp_path):
    recorded, clocks = _run("termination", RandomWalk(seed=3))
    assert recorded.decisions
    trace = DecisionTrace(
        target="termination", strategy="random", strategy_seed=3,
        engine_seed=ENGINE_SEED, nprocs=make_scenario("termination").nprocs,
        schedule_index=0, failure=recorded.describe(),
        signature=recorded.signature_json, decisions=recorded.decisions,
    )
    loaded = DecisionTrace.load(trace.save(tmp_path / "t.trace.json"))
    replayer = ReplayStrategy(loaded.decisions)
    replayed, replay_clocks = _run("termination", replayer)
    assert replayer.divergences == 0
    assert not replayer._picks  # every recorded pick was consumed
    assert replay_clocks == clocks
    assert replayed.events == recorded.events


#: mutation -> (prediction kind, how it was confirmed, witness decisions)
WITNESSES = {
    "late_dirty_mark": (
        "steal-after-vote",
        "mark-after-vote-window (transfer seq 79 -> victim vote seq 106 "
        "-> mark seq 110)",
        293,
    ),
    "lock_order_inversion": ("deadlock", "deadlock-cycle-closed", 39),
}


@pytest.mark.parametrize("mutation", sorted(WITNESSES))
def test_seeded_bug_witnesses_match_golden(tmp_path, mutation):
    report = predict("steals", mutation=mutation, out_dir=tmp_path)
    confirmed = [p for p in report.predictions if p.status == "CONFIRMED"]
    assert confirmed
    p = confirmed[0]
    assert p.replay_ok is True
    decisions = DecisionTrace.load(p.trace_path).decisions
    want_kind, want_how, want_count = WITNESSES[mutation]
    assert (p.kind, p.confirmed_how, len(decisions)) == (
        want_kind, want_how, want_count,
    )

"""The target table: app presets on the checker's run path.

``repro.targets`` gives the UTS, SCF and TCE presets the same
``Scenario`` interface as the protocol drivers, so ``run_once`` explores
them, ``replay`` rebuilds them and ``run_target`` records them.
"""

from __future__ import annotations

import pytest

from repro.check.runner import replay, run_once
from repro.check.scenarios import SCENARIOS
from repro.check.strategies import make_strategy
from repro.check.traces import DecisionTrace
from repro.obs.scenarios import run_target
from repro.targets import APP_TARGETS, TARGETS, make_target

APPS = ["uts-tiny", "scf", "tce"]

#: The default schedule, then two random and two PCT schedules.
SCHEDULES = [None, ("random", 0), ("random", 1), ("pct", 0), ("pct", 1)]


def test_table_is_the_scenarios_then_the_presets():
    assert TARGETS == (*SCENARIOS, *APP_TARGETS)
    assert len(SCENARIOS) == 6
    with pytest.raises(ValueError, match="unknown target 'nonesuch'"):
        make_target("nonesuch")


def test_nprocs_sizes_presets_only():
    assert make_target("tce", nprocs=3).nprocs == 3
    assert make_target("queue", nprocs=7).nprocs == 3


@pytest.mark.parametrize("target", APPS)
def test_app_presets_are_invariant_clean(target):
    for schedule in SCHEDULES:
        strategy = None if schedule is None else make_strategy(*schedule)
        out = run_once(make_target(target), strategy)
        assert not out.failed, (schedule, out.describe())
        assert out.events > 0


def test_persisted_uts_trace_replays(tmp_path):
    out = run_once(make_target("uts-tiny", nprocs=3), make_strategy("pct", 2))
    trace = DecisionTrace(
        target="uts-tiny", strategy="pct", strategy_seed=2, engine_seed=0,
        nprocs=3, schedule_index=0, failure=out.describe(),
        signature=out.signature_json, decisions=out.decisions,
    )
    loaded = DecisionTrace.load(trace.save(tmp_path / "uts.trace.json"))
    again = replay(loaded)
    assert again.signature_json == loaded.signature
    assert (again.events, again.decisions) == (out.events, out.decisions)


@pytest.mark.parametrize(
    "kwargs", [{"live_interval": 0}, {"live_interval": -1e-6}, {"shard_size": 0}]
)
def test_run_target_passes_explicit_values_through(tmp_path, kwargs):
    with pytest.raises(ValueError):
        run_target(
            "queue", live_path=tmp_path / "feed.jsonl", stream_dir=tmp_path / "spill",
            **kwargs,
        )

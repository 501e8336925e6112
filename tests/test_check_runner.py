"""End-to-end tests for the explore / persist / replay / minimize loop."""

from __future__ import annotations

import json
import os

import pytest

from repro.check import runner
from repro.check.invariants import CheckContext
from repro.check.runner import explore, replay, run_once
from repro.check.scenarios import SCENARIOS, Scenario, make_scenario
from repro.check.strategies import RandomWalk, ReplayStrategy
from repro.check.traces import DecisionTrace, minimize_decisions
from repro.sim.resources import SimMutex


class TestCleanExploration:
    def test_queue_survives_exploration(self, tmp_path):
        res = explore("queue", schedules=30, seed=0, out_dir=tmp_path)
        assert res.ok
        assert res.schedules_run == 30
        assert list(tmp_path.iterdir()) == []  # no failures -> no trace files

    def test_graph_survives_exploration(self, tmp_path):
        res = explore("graph", schedules=15, seed=0, out_dir=tmp_path)
        assert res.ok

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            explore("nonsense", schedules=1)


class TestCampaign:
    """One campaign over several targets, validated before it runs."""

    @pytest.mark.parametrize("schedules", [0, -5])
    def test_schedules_below_one_rejected(self, schedules):
        with pytest.raises(ValueError, match="schedules must be >= 1"):
            explore("queue", schedules=schedules)

    def test_unknown_target_rejected_before_any_schedule_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(runner, "run_once", lambda *a, **k: runs.append(a))
        with pytest.raises(ValueError, match="unknown target 'nonsense'"):
            explore(["queue", "nonsense"], schedules=3)
        assert runs == []

    def test_repeated_targets_collapse_in_order(self, tmp_path):
        res = explore(["steals", "queue", "steals"], schedules=4, out_dir=tmp_path)
        assert res.targets == ["steals", "queue"]
        assert res.schedules_run == 8

    def test_flight_dir_armed_in_process(self, tmp_path, monkeypatch):
        """At jobs=1 the shards run in this process; --flight-dir must
        still reach every engine run, and only for the campaign."""
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        monkeypatch.setenv("REPRO_FLIGHT_FLUSH_EVERY", "64")  # dump clean runs too
        flight = tmp_path / "flight"
        assert explore("queue", schedules=1, out_dir=tmp_path, flight_dir=flight).ok
        assert list(flight.glob("flight-check-queue-*.json"))
        assert "REPRO_FLIGHT_DIR" not in os.environ


class TestMutationCaught:
    def test_unlocked_split_caught_and_minimized(self, tmp_path):
        """A queue with the split-move lock removed must be caught well
        within 500 schedules (schedule #4 fails), and the failure must
        come back as a minimized, replayable trace."""
        res = explore(
            "queue",
            schedules=10,
            seed=0,
            mutation="unlocked_split",
            out_dir=tmp_path,
        )
        assert not res.ok
        failure = res.failures[0]
        assert failure.outcome.signature[0] == "invariants"
        assert "queue-consistency" in failure.outcome.signature[1]
        assert failure.replay_confirmed
        assert failure.trace_path is not None and failure.trace_path.exists()
        assert failure.minimized_path is not None and failure.minimized_path.exists()
        assert failure.decisions_minimized <= failure.decisions_total

        # the minimized trace still reproduces the same failure class
        min_trace = DecisionTrace.load(failure.minimized_path)
        outcome = replay(min_trace)
        assert outcome.signature_json == min_trace.signature

    def test_without_mutation_same_seeds_are_clean(self, tmp_path):
        res = explore("queue", schedules=50, seed=0, out_dir=tmp_path)
        assert res.ok

    def test_no_dirty_mark_caught_on_steal_workload(self, tmp_path):
        """Dropping §5.3's steal marking lets the root terminate early;
        the steal-only scenario exposes it at low depth."""
        res = explore(
            "steals",
            schedules=2,
            seed=0,
            mutation="no_dirty_mark",
            out_dir=tmp_path,
        )
        assert not res.ok
        failure = res.failures[0]
        kind = failure.outcome.signature[0]
        assert kind in ("invariants", "error")
        if kind == "invariants":
            assert set(failure.outcome.signature[1]) & {
                "no-early-termination",
                "exactly-once",
            }
        assert failure.replay_confirmed


class DeadlockScenario(Scenario):
    """Two mutexes acquired in opposite orders, staggered so the default
    schedule completes but adversarial interleavings deadlock."""

    name = "deadlock-demo"
    nprocs = 2
    max_events = 50_000

    def build(self, engine):
        a = SimMutex(engine, 0, "A")
        b = SimMutex(engine, 1, "B")

        def main(proc):
            if proc.rank == 1:
                # default order: rank 0 completes both (remote) acquires
                # before rank 1 wakes; only reordered schedules deadlock
                yield from proc.co_sleep(40e-6)
            first, second = (a, b) if proc.rank == 0 else (b, a)
            yield from first.co_acquire(proc)
            yield from proc.co_sleep(1e-6)
            yield from second.co_acquire(proc)
            yield from second.co_release(proc)
            yield from first.co_release(proc)

        engine.spawn_all(main)
        return CheckContext(expect_complete=False)

    def checkers(self):
        return []


@pytest.fixture
def deadlock_target():
    SCENARIOS["deadlock-demo"] = DeadlockScenario
    try:
        yield "deadlock-demo"
    finally:
        del SCENARIOS["deadlock-demo"]


class TestDeadlockExploration:
    def test_default_schedule_is_clean(self, deadlock_target):
        out = run_once(make_scenario(deadlock_target), None)
        assert out.error is None

    def test_exploration_finds_and_replays_the_deadlock(self, deadlock_target, tmp_path):
        res = explore(deadlock_target, schedules=200, seed=0, out_dir=tmp_path)
        assert not res.ok
        failure = res.failures[0]
        assert failure.outcome.signature == ("deadlock", (0, 1))
        assert sorted(r for r, _ in failure.outcome.parked) == [0, 1]
        assert failure.replay_confirmed

        trace = DecisionTrace.load(failure.trace_path)
        replayed = replay(trace)
        assert replayed.signature == ("deadlock", (0, 1))


class TestTraces:
    def test_roundtrip(self, tmp_path):
        trace = DecisionTrace(
            target="queue",
            strategy="random",
            strategy_seed=4,
            engine_seed=0,
            nprocs=3,
            schedule_index=9,
            failure="[queue-consistency] boom",
            mutation="unlocked_split",
            signature=["invariants", ["queue-consistency"]],
            decisions=[{"k": "pick", "rank": 1}, {"k": "delay", "i": 3, "s": 1e-6, "site": "sync"}],
        )
        path = trace.save(tmp_path / "t.json")
        loaded = DecisionTrace.load(path)
        assert loaded == trace

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99}')
        with pytest.raises(ValueError, match="unsupported trace format"):
            DecisionTrace.load(path)

    def test_minimize_to_single_culprit(self):
        decisions = [{"k": "pick", "rank": r} for r in range(40)]
        culprit = {"k": "pick", "rank": 7}

        def reproduces(ds):
            return culprit in ds

        minimized, replays = minimize_decisions(decisions, reproduces)
        assert minimized == [culprit]
        assert replays > 0

    def test_minimize_respects_replay_budget(self):
        decisions = [{"k": "pick", "rank": r} for r in range(64)]
        calls = []

        def reproduces(ds):
            calls.append(1)
            return len(ds) >= 2  # any two decisions reproduce

        minimize_decisions(decisions, reproduces, max_replays=10)
        assert len(calls) <= 10


def _good_trace():
    return DecisionTrace(
        target="queue", strategy="random", strategy_seed=0, engine_seed=0,
        nprocs=3, schedule_index=0, failure="ok",
        decisions=[{"k": "pick", "rank": 2}, {"k": "delay", "i": 0, "s": 1e-6, "site": "sync"}],
    )


def _write_corrupt(tmp_path, case):
    """Save a good trace as ``<case>.json``, then damage it as ``case`` says."""
    path = _good_trace().save(tmp_path / f"{case}.json")
    if case == "torn":
        path.write_text(path.read_text()[:-40])
        return path
    doc = json.loads(path.read_text())
    _CORRUPT[case][0](doc)
    path.write_text(json.dumps(doc))
    return path


#: case -> (damage to the saved JSON object, expected ValueError message)
_CORRUPT = {
    "missing-key": (lambda d: d.pop("engine_seed"), "missing required key"),
    "unknown-kind": (lambda d: d["decisions"].append({"k": "jump"}), "decision 2 is neither"),
    "pick-without-rank": (lambda d: d["decisions"][0].pop("rank"), "decision 0 is neither"),
    "delay-without-seconds": (lambda d: d["decisions"][1].pop("s"), "decision 1 is neither"),
    "rank-out-of-range": (
        lambda d: d["decisions"][0].update(rank=3), r"picks rank 3, outside \[0, 3\)"
    ),
    "negative-rank": (
        lambda d: d["decisions"][0].update(rank=-1), r"picks rank -1, outside \[0, 3\)"
    ),
    "engine-seed-string": (
        lambda d: d.update(engine_seed="abc"), "engine_seed must be an integer, not 'abc'"
    ),
    "engine-seed-float": (
        lambda d: d.update(engine_seed=1.5), "engine_seed must be an integer, not 1.5"
    ),
    "strategy-seed-bool": (
        lambda d: d.update(strategy_seed=True), "strategy_seed must be an integer"
    ),
    "schedule-index-null": (
        lambda d: d.update(schedule_index=None), "schedule_index must be an integer"
    ),
    "delay-seconds-string": (
        lambda d: d["decisions"][1].update(s="x"), "decision 1 is a delay without"
    ),
    "delay-seconds-bool": (
        lambda d: d["decisions"][1].update(s=True), "decision 1 is a delay without"
    ),
    "delay-index-float": (
        lambda d: d["decisions"][1].update(i=0.5), "decision 1 is a delay without"
    ),
    "nprocs": (lambda d: d.update(nprocs=4), None),  # loads; replay refuses it
}


class TestBadTraces:
    """A trace that is not whole fails typed, naming the file."""

    def test_torn_json(self, tmp_path):
        path = _write_corrupt(tmp_path, "torn")
        with pytest.raises(ValueError, match=r"torn\.json: torn or garbled JSON"):
            DecisionTrace.load(path)

    @pytest.mark.parametrize("case", sorted(c for c in _CORRUPT if _CORRUPT[c][1]))
    def test_malformed_trace(self, tmp_path, case):
        path = _write_corrupt(tmp_path, case)
        with pytest.raises(ValueError, match=_CORRUPT[case][1]) as info:
            DecisionTrace.load(path)
        assert f"{case}.json" in str(info.value)

    def test_replay_refuses_nprocs_mismatch(self, tmp_path):
        trace = DecisionTrace.load(_write_corrupt(tmp_path, "nprocs"))
        with pytest.raises(ValueError, match="nprocs=4 but target 'queue' runs 3"):
            replay(trace)

    @pytest.mark.parametrize(
        "case",
        ["torn", "pick-without-rank", "nprocs", "engine-seed-string", "delay-seconds-string"],
    )
    def test_cli_replay_exits_2_naming_the_file(self, tmp_path, capsys, case):
        from repro.check.__main__ import main

        path = _write_corrupt(tmp_path, case)
        assert main(["--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{case}.json" in err
        assert "Traceback" not in err


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path):
        from repro.check.__main__ import main

        assert main(["--target", "queue", "--schedules", "10", "--out", str(tmp_path)]) == 0

    def test_repeated_targets_collapse(self, tmp_path, capsys):
        from repro.check.__main__ import main

        argv = ["--target", "queue", "queue", "--schedules", "3", "--quiet"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert "target=queue strategy=random schedules=3 " in capsys.readouterr().out

    def test_mutated_run_exits_nonzero_and_replays(self, tmp_path):
        from repro.check.__main__ import main

        code = main(
            [
                "--target",
                "queue",
                "--schedules",
                "10",
                "--mutate",
                "unlocked_split",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        min_traces = sorted(tmp_path.glob("*.min.json"))
        assert min_traces
        # the trace records its mutation, so replay re-applies it itself
        assert main(["--replay", str(min_traces[0])]) == 0

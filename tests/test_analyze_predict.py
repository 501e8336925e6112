"""Predictive concurrency analysis (``repro.analyze.predict``).

Three layers of coverage:

* fixture tests drive each pass (lockset, weakened happens-before,
  steal/mark obligation, lock-order graph) with hand-built traces;
* pinned regressions assert the headline property — the seeded §5.3
  and lock-order bugs are predicted AND confirmed from one benign
  default-schedule trace;
* false-positive guards assert zero predictions on every clean check
  scenario and on the application presets (UTS, SCF, TCE).
"""

from __future__ import annotations

import pytest

from repro.analyze.capture import TraceEvent
from repro.analyze.lockgraph import deadlock_pass
from repro.analyze.lockset import lockset_pass
from repro.analyze.predict import (
    PredictReport,
    analyze_trace,
    find_mark_window,
    obligation_pass,
    predict,
    weakened_hb_pass,
)
from repro.analyze.runner import run_race_detection
from repro.check.scenarios import SCENARIOS


def _trace(*specs):
    """Build a trace from (kind, rank, held, data) tuples; seq = index."""
    return [
        TraceEvent(
            kind=kind, rank=rank, idx=i, seq=i, time=float(i),
            held=tuple(held), data=dict(data),
        )
        for i, (kind, rank, held, data) in enumerate(specs)
    ]


def _access(rank, region, op, site, held=()):
    return ("access", rank, held, {"region": region, "op": op, "site": site})


class TestLocksetPass:
    def test_flags_empty_intersection_with_writer(self):
        events = _trace(
            _access(0, "shared", "w", "a.py:1", held=("m1",)),
            _access(1, "shared", "w", "b.py:2", held=("m2",)),
        )
        findings = lockset_pass(events)
        assert len(findings) == 1
        f = findings[0]
        assert f.region == "shared"
        assert set(f.sites) == {"a.py:1", "b.py:2"}
        assert f.ranks == (0, 1)

    def test_quiet_with_common_lock(self):
        events = _trace(
            _access(0, "shared", "w", "a.py:1", held=("m", "x")),
            _access(1, "shared", "w", "b.py:2", held=("m",)),
        )
        assert lockset_pass(events) == []

    def test_undisciplined_region_left_to_hb_tiers(self):
        # Never touched under any lock: protocol-synchronized by
        # construction here; lockset stays silent.
        events = _trace(
            _access(0, "flagish", "w", "a.py:1"),
            _access(1, "flagish", "w", "b.py:2"),
        )
        assert lockset_pass(events) == []

    def test_read_only_sharing_is_fine(self):
        events = _trace(
            _access(0, "shared", "r", "a.py:1", held=("m1",)),
            _access(1, "shared", "r", "b.py:2", held=("m2",)),
        )
        assert lockset_pass(events) == []

    def test_serialized_atomics_excluded(self):
        events = _trace(
            _access(0, "cell", "a", "a.py:1", held=("rmw[1]",)),
            _access(1, "cell", "a", "b.py:2", held=("rmw[1]",)),
        )
        assert lockset_pass(events) == []


class TestWeakenedHbPass:
    def test_flags_unordered_cross_rank_writes(self):
        events = _trace(
            _access(0, "q", "w", "a.py:1"),
            _access(1, "q", "w", "b.py:2"),
        )
        findings = weakened_hb_pass(events, nprocs=2)
        assert len(findings) == 1
        assert findings[0].ranks == (0, 1)

    def test_collective_is_a_must_edge(self):
        events = _trace(
            _access(0, "q", "w", "a.py:1"),
            ("collective", 0, (), {"ranks": (0, 1)}),
            ("collective", 1, (), {"ranks": (0, 1)}),
            _access(1, "q", "w", "b.py:2"),
        )
        assert weakened_hb_pass(events, nprocs=2) == []

    def test_message_delivery_is_a_must_edge(self):
        events = _trace(
            _access(0, "q", "w", "a.py:1"),
            ("post", 0, (), {"target": 1, "tag": "work"}),
            ("poll", 1, (), {"tag": "work"}),
            _access(1, "q", "w", "b.py:2"),
        )
        assert weakened_hb_pass(events, nprocs=2) == []

    def test_common_lock_excludes_conflict(self):
        # Lock release→acquire is a *dropped* edge, but mutual
        # exclusion itself still protects lock-bracketed accesses.
        events = _trace(
            _access(0, "q", "w", "a.py:1", held=("m",)),
            _access(1, "q", "w", "b.py:2", held=("m",)),
        )
        assert weakened_hb_pass(events, nprocs=2) == []

    def test_rmw_chain_is_a_must_edge(self):
        events = _trace(
            _access(0, "q", "w", "a.py:1"),
            ("rmw-done", 0, (), {"target": 2}),
            ("rmw", 1, (), {"target": 2}),
            _access(1, "q", "w", "b.py:2"),
        )
        assert weakened_hb_pass(events, nprocs=2) == []

    def test_dedup_by_site_pair(self):
        events = _trace(
            _access(0, "q", "w", "a.py:1"),
            _access(1, "q", "w", "b.py:2"),
            _access(0, "q", "w", "a.py:1"),
            _access(1, "q", "w", "b.py:2"),
        )
        assert len(weakened_hb_pass(events, nprocs=2)) == 1


class TestObligationPass:
    WAVE = ("protocol", 0, (), {"what": "wave-start"})

    def test_no_termination_protocol_no_obligation(self):
        events = _trace(
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
        )
        assert obligation_pass(events) == []

    def test_flags_unattested_transfer(self):
        events = _trace(
            self.WAVE,
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
        )
        findings = obligation_pass(events)
        assert len(findings) == 1
        assert (findings[0].thief, findings[0].victim) == (2, 1)
        assert findings[0].mode == "unattested"

    def test_quiet_when_transfer_carries_mark_decision(self):
        events = _trace(
            self.WAVE,
            ("protocol", 2, (), {"what": "mark-decision", "victim": 1}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
        )
        assert obligation_pass(events) == []

    def test_decisions_consumed_once(self):
        # One decision cannot attest two transfers from the same casting.
        events = _trace(
            self.WAVE,
            ("protocol", 2, (), {"what": "mark-decision", "victim": 1}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
        )
        findings = obligation_pass(events)
        assert len(findings) == 1
        assert findings[0].count == 1


class TestDeadlockPass:
    def test_flags_cross_rank_inverted_order(self):
        events = _trace(
            ("acquire", 1, (), {"mutex": "A"}),
            ("acquire", 1, ("A",), {"mutex": "B"}),
            ("acquire", 2, (), {"mutex": "B"}),
            ("acquire", 2, ("B",), {"mutex": "A"}),
        )
        findings = deadlock_pass(events)
        assert len(findings) == 1
        assert set(findings[0].cycle) == {"A", "B"}

    def test_gate_lock_pruning(self):
        # Every hop taken under one common gate lock G: the cycle can
        # never be realized concurrently.
        events = _trace(
            ("acquire", 1, ("G",), {"mutex": "A"}),
            ("acquire", 1, ("G", "A"), {"mutex": "B"}),
            ("acquire", 2, ("G",), {"mutex": "B"}),
            ("acquire", 2, ("G", "B"), {"mutex": "A"}),
        )
        assert deadlock_pass(events) == []

    def test_single_rank_pruning(self):
        events = _trace(
            ("acquire", 1, (), {"mutex": "A"}),
            ("acquire", 1, ("A",), {"mutex": "B"}),
            ("acquire", 1, (), {"mutex": "B"}),
            ("acquire", 1, ("B",), {"mutex": "A"}),
        )
        assert deadlock_pass(events) == []


class TestMarkWindow:
    def test_window_found_when_white_vote_precedes_mark(self):
        events = _trace(
            ("protocol", 2, (), {"what": "vote", "color": 0}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
            ("protocol", 1, (), {"what": "vote", "color": 0}),
        )
        window = find_mark_window(events)
        assert window is not None
        assert (window["thief"], window["victim"]) == (2, 1)
        assert window["mark_seq"] is None

    def test_mark_landing_first_closes_window(self):
        events = _trace(
            ("protocol", 2, (), {"what": "vote", "color": 0}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
            ("flag-write", 2, (), {"region": "color", "target": 1}),
            ("protocol", 1, (), {"what": "vote", "color": 0}),
        )
        assert find_mark_window(events) is None

    def test_black_vote_self_heals(self):
        events = _trace(
            ("protocol", 2, (), {"what": "vote", "color": 0}),
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
            ("protocol", 1, (), {"what": "vote", "color": 1}),
        )
        assert find_mark_window(events) is None

    def test_descendant_victim_exempt(self):
        # Rank 3 is a spanning-tree descendant of rank 1: it votes
        # before the thief by construction (legitimate §5.3 elision).
        events = _trace(
            ("protocol", 1, (), {"what": "vote", "color": 0}),
            ("protocol", 1, (), {"what": "steal-transfer", "victim": 3}),
            ("protocol", 3, (), {"what": "vote", "color": 0}),
        )
        assert find_mark_window(events) is None

    def test_unvoted_thief_carries_no_obligation(self):
        events = _trace(
            ("protocol", 2, (), {"what": "steal-transfer", "victim": 1}),
            ("protocol", 1, (), {"what": "vote", "color": 0}),
        )
        assert find_mark_window(events) is None


class TestPinnedRegressions:
    """The headline acceptance paths, pinned.

    Each seeded bug must be predicted AND confirmed from a single
    benign default-schedule trace — schedules on which the
    observed-schedule detector reports nothing.
    """

    def test_late_dirty_mark_predicted_and_confirmed(self, tmp_path):
        report = predict(
            "steals", mutation="late_dirty_mark", out_dir=tmp_path
        )
        assert report.base_error is None  # the base run is benign
        kinds = {p.kind: p for p in report.predictions}
        assert "steal-after-vote" in kinds
        p = kinds["steal-after-vote"]
        assert p.status == "CONFIRMED"
        assert "mark-after-vote-window" in p.confirmed_how
        assert p.trace_path is not None
        assert (tmp_path / p.trace_path.rsplit("/", 1)[-1]).exists()
        assert p.replay_ok is True

    def test_lock_order_inversion_confirmed_as_deadlock(self, tmp_path):
        report = predict(
            "steals", mutation="lock_order_inversion", out_dir=tmp_path
        )
        assert report.base_error is not None
        assert report.base_error.startswith("PredictedDeadlockError")
        deadlocks = [p for p in report.predictions if p.kind == "deadlock"]
        assert deadlocks and deadlocks[0].status == "CONFIRMED"
        assert deadlocks[0].confirmed_how == "deadlock-cycle-closed"
        assert deadlocks[0].replay_ok is True

    def test_unlocked_split_confirmed_as_data_race(self, tmp_path):
        report = predict(
            "queue", mutation="unlocked_split", out_dir=tmp_path
        )
        races = [p for p in report.predictions if p.kind == "data-race"]
        assert races
        confirmed = [p for p in races if p.status == "CONFIRMED"]
        assert confirmed
        assert confirmed[0].confirmed_how == "observed-race-replay"
        # The lockset and weak-hb tiers corroborate the same defect.
        assert "lockset" in confirmed[0].tiers or "weak-hb" in confirmed[0].tiers


class TestFalsePositiveGuards:
    @pytest.mark.parametrize("target", sorted(SCENARIOS))
    def test_clean_scenarios_yield_no_predictions(self, target):
        run = run_race_detection(target)
        assert run.error is None
        assert run.races == []
        assert analyze_trace(run.trace, run.nprocs) == []

    @pytest.mark.parametrize(
        "target", [pytest.param("uts-tiny", id="uts"), "scf", "tce"]
    )
    def test_application_presets_yield_no_predictions(self, target):
        run = run_race_detection(target)
        assert run.error is None
        assert run.races == []
        assert analyze_trace(run.trace, run.nprocs) == []


def _raising_predict(**kwargs):
    raise RuntimeError("analysis exploded")


class TestFleetIntegration:
    def test_predict_job_roundtrip(self):
        import pickle

        from repro.fleet.jobs import Job, execute_job

        job = Job("predict/queue", predict, {
            "target": "queue", "mutation": "unlocked_split", "confirm": False,
        })
        result = execute_job(job)
        assert result.ok, result.error
        report = result.value
        assert isinstance(report, PredictReport)
        assert report.target == "queue"
        assert report.predictions
        assert "data-race" in {p.kind for p in report.predictions}
        assert "PREDICTED" in report.describe()
        # The whole report crosses the fleet wire.
        back = pickle.loads(pickle.dumps(result)).value
        assert back.describe() == report.describe()

    def test_job_error_exits_2_naming_the_job(self, monkeypatch, capsys):
        from repro.analyze.__main__ import main

        monkeypatch.setattr("repro.analyze.predict.predict", _raising_predict)
        assert main(["predict", "--target", "queue", "--no-confirm"]) == 2
        err = capsys.readouterr().err
        assert "predict/queue" in err and "analysis exploded" in err

    def test_cli_exit_codes(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["predict", "--target", "queue", "--no-confirm"]) == 0
        capsys.readouterr()
        assert main([
            "predict", "--target", "queue", "--mutate", "unlocked_split",
            "--no-confirm",
        ]) == 1
        assert "PREDICTED" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_cli_jobs_below_one_exits_2_naming_the_flag(self, jobs, capsys):
        from repro.analyze.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["predict", "--target", "queue", "--no-confirm", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

"""Campaign goldens: a sharded campaign equals the serial one, byte for byte.

For a fixed campaign (targets, strategy, seed, schedules),
:func:`repro.check.runner.explore` must write the same files for any
``jobs`` — the same ``.trace.json`` and ``.min.json`` bytes — and report
the same failing-set digest.  The hashes below were taken from the
serial explorer (one loop, strategy seed ``seed + i``, every distinct
failure kept) before campaigns were sharded; they are reproduced here in
process (``jobs=1``), over two worker processes, and over an odd
partition.  Every kept failure must also be the schedule the ledger's
``explore_campaign`` workload runs for that index.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.check.invariants import Violation
from repro.check.runner import (
    FailureReport,
    RunOutcome,
    _failing_set_digest,
    _merge_shards,
    explore,
    run_once,
)
from repro.check.scenarios import make_scenario
from repro.check.strategies import make_strategy
from repro.fleet import jobs as fleet_jobs

#: sha256 over (file name, file bytes) of every file a campaign writes,
#: in name order: (target, mutation, schedules) -> digest.
GOLDENS = {
    ("queue", "unlocked_split", 200): (
        "53a6c694d57e1de54d04b6483ab96c836382214896f19476aca515ad68fb60b7"
    ),
    ("steals", "no_dirty_mark", 200): (
        "92a4af9e9f12bbbcf6374fe01c02309b8a3ad02b0c9eb3379cd00b26ed87a522"
    ),
    ("queue-wf", "unlocked_split", 200): (
        "2dd9d360556d0f42162e6d8b8a01c3c8abc6670642743c4aa1d50236ebb708dd"
    ),
    # a clean campaign writes nothing: the hash of no input
    ("queue", None, 120): hashlib.sha256().hexdigest(),
}

STEALS = ("steals", "no_dirty_mark", 200)


def files_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_campaign(case, out_dir, jobs=1):
    target, mutation, schedules = case
    return explore(target, schedules, seed=0, mutation=mutation, out_dir=out_dir, jobs=jobs)


def assert_ledger_reproduces(res, mutation):
    """The ledger's per-schedule call gives each kept failure's signature."""
    for f in res.failures:
        outcome = run_once(
            make_scenario(f.target),
            make_strategy("random", seed=0 + f.schedule_index),
            0,
            mutation,
        )
        assert outcome.signature == f.outcome.signature, f


def failure_keys(res):
    return [
        (f.target, f.schedule_index, f.strategy_seed, f.outcome.signature)
        for f in res.failures
    ]


class TestCampaignGoldens:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "case", [c for c in GOLDENS if c != STEALS], ids=lambda c: f"{c[0]}-{c[1]}"
    )
    def test_files_match_the_serial_golden(self, case, jobs, tmp_path):
        res = run_campaign(case, tmp_path, jobs)
        assert res.schedules_run == case[2]
        assert files_digest(tmp_path) == GOLDENS[case]
        assert res.ok == (case[1] is None)
        assert_ledger_reproduces(res, case[1])


class TestShardingEquality:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("serial")
        return run_campaign(STEALS, d), d

    @pytest.fixture(scope="class")
    def two_processes(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("jobs2")
        return run_campaign(STEALS, d, jobs=2), d

    def test_campaign_actually_fails(self, serial):
        res, out_dir = serial
        assert res.failures, (
            "mutation campaign found no failures; the equality tests "
            "below would be vacuous"
        )
        assert res.schedules_run == STEALS[2]
        assert files_digest(out_dir) == GOLDENS[STEALS]
        assert all(f.replay_confirmed and f.minimized_path for f in res.failures)
        assert_ledger_reproduces(res, STEALS[1])

    def test_two_workers_same_digest_and_failures(self, serial, two_processes):
        base, _ = serial
        sharded, _ = two_processes
        assert sharded.digest == base.digest
        assert failure_keys(sharded) == failure_keys(base)
        assert sharded.events_total == base.events_total

    def test_odd_batch_partition_same_digest(self, serial, tmp_path, monkeypatch):
        base, _ = serial
        # batch=7 does not divide 200: shards of uneven length, last short.
        monkeypatch.setattr(
            fleet_jobs, "explore_jobs", functools.partial(fleet_jobs.explore_jobs, batch=7)
        )
        sharded = run_campaign(STEALS, tmp_path, jobs=3)
        assert sharded.digest == base.digest
        assert failure_keys(sharded) == failure_keys(base)
        assert files_digest(tmp_path) == GOLDENS[STEALS]

    def test_process_pool_same_digest(self, two_processes):
        """The real thing: two worker *processes*, results over pipes,
        and every persisted and minimized trace byte-identical."""
        res, out_dir = two_processes
        assert files_digest(out_dir) == GOLDENS[STEALS]
        assert_ledger_reproduces(res, STEALS[1])


def _exploding_shard(**kwargs):
    raise RuntimeError("shard exploded")


def _shard(*failures):
    """One shard's payload: five schedules, ten events each."""
    return {"schedules": 5, "events": 50, "failures": list(failures)}


def _failure(target, index, invariant):
    outcome = RunOutcome(
        violations=[Violation(invariant, "boom")], decisions=[{"k": "pick", "rank": 0}]
    )
    return FailureReport(target, index, 100 + index, outcome)


class TestMergeExplore:
    def test_dedup_keeps_lowest_index_per_signature(self):
        shards = [
            _shard(_failure("queue", 9, "lost")),
            _shard(_failure("queue", 2, "lost")),
        ]
        schedules, events, kept = _merge_shards(shards, ["queue"])
        assert (schedules, events) == (10, 100)
        assert [f.schedule_index for f in kept] == [2]

    def test_same_signature_different_targets_both_kept(self):
        shards = [
            _shard(_failure("steals", 1, "lost")),
            _shard(_failure("queue", 1, "lost")),
        ]
        _, _, kept = _merge_shards(shards, ["queue", "steals"])
        # campaign target order, not completion order
        assert [f.target for f in kept] == ["queue", "steals"]

    def test_digest_independent_of_result_order(self):
        shards = [
            _shard(_failure("queue", 3, "x")),
            _shard(_failure("queue", 1, "y")),
        ]
        digests = {
            _failing_set_digest(_merge_shards(order, ["queue"])[2], "random", 0, None)
            for order in (shards, shards[::-1])
        }
        assert len(digests) == 1

    def test_errored_shard_fails_the_campaign(self, monkeypatch):
        monkeypatch.setattr("repro.check.runner.run_schedules", _exploding_shard)
        with pytest.raises(RuntimeError, match="campaign incomplete: .*shard exploded"):
            explore("queue", schedules=4)

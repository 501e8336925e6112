"""Unit and dispatch tests for the fleet meta-scheduler.

Everything here runs on the :class:`~repro.fleet.pool.InlinePool` (or
no pool at all), so the FIFO dispatch order is exercised
deterministically.  The process-boundary failure paths live in
``test_fleet_failures.py``.
"""

from __future__ import annotations

import importlib
from collections import deque

import pytest

from repro.check.runner import run_schedules
from repro.fleet.jobs import Job, execute_job, explore_jobs, probe
from repro.fleet.pool import InlinePool
from repro.fleet.scheduler import FleetReport, FleetScheduler


def probe_jobs(n, action="ok"):
    return [Job(f"probe/{i}", probe, {"action": action}) for i in range(n)]


class TestJobBuilders:
    def test_unpicklable_function_rejected(self):
        def nested():
            return 1

        for fn, name in [(lambda: 1, "<lambda>"), (nested, "nested")]:
            with pytest.raises(ValueError, match=f"{name}.*cannot be pickled"):
                Job("x", fn)

    def test_explore_jobs_cover_all_indices_contiguously(self):
        jobs = explore_jobs(["queue"], 10, batch=3)
        assert all(j.fn is run_schedules for j in jobs)
        indices = [i for j in jobs for i in j.kwargs["indices"]]
        assert indices == list(range(10))
        assert [j.key for j in jobs] == [
            "explore/queue/random/0-2",
            "explore/queue/random/3-5",
            "explore/queue/random/6-8",
            "explore/queue/random/9-9",
        ]

    def test_explore_default_batch_targets_four_jobs_per_worker(self):
        jobs = explore_jobs(["queue"], 80, nworkers=2)
        assert len(jobs) == 8
        assert all(len(j.kwargs["indices"]) == 10 for j in jobs)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_explore_batch_below_one_rejected(self, batch):
        with pytest.raises(ValueError, match="batch"):
            explore_jobs(["queue"], 10, batch=batch)

    def test_job_error_is_captured_not_raised(self):
        res = execute_job(Job("p", probe, {"action": "raise", "message": "boom"}))
        assert not res.ok
        assert "boom" in res.error


class TestInlineScheduler:
    def test_empty_campaign_ends_at_once(self):
        report = FleetScheduler(3, inline=True).run([])
        assert report.ok
        assert report.completed == []
        assert report.accounted() == 0

    def test_all_jobs_complete_and_are_accounted(self):
        report = FleetScheduler(3, inline=True).run(probe_jobs(10))
        assert report.ok
        assert len(report.completed) == 10
        assert report.accounted() == report.jobs_total == 10

    def test_fifo_lowest_idle_worker_takes_the_head(self):
        jobs = probe_jobs(4)
        report = FleetScheduler(2, inline=True).run(jobs)
        # Completion order is submission order, dealt round the workers.
        assert [r.key for r in report.completed] == [j.key for j in jobs]
        assert [r.worker for r in report.completed] == [0, 1, 0, 1]

    def test_crashed_job_requeued_once_at_the_head(self):
        sched = FleetScheduler(2, inline=True)
        pool = InlinePool(2)
        report = FleetReport(nworkers=2, jobs_total=3)
        victim = Job("probe/victim", probe, attempts=1)
        pending = deque(probe_jobs(2))
        sched._on_crash(0, pending, {0: victim}, pool, report)
        assert pending[0] is victim and len(pending) == 3
        assert report.requeued_keys == ["probe/victim"]
        # The second death flags it instead of requeueing it again.
        victim = pending.popleft()
        victim.attempts += 1
        sched._on_crash(1, pending, {1: victim}, pool, report)
        assert victim not in pending
        assert [c["key"] for c in report.crashed] == ["probe/victim"]
        assert report.worker_deaths == 2

    def test_more_workers_than_jobs(self):
        report = FleetScheduler(6, inline=True).run(probe_jobs(2))
        assert report.ok
        assert len(report.completed) == 2

    def test_duplicate_keys_rejected(self):
        jobs = probe_jobs(2)
        jobs[1].key = jobs[0].key
        with pytest.raises(ValueError, match="unique"):
            FleetScheduler(2, inline=True).run(jobs)

    def test_job_level_error_flags_report_not_ok(self):
        jobs = probe_jobs(3) + [Job("probe/bad", probe, {"action": "raise"})]
        report = FleetScheduler(2, inline=True).run(jobs)
        assert not report.ok
        assert len(report.failed_results) == 1
        assert report.failed_results[0].key == "probe/bad"
        # An erroring job is still *completed* — never dropped.
        assert report.accounted() == 4

    def test_nworkers_validated(self):
        with pytest.raises(ValueError, match="nworkers"):
            FleetScheduler(0)


class TestCliCounts:
    """Worker, schedule and probe counts are integers >= 1,
    checked by argparse: exit 2 with the flag named on stderr."""

    @pytest.mark.parametrize(
        "cli, argv, flag",
        [
            ("check", ["--jobs", "0"], "--jobs"),
            ("check", ["--schedules", "0"], "--schedules"),
            ("check", ["--schedules", "-1"], "--schedules"),
            ("fleet", ["probe", "--count", "0"], "--count"),
            ("fleet", ["probe", "--count", "-3"], "--count"),
            ("fleet", ["probe", "--jobs", "-1"], "--jobs"),
            ("fleet", ["probe", "--jobs", "0"], "--jobs"),
            ("fleet", ["probe", "--count"], "--count"),
            ("fleet", ["probe", "--jobs", "x"], "--jobs"),
            ("bench", ["--jobs", "0", "--no-json"], "--jobs"),
            ("check", ["--schedules", "-5"], "--schedules"),
        ],
    )
    def test_count_below_one_exits_2_naming_the_flag(self, cli, argv, flag, capsys):
        main = importlib.import_module(f"repro.{cli}.__main__").main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cli, argv",
        [
            ("check", ["explore"]),
            ("fleet", ["explore"]),
            ("fleet", ["matrix"]),
            ("fleet", ["bench"]),
            ("fleet", ["trace"]),
        ],
    )
    def test_retired_subcommands_exit_2(self, cli, argv):
        main = importlib.import_module(f"repro.{cli}.__main__").main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

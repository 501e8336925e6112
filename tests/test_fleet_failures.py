"""Fleet failure paths: dead workers, requeues, and the process pool.

These tests cross the real process boundary: a ``crash`` probe
SIGKILLs its own worker mid-job (no reply, no exit handler — the same
signature as an OOM kill or a segfault), and the scheduler must detect
the death via the process sentinel, requeue the job exactly once, and
flag it in ``report.crashed`` after the second death.  Nothing may be
silently dropped, and the surviving jobs must all complete.
"""

from __future__ import annotations

import pytest

from repro.fleet.jobs import Job, probe
from repro.fleet.pool import InlinePool, ProcessPool
from repro.fleet.scheduler import FleetScheduler, run_campaign


def sleep_jobs(n, seconds=0.01):
    return [
        Job(f"probe/{i}", probe, {"action": "sleep", "seconds": seconds})
        for i in range(n)
    ]


def crash_job(key="probe/crash"):
    return Job(key, probe, {"action": "crash"})


class TestWorkerCrash:
    def test_sigkilled_job_requeued_once_then_flagged(self):
        jobs = sleep_jobs(4) + [crash_job()]
        report = FleetScheduler(2).run(jobs)
        # The four healthy jobs all completed.
        assert len(report.completed) == 4
        assert {r.key for r in report.completed} == {j.key for j in jobs[:4]}
        # The crash probe was requeued exactly once...
        assert report.requeued_keys == ["probe/crash"]
        # ...then flagged after its second death — never dropped.
        assert len(report.crashed) == 1
        entry = report.crashed[0]
        assert entry["key"] == "probe/crash"
        assert entry["attempts"] == 2
        assert "died" in entry["error"]
        assert report.worker_deaths == 2
        assert report.accounted() == report.jobs_total == 5
        assert not report.ok

    def test_hard_exit_is_also_a_crash(self):
        """os._exit (no traceback, no reply) takes the same path."""
        jobs = sleep_jobs(2) + [Job("probe/exit", probe, {"action": "exit"})]
        report = FleetScheduler(2).run(jobs)
        assert len(report.completed) == 2
        assert [c["key"] for c in report.crashed] == ["probe/exit"]
        assert report.accounted() == 3

    def test_raise_is_a_job_error_not_a_crash(self):
        """A Python exception must come back as result.error — the
        worker survives and keeps serving jobs."""
        jobs = sleep_jobs(3) + [
            Job("probe/raise", probe, {"action": "raise", "message": "synthetic"})
        ]
        report = FleetScheduler(2).run(jobs)
        assert len(report.completed) == 4
        assert report.worker_deaths == 0
        assert report.crashed == []
        (failed,) = report.failed_results
        assert failed.key == "probe/raise"
        assert "synthetic" in failed.error


class TestPoolBehaviour:
    def test_jobs_exceeding_host_cores_complete(self):
        """--jobs N with N above the core count must degrade, not fail
        (this container has very few cores, so N=4 already oversubscribes)."""
        report = FleetScheduler(4).run(sleep_jobs(8))
        assert report.ok
        assert len(report.completed) == 8

    def test_results_attributed_to_worker_seats(self):
        report = FleetScheduler(2).run(sleep_jobs(6))
        assert {r.worker for r in report.completed} <= {0, 1}

    def test_campaign_results_in_submission_order(self):
        """The slow head job completes last but is returned first."""
        jobs = sleep_jobs(1, seconds=0.3) + sleep_jobs(3)[1:]
        results = run_campaign(jobs, 2)
        assert [r.key for r in results] == [j.key for j in jobs]
        assert len({r.worker for r in results}) == 2

    def test_inline_pool_refuses_crash_probes(self):
        with pytest.raises(ValueError, match="ProcessPool"):
            InlinePool(1).send(0, crash_job())

    def test_process_pool_respawn_guards(self):
        with ProcessPool(1) as pool:
            with pytest.raises(RuntimeError, match="still alive"):
                pool.respawn(0)

    def test_send_to_dead_worker_rejected(self):
        pool = ProcessPool(1)
        try:
            pool.send(0, crash_job())
            # Wait for the sentinel to fire.
            events = []
            for _ in range(100):
                events = pool.poll(0.1)
                if events:
                    break
            assert events and events[0].kind == "crash"
            with pytest.raises(RuntimeError, match="dead"):
                pool.send(0, sleep_jobs(1)[0])
            pool.respawn(0)
            # the respawned seat serves jobs again
            pool.send(0, sleep_jobs(1)[0])
            events = []
            for _ in range(100):
                events = pool.poll(0.1)
                if events:
                    break
            assert events and events[0].kind == "result" and events[0].result.ok
        finally:
            pool.close()

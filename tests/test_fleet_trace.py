"""Fleet crash forensics.

With a ``flight_dir``, workers leave breadcrumbs and flight dumps, and
the scheduler writes a crash report for every worker death — forensics
that survive SIGKILL.
"""

from __future__ import annotations

import json

from repro.fleet.jobs import Job, explore_jobs, probe
from repro.fleet.scheduler import FleetScheduler
from repro.obs.flight import load_flight_dump


class TestCrashForensics:
    def test_sigkill_leaves_breadcrumb_and_crash_reports(self, tmp_path):
        flight = tmp_path / "flight"
        jobs = [
            Job(f"probe/{i}", probe, {"action": "sleep", "seconds": 0.01})
            for i in range(3)
        ] + [Job("probe/crash", probe, {"action": "crash"})]
        report = FleetScheduler(2, flight_dir=flight).run(jobs)
        assert len(report.crashed) == 1
        # one crash report per death: the requeue and the final flagging
        reports = sorted(flight.glob("fleet-crash-*.json"))
        assert len(reports) == report.worker_deaths == 2
        docs = [json.loads(p.read_text()) for p in reports]
        assert {d["job_fate"] for d in docs} == {"requeued", "crashed"}
        for doc in docs:
            assert doc["schema"] == "repro-fleet-crash/1"
            assert doc["job"]["key"] == "probe/crash"
            # the breadcrumb is the worker's own last write before dying:
            # it still says "running", with the pid the parent saw die
            assert doc["breadcrumb"]["status"] == "running"
            assert doc["breadcrumb"]["job_key"] == "probe/crash"
            assert doc["breadcrumb"]["pid"] == doc["pid"]

    def test_explore_job_worker_leaves_flight_dump(self, tmp_path):
        flight = tmp_path / "flight"
        jobs = explore_jobs(["steals"], 20, mutation="no_dirty_mark")
        report = FleetScheduler(1, flight_dir=flight).run(jobs)
        assert report.ok
        dumps = list(flight.glob("flight-check-steals-pid*.json"))
        assert len(dumps) == 1
        doc = load_flight_dump(dumps[0])
        # armed by a real worker process, at the worker's flush cadence
        # (a clean check run records too few spans to reach a periodic
        # flush; the seeded bug's invariant failure writes this dump)
        assert doc["config"]["flush_every"] == 512
        assert doc["rings"]

"""Fleet-wide trace aggregation and crash forensics.

``obs`` jobs record a target through a constant-memory spill in the
worker, ship only the spill path + counters over the pipe, and the
parent merges the spills into one multi-process Chrome trace.  With a
``flight_dir``, workers leave breadcrumbs and periodic flight dumps,
and the scheduler writes a crash report for every worker death —
forensics that survive SIGKILL.
"""

from __future__ import annotations

import json

from repro.fleet.jobs import Job, execute_job, obs_jobs
from repro.fleet.scheduler import FleetScheduler
from repro.obs.stream import SpillReader, merge_spills


class TestObsJobs:
    def test_builder_one_spill_dir_per_target(self, tmp_path):
        jobs = obs_jobs(["queue", "steals"], str(tmp_path))
        assert [j.key for j in jobs] == ["obs/queue", "obs/steals"]
        dirs = {j.params["spill_dir"] for j in jobs}
        assert len(dirs) == 2

    def test_execute_obs_spills_and_returns_counts_only(self, tmp_path):
        job = obs_jobs(["queue"], str(tmp_path))[0]
        result = execute_job(job)
        assert result.ok, result.error
        p = result.payload
        assert p["spans"] > 0 and p["dropped"] == 0
        # only the path crosses the pipe; the spans live in the spill
        assert "span_records" not in p
        reader = SpillReader(p["spill_dir"])
        assert reader.index["spans"] == p["spans"]
        assert reader.nprocs == p["nprocs"]

    def test_inline_campaign_then_merge(self, tmp_path):
        jobs = obs_jobs(["queue", "steals"], str(tmp_path / "spills"))
        report = FleetScheduler(2, inline=True).run(jobs)
        assert report.ok
        items = [
            (i + 1, r.payload["target"], r.payload["spill_dir"])
            for i, r in enumerate(sorted(report.completed, key=lambda r: r.key))
        ]
        out = merge_spills(items, tmp_path / "merged.json")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["processes"] == 2
        assert doc["otherData"]["spans"] == sum(
            r.payload["spans"] for r in report.completed
        )


class TestTraceCli:
    def test_trace_subcommand_merges_across_workers(self, tmp_path, capsys):
        from repro.fleet.__main__ import main

        trace = tmp_path / "fleet_trace.json"
        rc = main(
            [
                "trace",
                "--target", "queue", "steals",
                "--jobs", "2",
                "--out", str(tmp_path / "spills"),
                "--trace", str(trace),
                "--quiet",
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["source"] == "repro.fleet trace"
        assert doc["otherData"]["processes"] == 2
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        # labels carry the worker that recorded each run
        assert {lbl.split(":", 1)[1] for lbl in labels} == {"queue", "steals"}


class TestCrashForensics:
    def test_sigkill_leaves_breadcrumb_and_crash_reports(self, tmp_path):
        flight = tmp_path / "flight"
        jobs = [
            Job(kind="probe", key=f"probe/{i}",
                params={"action": "sleep", "seconds": 0.01})
            for i in range(3)
        ] + [Job(kind="probe", key="probe/crash", params={"action": "crash"})]
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

    def test_obs_job_worker_leaves_periodic_flight_dump(self, tmp_path):
        flight = tmp_path / "flight"
        jobs = obs_jobs(["uts-small"], str(tmp_path / "spills"))
        report = FleetScheduler(1, flight_dir=flight).run(jobs)
        assert report.ok
        dumps = list(flight.glob("flight-obs-uts-small-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        # flushed mid-run (no failure occurred), so a SIGKILL at any
        # point would still have found a recent snapshot on disk
        assert doc["reason"] == "periodic"
        assert doc["records_seen"] > 0
        assert doc["rings"]

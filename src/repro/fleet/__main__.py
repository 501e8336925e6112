"""CLI for the fleet meta-scheduler.

Example::

    # fleet self-test: probe jobs, including a worker crash + requeue
    python -m repro.fleet probe --jobs 2 --crash

Check campaigns shard over the fleet through ``python -m repro.check
--jobs N`` (:func:`repro.check.runner.explore`); ``repro.bench --jobs
N`` and ``repro.analyze predict --jobs N`` submit their own jobs.
Every lost job is printed with a ``replay:`` command that reruns it
alone.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import add_jobs, positive_int
from repro.fleet.jobs import Job, probe
from repro.fleet.scheduler import FleetReport, FleetScheduler


def _print_fleet_summary(report: FleetReport, jobs: list[Job]) -> None:
    print(
        f"fleet: {len(report.completed)}/{report.jobs_total} jobs on "
        f"{report.nworkers} workers in {report.wall_s:.1f}s "
        f"({report.jobs_per_sec:.1f} jobs/s)"
    )
    if report.worker_deaths:
        print(
            f"  worker deaths: {report.worker_deaths} "
            f"(requeued: {len(report.requeued_keys)})"
        )
    by_key = {j.key: j for j in jobs}
    for c in report.crashed:
        print(f"  CRASHED {c['key']}: {c['error']}")
        print(f"    replay: {by_key[c['key']].replay_command()}")
    for r in report.failed_results:
        print(f"  JOB ERROR {r.key}: {r.error}")
        print(f"    replay: {by_key[r.key].replay_command()}")


def probe_main(args: argparse.Namespace) -> int:
    jobs = [
        Job(f"probe/{i}", probe, {"action": "sleep", "seconds": 0.02})
        for i in range(args.count)
    ]
    if args.crash:
        jobs.append(Job("probe/crash", probe, {"action": "crash"}))
    report = FleetScheduler(args.jobs).run(jobs)
    _print_fleet_summary(report, jobs)
    # A --crash probe is *expected* to end up flagged after one requeue;
    # anything else unaccounted for is a self-test failure.
    expected_crashed = 1 if args.crash else 0
    ok = (
        len(report.completed) == args.count
        and len(report.crashed) == expected_crashed
        and report.accounted() == report.jobs_total
    )
    print(f"self-test: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Multi-core meta-scheduler for the repro toolchain "
        "(see docs/fleet.md).",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("probe", help="fleet self-test (incl. crash handling)")
    add_jobs(pr, default=2, help="worker count", metavar=None)
    pr.add_argument("--count", type=positive_int, default=8, help="probe jobs to run")
    pr.add_argument("--crash", action="store_true",
                    help="include a probe that SIGKILLs its worker")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return probe_main(args)


if __name__ == "__main__":
    sys.exit(main())

"""CLI for the fleet meta-scheduler.

Example::

    # fleet self-test: probe jobs, including a worker crash + requeue
    python -m repro.fleet probe --jobs 2 --crash

Check campaigns shard over the fleet through ``python -m repro.check
--jobs N`` (:func:`repro.check.runner.explore`); ``repro.bench --jobs
N`` and ``repro.analyze predict --jobs N`` submit their own jobs.
Passing ``--flight-dir DIR`` to any campaign arms the crash flight
recorder in every worker (see docs/observability.md): engine failures
dump their last spans there, and a worker death leaves a
``fleet-crash-*.json`` report beside the worker's breadcrumb.
"""

from __future__ import annotations

import argparse
import sys

from repro.fleet.jobs import Job
from repro.fleet.scheduler import FleetReport, FleetScheduler


def positive_int(text: str) -> int:
    """argparse type for worker, schedule and probe counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def print_progress(stats: dict) -> None:
    print(
        f"  [{stats['wall_s']:6.1f}s] {stats['done']}/{stats['total']} jobs  "
        f"{stats['jobs_per_sec']:5.1f} jobs/s  "
        f"occupancy {stats['occupancy']:.0%}"
        + (f"  requeues {stats['requeues']}" if stats["requeues"] else ""),
        flush=True,
    )


def _print_fleet_summary(report: FleetReport) -> None:
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
    for c in report.crashed:
        print(f"  CRASHED {c['key']}: {c['error']}")
    for r in report.failed_results:
        print(f"  JOB ERROR {r.key}: {r.error}")


def probe_main(args: argparse.Namespace) -> int:
    jobs = [
        Job(kind="probe", key=f"probe/{i}", params={"action": "sleep", "seconds": 0.02})
        for i in range(args.count)
    ]
    if args.crash:
        jobs.append(Job(kind="probe", key="probe/crash", params={"action": "crash"}))
    report = FleetScheduler(args.jobs, flight_dir=args.flight_dir).run(jobs)
    _print_fleet_summary(report)
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


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Multi-core meta-scheduler for the repro toolchain "
        "(see docs/fleet.md).",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("probe", help="fleet self-test (incl. crash handling)")
    pr.add_argument("--jobs", type=positive_int, default=2, help="worker count")
    pr.add_argument("--count", type=positive_int, default=8, help="probe jobs to run")
    pr.add_argument("--crash", action="store_true",
                    help="include a probe that SIGKILLs its worker")
    add_flight_argument(pr)
    return p


def add_flight_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="arm the crash flight recorder in every worker; dumps, "
        "breadcrumbs and crash reports land here",
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return probe_main(args)


if __name__ == "__main__":
    sys.exit(main())

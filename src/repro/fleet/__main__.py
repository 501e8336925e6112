"""CLI for the fleet meta-scheduler.

Examples::

    # measure the scaling trajectory and write BENCH_fleet.json
    python -m repro.fleet bench

    # fleet self-test: probe jobs, including a worker crash + requeue
    python -m repro.fleet probe --jobs 2 --crash

    # record several targets across workers; merge into one trace with
    # per-worker process tracks (open fleet_trace.json in Perfetto)
    python -m repro.fleet trace --target queue steals uts-small --jobs 2

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

from repro.fleet.bench import (
    DEFAULT_JOBS_LEVELS,
    DEFAULT_SCHEDULES,
    run_fleet_bench,
    write_fleet_json,
)
from repro.fleet.jobs import Job, obs_jobs
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


def bench_main(args: argparse.Namespace) -> int:
    print(f"# fleet scaling — jobs levels {args.jobs_levels}\n")
    doc = run_fleet_bench(
        jobs_levels=tuple(args.jobs_levels),
        schedules=args.schedules,
        seed=args.seed,
    )
    for e in doc["entries"]:
        # No speedup where jobs exceed the host's cores (see run_fleet_bench).
        speedup = f" (speedup {e['speedup']:.2f}x)" if "speedup" in e else ""
        print(f"jobs={e['jobs']}: {e['schedules_per_sec']:.1f} schedules/s{speedup}")
    if not args.no_json:
        out = write_fleet_json(doc, args.json)
        print(f"\nfleet record -> {out}")
    return 0


def trace_main(args: argparse.Namespace) -> int:
    from repro.obs.stream import merge_spills

    jobs = obs_jobs(
        args.target,
        args.out,
        nprocs=args.nprocs,
        seed=args.seed,
    )
    sched = FleetScheduler(
        args.jobs,
        progress=None if args.quiet else print_progress,
        flight_dir=args.flight_dir,
    )
    report = sched.run(jobs)
    _print_fleet_summary(report)
    # One process track per recorded run, labelled with the worker that
    # produced it; pids are assigned in key order so the merged trace is
    # independent of completion order.
    items = []
    for res in sorted(report.completed, key=lambda r: r.key):
        if not res.ok:
            continue
        p = res.payload
        items.append(
            (len(items) + 1, f"w{res.worker}:{p['target']}", p["spill_dir"])
        )
        print(
            f"  {p['target']:<12} w{res.worker}  {p['spans']:>8} spans  "
            f"{p['edges']:>6} edges  {p['events']:>8} events"
            + (f"  DROPPED {p['dropped']}" if p["dropped"] else "")
        )
    if not items:
        print("no successful recordings; nothing to merge")
        return 2
    out = merge_spills(items, args.trace)
    print(f"merged trace -> {out} ({len(items)} process tracks)")
    return 0 if report.ok else 2


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

    be = sub.add_parser("bench", help="measure scaling; write BENCH_fleet.json")
    be.add_argument("--jobs-levels", type=positive_int, nargs="+",
                    default=list(DEFAULT_JOBS_LEVELS),
                    help="worker counts to measure (default: 1 2 4)")
    be.add_argument("--schedules", type=positive_int, default=DEFAULT_SCHEDULES,
                    help="schedules per scenario (default: %(default)s)")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--json", default="BENCH_fleet.json", metavar="PATH")
    be.add_argument("--no-json", action="store_true")

    tr = sub.add_parser(
        "trace", help="record targets across workers; merge one fleet trace"
    )
    add_trace_arguments(tr)

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


def add_trace_arguments(p: argparse.ArgumentParser) -> None:
    from repro.obs.scenarios import TARGETS

    p.add_argument("--target", nargs="+", default=["queue", "steals"],
                   choices=sorted(TARGETS),
                   help="obs targets to record (default: queue steals)")
    p.add_argument("--jobs", type=positive_int, default=2, help="worker count")
    p.add_argument("--nprocs", type=int, default=4,
                   help="simulated ranks for app targets (default: 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="scioto-fleet-trace",
                   help="working directory for per-run spills "
                   "(default: scioto-fleet-trace/)")
    p.add_argument("--trace", default="fleet_trace.json", metavar="PATH",
                   help="merged Chrome trace output (default: %(default)s)")
    p.add_argument("--quiet", action="store_true")
    add_flight_argument(p)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.cmd == "bench":
        return bench_main(args)
    if args.cmd == "trace":
        return trace_main(args)
    if args.cmd == "probe":
        return probe_main(args)
    raise AssertionError(f"unhandled command {args.cmd!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

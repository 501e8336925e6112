"""CLI for the fleet meta-scheduler.

Examples::

    # shard a check campaign over 4 workers
    python -m repro.fleet explore --target queue steals --schedules 400 --jobs 4

    # the whole mutation matrix, one cell per job
    python -m repro.fleet matrix --jobs 4

    # measure the scaling trajectory and write BENCH_fleet.json
    python -m repro.fleet bench

    # fleet self-test: probe jobs, including a worker crash + requeue
    python -m repro.fleet probe --jobs 2 --crash

    # record several targets across workers; merge into one trace with
    # per-worker process tracks (open fleet_trace.json in Perfetto)
    python -m repro.fleet trace --target queue steals uts-small --jobs 2

``repro.check explore --jobs N`` and ``repro.bench --jobs N`` forward
here, so the fleet is reachable from the tools it parallelizes.
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
from repro.fleet.jobs import Job, explore_jobs, mutation_jobs, obs_jobs
from repro.fleet.results import failing_set_digest, merge_explore, persist_failures
from repro.fleet.scheduler import FleetReport, FleetScheduler

#: Mutation-matrix cells: each seeded bug paired with the scenario whose
#: invariants expose it under schedule exploration (the pairs CI's
#: checker self-test exercises).  ``fence_elision`` and
#: ``late_dirty_mark`` are deliberately absent: those bugs are caught by
#: the race detector (``repro.analyze race --mutate``) and the pinned
#: task-graph regression workload, not by random exploration.
MATRIX_CELLS = (
    ("queue", "unlocked_split"),
    ("steals", "no_dirty_mark"),
)


def positive_int(text: str) -> int:
    """argparse type for worker and batch counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _progress_printer(stats: dict) -> None:
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


def explore_main(args: argparse.Namespace) -> int:
    """Shared implementation behind ``repro.fleet explore`` and
    ``repro.check explore``."""
    mutation = None if args.mutate == "none" else args.mutate
    jobs = explore_jobs(
        args.target,
        args.schedules,
        strategy=args.strategy,
        seed=args.seed,
        engine_seed=args.engine_seed,
        mutation=mutation,
        batch=args.batch,
        nworkers=args.jobs,
    )
    sched = FleetScheduler(
        args.jobs,
        progress=None if args.quiet else _progress_printer,
        flight_dir=args.flight_dir,
    )
    report = sched.run(jobs)
    _print_fleet_summary(report)
    summary = merge_explore(report.completed)
    digest = failing_set_digest(summary)
    print(
        f"explored {summary.schedules_run} schedules "
        f"({summary.events_total} events) across {sorted(summary.per_target)}"
    )
    print(f"failing set: {len(summary.failures)} distinct (digest {digest[:16]})")
    for f in summary.failures:
        print(
            f"  [{f.target}] schedule #{f.index} (seed {f.strategy_seed}): "
            f"{f.failure}"
        )
    if summary.failures and not args.no_persist:
        paths = persist_failures(
            summary, args.out, engine_seed=args.engine_seed, mutation=mutation
        )
        for p in paths:
            print(f"  trace: {p}")
    if not report.ok:
        return 2
    return 1 if summary.failures else 0


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


def matrix_main(args: argparse.Namespace) -> int:
    jobs = mutation_jobs(list(MATRIX_CELLS), schedules=args.schedules, seed=args.seed)
    sched = FleetScheduler(args.jobs, progress=None if args.quiet else _progress_printer)
    report = sched.run(jobs)
    _print_fleet_summary(report)
    exit_code = 0
    for res in sorted(report.completed, key=lambda r: r.key):
        if not res.ok:
            exit_code = 2
            continue
        p = res.payload
        status = "caught" if p["caught"] else "MISSED"
        print(f"  {p['target']:<12} {p['mutation']:<18} {status}")
        if not p["caught"]:
            exit_code = 1
    if not report.ok:
        exit_code = 2
    return exit_code


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
        progress=None if args.quiet else _progress_printer,
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

    ex = sub.add_parser("explore", help="shard a check campaign over workers")
    add_explore_arguments(ex)

    be = sub.add_parser("bench", help="measure scaling; write BENCH_fleet.json")
    be.add_argument("--jobs-levels", type=positive_int, nargs="+",
                    default=list(DEFAULT_JOBS_LEVELS),
                    help="worker counts to measure (default: 1 2 4)")
    be.add_argument("--schedules", type=int, default=DEFAULT_SCHEDULES,
                    help="schedules per scenario (default: %(default)s)")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--json", default="BENCH_fleet.json", metavar="PATH")
    be.add_argument("--no-json", action="store_true")

    ma = sub.add_parser("matrix", help="run the mutation matrix, one cell per job")
    ma.add_argument("--jobs", type=positive_int, default=2, help="worker count")
    ma.add_argument("--schedules", type=int, default=200,
                    help="schedules per cell (default: %(default)s)")
    ma.add_argument("--seed", type=int, default=0)
    ma.add_argument("--quiet", action="store_true")

    tr = sub.add_parser(
        "trace", help="record targets across workers; merge one fleet trace"
    )
    add_trace_arguments(tr)

    pr = sub.add_parser("probe", help="fleet self-test (incl. crash handling)")
    pr.add_argument("--jobs", type=positive_int, default=2, help="worker count")
    pr.add_argument("--count", type=int, default=8, help="probe jobs to run")
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


def add_explore_arguments(p: argparse.ArgumentParser) -> None:
    """Explore-campaign flags, shared with ``repro.check explore``."""
    from repro.check.mutations import MUTATIONS
    from repro.check.scenarios import SCENARIOS
    from repro.check.strategies import STRATEGIES

    p.add_argument("--target", nargs="+", default=["queue"],
                   choices=sorted(SCENARIOS) + ["all"],
                   help="scenario(s) to check (default: queue)")
    p.add_argument("--schedules", type=int, default=500,
                   help="schedules per target (default: %(default)s)")
    p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                   help="fleet worker count (default: 1)")
    p.add_argument("--strategy", default="random", choices=sorted(STRATEGIES))
    p.add_argument("--seed", type=int, default=0, help="base campaign seed")
    p.add_argument("--engine-seed", type=int, default=0)
    p.add_argument("--mutate", default="none", choices=sorted(MUTATIONS))
    p.add_argument("--batch", type=positive_int, default=None,
                   help="schedules per job (default: auto, ~4 jobs/worker)")
    p.add_argument("--out", default="scioto-check",
                   help="directory for failure traces (default: scioto-check/)")
    p.add_argument("--no-persist", action="store_true",
                   help="skip writing failure trace files")
    p.add_argument("--quiet", action="store_true",
                   help="suppress live progress lines")
    add_flight_argument(p)


def normalize_explore_targets(args: argparse.Namespace) -> None:
    """Expand ``--target all`` into the full scenario matrix."""
    from repro.check.scenarios import SCENARIOS

    if "all" in args.target:
        args.target = sorted(SCENARIOS)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.cmd == "explore":
        normalize_explore_targets(args)
        return explore_main(args)
    if args.cmd == "bench":
        return bench_main(args)
    if args.cmd == "matrix":
        return matrix_main(args)
    if args.cmd == "trace":
        return trace_main(args)
    if args.cmd == "probe":
        return probe_main(args)
    raise AssertionError(f"unhandled command {args.cmd!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

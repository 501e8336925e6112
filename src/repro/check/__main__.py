"""CLI for the schedule-exploration model checker.

Examples::

    python -m repro.check --target queue --schedules 500
    python -m repro.check --target all --schedules 100 --strategy pct
    python -m repro.check --target queue --mutate unlocked_split
    python -m repro.check --replay scioto-check/queue-random-s17.trace.json

    # replay it again, recording every span as a Chrome trace
    python -m repro.check --replay scioto-check/queue-random-s17.trace.json \
        --trace replay.json

    # shard the campaign across worker processes (see docs/fleet.md);
    # the output is the same for any --jobs N
    python -m repro.check --target all --schedules 200 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import cli
from repro.check.runner import ExploreResult, explore, replay
from repro.check.strategies import STRATEGIES
from repro.check.traces import DecisionTrace
from repro.obs.export import write_chrome_trace
from repro.obs.record import Recorder
from repro.obs.tracing import Tracer
from repro.targets import TARGETS
from repro.util.io import RecordError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Explore adversarial schedules of the Scioto protocols "
        "and check safety invariants on every run.",
    )
    p.add_argument("--target", nargs="+", default=["queue"],
                   choices=sorted(TARGETS) + ["all"],
                   help="target(s) to check; all = every protocol scenario "
                   "(default: queue)")
    p.add_argument("--schedules", type=cli.positive_int, default=500,
                   help="number of interleavings to explore per target "
                   "(default: 500)")
    p.add_argument("--strategy", default="random", choices=sorted(STRATEGIES),
                   help="exploration strategy (default: random)")
    p.add_argument("--seed", type=int, default=0, help="base strategy seed")
    cli.add_seed(p, "--engine-seed", help="workload (engine) seed")
    cli.add_mutate(p, "apply an intentional protocol bug (checker self-test)")
    cli.add_jobs(p)
    cli.add_out(p, "directory for failure traces (default: scioto-check/)")
    p.add_argument("--quiet", action="store_true", help="suppress live progress lines")
    p.add_argument("--replay", metavar="TRACE",
                   help="replay a persisted trace file instead of exploring")
    p.add_argument("--trace", metavar="OUT",
                   help="with --replay: record the replayed run and write its "
                   "Chrome trace JSON here")
    return p


def _print_result(res: ExploreResult, elapsed: float) -> None:
    status = "OK" if res.ok else "FAIL"
    print(
        f"[{status}] target={','.join(res.targets)} strategy={res.strategy} "
        f"schedules={res.schedules_run} events={res.events_total} "
        f"({elapsed:.1f}s)"
    )
    for f in res.failures:
        print(
            f"  [{f.target}] schedule #{f.schedule_index} "
            f"(strategy seed {f.strategy_seed}):"
        )
        print(f"    failure:   {f.outcome.describe()}")
        print(f"    trace:     {f.trace_path} ({f.decisions_total} decisions)")
        print(f"    confirmed: {'yes' if f.replay_confirmed else 'DIVERGED'}")
        if f.minimized_path is not None:
            print(
                f"    minimized: {f.minimized_path} "
                f"({f.decisions_minimized} decisions)"
            )
        print(f"    replay:    python -m repro.check --replay {f.trace_path}")
    print(f"failing set: {len(res.failures)} distinct (digest {res.digest[:16]})")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace and not args.replay:
        parser.error("argument --trace: only valid with --replay")

    if args.replay:
        try:
            trace = DecisionTrace.load(args.replay)
        except RecordError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        recorded = []

        def record(engine) -> None:
            recorded.append((Recorder.attach(engine), Tracer.attach(engine)))

        try:
            outcome = replay(trace, engine_hook=record if args.trace else None)
        except ValueError as exc:  # a whole trace this tree cannot replay
            print(f"error: {args.replay}: {exc}", file=sys.stderr)
            return 2
        same = outcome.signature_json == trace.signature
        print(f"replaying {args.replay}")
        print(f"  recorded failure: {trace.failure}")
        print(f"  replay outcome:   {outcome.describe()}")
        print(f"  signature match:  {'yes' if same else 'NO'}")
        if recorded:
            rec, tracer = recorded[0]
            path = write_chrome_trace(rec, args.trace, tracer=tracer)
            print(f"  trace:            {path} ({rec.span_count} spans)")
        return 0 if same else 1

    targets = cli.expand_targets(args.target)
    t0 = time.perf_counter()  # host-side timing # repro: lint-disable=RPR002
    try:
        res = explore(
            targets,
            schedules=args.schedules,
            strategy_name=args.strategy,
            seed=args.seed,
            engine_seed=args.engine_seed,
            mutation=cli.mutation(args.mutate),
            out_dir=args.out,
            jobs=args.jobs,
            progress=None if args.quiet else cli.print_progress,
        )
    except RuntimeError as exc:  # a shard raised or its worker died twice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_result(res, time.perf_counter() - t0)  # repro: lint-disable=RPR002
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main())

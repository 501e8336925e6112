"""CLI for the schedule-exploration model checker.

Examples::

    python -m repro.check --target queue --schedules 500
    python -m repro.check --target all --schedules 100 --strategy pct
    python -m repro.check --target queue --mutate unlocked_split
    python -m repro.check --replay scioto-check/queue-random-s17.trace.json

    # shard the campaign across worker processes (see docs/fleet.md);
    # the output is the same for any --jobs N
    python -m repro.check --target all --schedules 200 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.mutations import MUTATIONS
from repro.check.runner import ExploreResult, explore, replay
from repro.check.scenarios import SCENARIOS
from repro.check.strategies import STRATEGIES
from repro.check.traces import DecisionTrace
from repro.fleet.__main__ import add_flight_argument, positive_int, print_progress
from repro.util.io import RecordError


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Explore adversarial schedules of the Scioto protocols "
        "and check safety invariants on every run.",
    )
    p.add_argument(
        "--target",
        nargs="+",
        default=["queue"],
        choices=sorted(SCENARIOS) + ["all"],
        help="protocol scenario(s) to check (default: queue)",
    )
    p.add_argument(
        "--schedules",
        type=positive_int,
        default=500,
        help="number of interleavings to explore per target (default: 500)",
    )
    p.add_argument(
        "--strategy",
        default="random",
        choices=sorted(STRATEGIES),
        help="exploration strategy (default: random)",
    )
    p.add_argument("--seed", type=int, default=0, help="base strategy seed")
    p.add_argument(
        "--engine-seed", type=int, default=0, help="workload (engine) seed"
    )
    p.add_argument(
        "--mutate",
        default="none",
        choices=sorted(MUTATIONS),
        help="apply an intentional protocol bug (checker self-test)",
    )
    p.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="fleet worker processes (default: 1, in this process)",
    )
    p.add_argument(
        "--out",
        default="scioto-check",
        help="directory for failure traces (default: scioto-check/)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress live progress lines"
    )
    add_flight_argument(p)
    p.add_argument(
        "--replay",
        metavar="TRACE",
        help="replay a persisted trace file instead of exploring",
    )
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
        print(f"    replay:    {'reproduces' if f.replay_confirmed else 'DIVERGED'}")
        if f.minimized_path is not None:
            print(
                f"    minimized: {f.minimized_path} "
                f"({f.decisions_minimized} decisions)"
            )
    print(f"failing set: {len(res.failures)} distinct (digest {res.digest[:16]})")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.replay:
        try:
            trace = DecisionTrace.load(args.replay)
        except RecordError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            outcome = replay(trace)
        except ValueError as exc:  # a whole trace this tree cannot replay
            print(f"error: {args.replay}: {exc}", file=sys.stderr)
            return 2
        same = outcome.signature_json == trace.signature
        print(f"replaying {args.replay}")
        print(f"  recorded failure: {trace.failure}")
        print(f"  replay outcome:   {outcome.describe()}")
        print(f"  signature match:  {'yes' if same else 'NO'}")
        return 0 if same else 1

    targets = sorted(SCENARIOS) if "all" in args.target else args.target
    t0 = time.perf_counter()  # host-side timing # repro: lint-disable=RPR002
    try:
        res = explore(
            targets,
            schedules=args.schedules,
            strategy_name=args.strategy,
            seed=args.seed,
            engine_seed=args.engine_seed,
            mutation=None if args.mutate == "none" else args.mutate,
            out_dir=args.out,
            jobs=args.jobs,
            progress=None if args.quiet else print_progress,
            flight_dir=args.flight_dir,
        )
    except RuntimeError as exc:  # a shard raised or its worker died twice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_result(res, time.perf_counter() - t0)  # repro: lint-disable=RPR002
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI for the schedule-exploration model checker.

Examples::

    python -m repro.check --target queue --schedules 500
    python -m repro.check --target all --schedules 100 --strategy pct
    python -m repro.check --target queue --mutate unlocked_split
    python -m repro.check --replay scioto-check/queue-random-s17.trace.json

    # shard a campaign across worker processes (see docs/fleet.md);
    # the failing-schedule set is identical for any --jobs N
    python -m repro.check explore --target all --schedules 200 --jobs 4
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


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Explore adversarial schedules of the Scioto protocols "
        "and check safety invariants on every run.",
    )
    p.add_argument(
        "--target",
        default="queue",
        choices=sorted(SCENARIOS) + ["all"],
        help="protocol scenario to check (default: queue)",
    )
    p.add_argument(
        "--schedules",
        type=int,
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
        "--out",
        default="scioto-check",
        help="directory for failure traces (default: scioto-check/)",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="keep exploring after a failure, collecting distinct signatures",
    )
    p.add_argument(
        "--no-minimize", action="store_true", help="skip trace minimization"
    )
    p.add_argument(
        "--replay",
        metavar="TRACE",
        help="replay a persisted trace file instead of exploring",
    )
    return p


def _print_result(res: ExploreResult, elapsed: float) -> None:
    status = "OK" if res.ok else "FAIL"
    print(
        f"[{status}] target={res.target} strategy={res.strategy} "
        f"schedules={res.schedules_run} events={res.events_total} "
        f"({elapsed:.1f}s)"
    )
    for f in res.failures:
        print(f"  schedule #{f.schedule_index} (strategy seed {f.strategy_seed}):")
        print(f"    failure:   {f.outcome.describe()}")
        print(f"    trace:     {f.trace_path} ({f.decisions_total} decisions)")
        print(f"    replay:    {'reproduces' if f.replay_confirmed else 'DIVERGED'}")
        if f.minimized_path is not None:
            print(
                f"    minimized: {f.minimized_path} "
                f"({f.decisions_minimized} decisions)"
            )


def _explore_fleet(argv: list[str]) -> int:
    """``repro.check explore``: the fleet-sharded campaign runner."""
    # Imported lazily: the fleet layer builds on repro.check, not the
    # other way round, so the plain CLI stays import-light.
    from repro.fleet.__main__ import (
        add_explore_arguments,
        explore_main,
        normalize_explore_targets,
    )

    p = argparse.ArgumentParser(
        prog="python -m repro.check explore",
        description="Explore schedules sharded across fleet workers "
        "(python -m repro.fleet explore).",
    )
    add_explore_arguments(p)
    args = p.parse_args(argv)
    normalize_explore_targets(args)
    return explore_main(args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explore":
        return _explore_fleet(argv[1:])
    args = _parser().parse_args(argv)

    if args.replay:
        try:
            trace = DecisionTrace.load(args.replay)
            outcome = replay(trace)
        except (OSError, ValueError) as exc:
            # a bad trace file: say which and why, no traceback
            msg = str(exc) if args.replay in str(exc) else f"{args.replay}: {exc}"
            print(f"error: {msg}", file=sys.stderr)
            return 2
        same = outcome.signature_json == trace.signature
        print(f"replaying {args.replay}")
        print(f"  recorded failure: {trace.failure}")
        print(f"  replay outcome:   {outcome.describe()}")
        print(f"  signature match:  {'yes' if same else 'NO'}")
        return 0 if same else 1

    targets = sorted(SCENARIOS) if args.target == "all" else [args.target]
    mutation = None if args.mutate == "none" else args.mutate
    exit_code = 0
    for target in targets:
        t0 = time.perf_counter()  # host-side timing # repro: lint-disable=RPR002
        res = explore(
            target,
            schedules=args.schedules,
            strategy_name=args.strategy,
            seed=args.seed,
            engine_seed=args.engine_seed,
            mutation=mutation,
            out_dir=args.out,
            stop_on_failure=not args.keep_going,
            minimize=not args.no_minimize,
        )
        _print_result(res, time.perf_counter() - t0)  # repro: lint-disable=RPR002
        if not res.ok:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

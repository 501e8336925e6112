"""Static and dynamic analysis for the Scioto runtime reproduction.

Subcommands:

* ``race`` — run check scenarios with the vector-clock race detector
  attached and report every conflicting, happens-before-unordered
  access pair.  Deterministic: one run per scenario suffices (see
  ``docs/analyze.md``).  Reports are deduplicated by (site pair,
  region class) with instance counts; ``--all`` lists every instance.
  Exits 1 if any race was found.
* ``predict`` — predictive concurrency analysis: capture one
  default-schedule trace per scenario and report bugs feasible in
  *other* interleavings (lockset, weakened happens-before, §5.3
  steal/mark obligations, lock-order graph).  Each prediction is then
  confirmed by steering a witness replay toward the reordering
  (``--no-confirm`` skips that stage).  Exits 1 if anything was
  predicted, 2 if a scenario's analysis raised (``--jobs N`` shards
  scenarios over fleet workers; the output is the same for any N).
* ``lint`` — run the RPR rule suite over source trees.  Exits 1 if
  any finding survives suppression comments.

Examples::

    python -m repro.analyze race
    python -m repro.analyze race --target queue --mutate unlocked_split --all
    python -m repro.analyze predict
    python -m repro.analyze predict --target steals --mutate late_dirty_mark
    python -m repro.analyze predict --jobs 4 --mutate lock_order_inversion
    python -m repro.analyze lint src/repro
    python -m repro.analyze lint --rule RPR002 src tests
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze.lint import RULES, lint_paths
from repro.analyze.race import dedupe_races
from repro.analyze.runner import run_race_detection
from repro.check.mutations import MUTATIONS
from repro.check.scenarios import SCENARIOS
from repro.cli import add_jobs_argument, seed_int
from repro.targets import TARGETS


def _cmd_race(args: argparse.Namespace) -> int:
    targets = sorted(SCENARIOS) if args.target == "all" else [args.target]
    mutation = None if args.mutate == "none" else args.mutate
    total = 0
    for target in targets:
        res = run_race_detection(
            target, mutation=mutation, engine_seed=args.engine_seed
        )
        status = f"{len(res.races)} race(s)" if res.racy else "clean"
        print(
            f"{target}: {status} "
            f"({res.accesses} shared accesses, {res.events} events"
            + (f", run ended with {res.error}" if res.error else "")
            + ")"
        )
        if res.racy:
            if args.all:
                for line in res.report.splitlines()[1:]:
                    print(line)
            else:
                groups = dedupe_races(res.races)
                for i, g in enumerate(groups):
                    print(f"  #{i + 1} {g.describe()}")
        total += len(res.races)
    print(f"\ntotal: {total} race(s) across {len(targets)} scenario(s)"
          + (f" [mutation: {mutation}]" if mutation else ""))
    return 1 if total else 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analyze.predict import predict
    from repro.fleet.jobs import Job
    from repro.fleet.scheduler import run_campaign

    targets = sorted(SCENARIOS) if args.target == "all" else [args.target]
    mutation = None if args.mutate == "none" else args.mutate
    jobs = [
        Job(f"predict/{t}", predict, {
            "target": t, "mutation": mutation, "engine_seed": args.engine_seed,
            "confirm": not args.no_confirm, "out_dir": args.out,
        })
        for t in targets
    ]
    try:
        reports = [r.value for r in run_campaign(jobs, args.jobs)]
    except RuntimeError as exc:  # a scenario raised or its worker died twice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.describe())
        print()
    total = sum(len(r.predictions) for r in reports)
    confirmed = sum(r.confirmed for r in reports)
    print(
        f"total: {total} prediction(s) ({confirmed} confirmed) across "
        f"{len(targets)} scenario(s)"
        + (f" [mutation: {mutation}]" if mutation else "")
    )
    return 1 if total else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    rules = args.rule if args.rule else None
    findings, nfiles = lint_paths(args.paths, rules=rules)
    for f in findings:
        print(f)
    checked = ", ".join(sorted(rules)) if rules else f"{len(RULES)} rules"
    print(f"{len(findings)} finding(s) in {nfiles} file(s) [{checked}]")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.analyze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--target",
        choices=["all", *sorted(TARGETS)],
        default="all",
        help="target to run; all = every protocol scenario (default: all)",
    )
    run.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default="none",
        help="apply an intentional protocol bug first",
    )
    run.add_argument("--engine-seed", type=seed_int, default=0)

    p_race = sub.add_parser("race", parents=[run], help="vector-clock race detection")
    p_race.add_argument(
        "--all",
        action="store_true",
        help="list every race instance instead of deduplicated groups",
    )
    p_race.set_defaults(fn=_cmd_race)

    p_pred = sub.add_parser(
        "predict", parents=[run], help="predictive analysis with witness confirmation"
    )
    p_pred.add_argument(
        "--no-confirm",
        action="store_true",
        help="report predictions without witness-replay confirmation",
    )
    add_jobs_argument(p_pred)
    p_pred.add_argument(
        "--out",
        default="scioto-check",
        help="directory for confirmed witness traces (default: scioto-check)",
    )
    p_pred.set_defaults(fn=_cmd_predict)

    p_lint = sub.add_parser("lint", help="static RPR rule suite")
    p_lint.add_argument("paths", nargs="+", help="files or directories to lint")
    p_lint.add_argument(
        "--rule",
        action="append",
        choices=sorted(RULES),
        help="run only this rule (repeatable)",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

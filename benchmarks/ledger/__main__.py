"""``python -m benchmarks.ledger`` — see README.md in this directory."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from benchmarks.ledger import spec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="End-to-end + per-layer performance ledger.  With --workload: one "
        "run for the benchmark driver.  Without: every workload, written as a record.",
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="engine seed and exploration strategy base seed")
    drv = ap.add_argument_group("driver run (BENCHMARK.json command)")
    drv.add_argument("--workload", choices=list(spec.WORKLOADS))
    drv.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    drv.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    led = ap.add_argument_group("ledger run")
    led.add_argument("--repeats", type=int, default=9, help="timed samples per workload")
    led.add_argument("--workloads", default=",".join(spec.WORKLOADS),
                     help="comma-separated subset")
    led.add_argument("--out", type=Path, help="record path (default: out/record.json here)")
    led.add_argument("--smoke", action="store_true",
                     help="2 samples, no prices, traced pass on uts_split only")
    led.add_argument("--trace-out", metavar="DIR",
                     help="write each traced sample's spans as Chrome trace JSON")
    led.add_argument("--break-oracle", metavar="WORKLOAD",
                     help="test hook: expect one UTS node too many in that workload")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="hold record B against its base A")
    ap.add_argument("--define", action="store_true",
                    help="write BENCHMARK.json (or --out) from the names in spec.py")
    ap.add_argument("--child", choices=list(spec.WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parents[2]
    if args.child:
        # Pin BLAS/OpenMP pools before numpy is imported (PYTHONHASHSEED
        # only takes effect through the parent's Popen env), and make the
        # program importable: the benchmark measures src/repro from outside.
        from benchmarks.ledger.runner import PINNED, WORK

        os.environ.update(PINNED)
        sys.path.insert(0, str(root / "src"))
        from benchmarks.ledger.child import serve

        return serve(args.child, args.seed, bool(args.break_oracle), WORK)

    from benchmarks.ledger import runner

    if args.define:
        path = args.out or root / "BENCHMARK.json"
        doc = spec.definition()
        spec.validate_definition(doc)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.compare:
        return runner.compare(*args.compare)
    if args.workload:
        try:
            return runner.driver_run(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
        except (runner.ChildError, TimeoutError) as exc:
            print(f"benchmarks.ledger: {exc}", file=sys.stderr)
            return 1
    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {list(spec.WORKLOADS)}")
    return runner.ledger_run(
        names, args.seed, args.repeats, args.out or runner.OUT / "record.json",
        smoke=args.smoke, trace_out=args.trace_out, break_oracle=args.break_oracle,
    )


if __name__ == "__main__":
    sys.exit(main())

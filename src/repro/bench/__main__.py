"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                      # everything, quick scale
    python -m repro.bench --scale full         # paper-scale process counts
    python -m repro.bench --only figure7 table1
    python -m repro.bench --json out.json      # custom record path
    python -m repro.bench --jobs 4             # same record, four workers

Every run also writes the machine-readable record ``BENCH_sim.json``
(schema ``repro-bench/1``: per-experiment series plus host wall
seconds) at the repo root, so the perf trajectory is tracked commit to
commit.  Disable with ``--no-json``.  Host-time cost per layer is
measured by the ledger (``python3 -m benchmarks.ledger``; see
``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.ablations import (
    run_ablation_affinity,
    run_ablation_chunk,
    run_ablation_static,
    run_ablation_termination,
    run_ablation_waitfree,
)
from repro.bench.figure4 import run_figure4
from repro.bench.figure56 import run_figure56
from repro.bench.figure7 import run_figure7
from repro.bench.figure8 import run_figure8
from repro.bench.harness import scale as resolve_scale
from repro.bench.harness import write_bench_json
from repro.bench.report import render
from repro.bench.table1 import run_table1
from repro.cli import add_jobs_argument
from repro.fleet.jobs import Job
from repro.fleet.scheduler import run_campaign

EXPERIMENTS = {
    "table1": (run_table1, dict(x_label="op", fmt="{:.3f}")),
    "figure4": (run_figure4, dict(fmt="{:.1f}")),
    "figure56": (run_figure56, dict(fmt="{:.3g}")),
    "figure7": (run_figure7, dict(fmt="{:.2f}")),
    "figure8": (run_figure8, dict(fmt="{:.2f}")),
    "ablation-termination": (run_ablation_termination, dict(fmt="{:.3g}")),
    "ablation-chunk": (run_ablation_chunk, dict(x_label="chunk", fmt="{:.3g}")),
    "ablation-affinity": (run_ablation_affinity, dict(x_label="mode", fmt="{:.3g}")),
    "ablation-static": (run_ablation_static, dict(fmt="{:.2f}")),
    "ablation-waitfree": (run_ablation_waitfree, dict(fmt="{:.2f}")),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["quick", "full"], default=None)
    parser.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                        help="run only these experiments")
    add_jobs_argument(parser)
    parser.add_argument("--json", default="BENCH_sim.json", metavar="PATH",
                        help="machine-readable record path (default: %(default)s)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the JSON record")
    args = parser.parse_args(argv)
    s = resolve_scale(args.scale)
    chosen = list(dict.fromkeys(args.only or EXPERIMENTS))
    jobs = [
        Job(f"bench/{name}", EXPERIMENTS[name][0], {"scale": s}) for name in chosen
    ]
    print(f"# repro benchmark suite — scale={s}\n")
    try:
        results = run_campaign(jobs, args.jobs)
    except RuntimeError as exc:  # an experiment raised or its worker died twice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, res in zip(chosen, results):
        print(render(res.value, **EXPERIMENTS[name][1]))
        # Host wall time of the experiment, measured where it ran.
        print(f"  ({res.wall_s:.1f}s wall)\n")
    if not args.no_json:
        out = write_bench_json([(r.value, r.wall_s) for r in results], args.json, s)
        print(f"bench record -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

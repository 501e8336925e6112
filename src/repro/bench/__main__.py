"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                      # everything, quick scale
    python -m repro.bench --scale full         # paper-scale process counts
    python -m repro.bench --only figure7 table1
    python -m repro.bench --json out.json      # custom record path

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
import time

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
from repro.cli import positive_int

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
    parser.add_argument("--jobs", type=positive_int, default=None, metavar="N",
                        help="run experiments sharded over N fleet workers "
                             "(python -m repro.fleet; default: in-process)")
    parser.add_argument("--json", default="BENCH_sim.json", metavar="PATH",
                        help="machine-readable record path (default: %(default)s)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the JSON record")
    args = parser.parse_args(argv)
    s = resolve_scale(args.scale)
    chosen = args.only or list(EXPERIMENTS)
    if args.jobs is not None:
        measured = _run_fleet(chosen, s, args.jobs)
    else:
        print(f"# repro benchmark suite — scale={s}\n")
        measured = []
        for name in chosen:
            fn, render_kwargs = EXPERIMENTS[name]
            # Sanctioned wall-clock site: this measures how long the *host*
            # takes to run the experiment, not anything in virtual time.
            t0 = time.perf_counter()  # repro: lint-disable=RPR002
            result = fn(s)
            wall = time.perf_counter() - t0  # repro: lint-disable=RPR002
            print(render(result, **render_kwargs))
            print(f"  ({wall:.1f}s wall)\n")
            measured.append((result, wall))
    if not args.no_json:
        out = write_bench_json(measured, args.json, s)
        print(f"bench record -> {out}")
    return 0


def _run_fleet(chosen: list[str], scale_name: str, jobs: int):
    """Run ``chosen`` experiments as fleet jobs; results keep suite order.

    Virtual-time results are deterministic, so the sharded record is
    identical to the serial one — only the host wall differs (and the
    per-experiment wall is measured *inside* the worker, so the record
    stays comparable).
    """
    from repro.fleet.jobs import bench_jobs
    from repro.fleet.scheduler import FleetScheduler
    from repro.util.records import SweepResult

    print(f"# repro benchmark suite — scale={scale_name}, fleet jobs={jobs}\n")
    report = FleetScheduler(jobs).run(bench_jobs(chosen, scale_name))
    if not report.ok:
        details = [c["key"] for c in report.crashed] + [
            f"{r.key}: {r.error}" for r in report.failed_results
        ]
        raise RuntimeError(f"fleet bench run failed: {details}")
    by_name = {r.payload["experiment"]: r for r in report.completed}
    measured = []
    for name in chosen:
        res = by_name[name]
        sweep = SweepResult.from_dict(res.payload["result"])
        _fn, render_kwargs = EXPERIMENTS[name]
        print(render(sweep, **render_kwargs))
        print(f"  ({res.wall_s:.1f}s wall on worker {res.worker})\n")
        measured.append((sweep, res.wall_s))
    print(f"fleet: {len(report.completed)} experiments on {jobs} workers\n")
    return measured


if __name__ == "__main__":
    sys.exit(main())

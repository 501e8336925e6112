"""Command-line driver for the TCE block-sparse contraction kernel.

Examples::

    python -m repro.apps.tce --nprocs 16 --nblocks 12 --blocksize 48
    python -m repro.apps.tce --scheduler original --density 0.3
    python -m repro.apps.tce --placement roundrobin   # locality ablation
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.apps.tce import (
    TCEProblem,
    contract_sequential,
    run_tce_original,
    run_tce_scioto,
)
from repro.cli import positive_int, seed_int
from repro.sim.machines import MACHINES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro.apps.tce", description=__doc__)
    p.add_argument("--nprocs", type=positive_int, default=8)
    p.add_argument("--scheduler", choices=["scioto", "original"], default="scioto")
    p.add_argument("--placement", choices=["owner", "roundrobin"], default="owner")
    p.add_argument("--machine", choices=sorted(MACHINES), default="het")
    p.add_argument("--nblocks", type=positive_int, default=10)
    p.add_argument("--blocksize", type=positive_int, default=48)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="check C against the dense reference")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = TCEProblem(nblocks=args.nblocks, blocksize=args.blocksize,
                             density=args.density)
    except ValueError as exc:
        parser.error(f"argument --density: {exc}")
    machine = MACHINES[args.machine](args.nprocs)
    if args.scheduler == "scioto":
        r = run_tce_scioto(args.nprocs, problem, machine=machine, seed=args.seed,
                           placement=args.placement)
    else:
        r = run_tce_original(args.nprocs, problem, machine=machine, seed=args.seed)
    nz = len(problem.nonzero_triples())
    print(f"TCE ({args.scheduler}/{args.placement}) n={problem.n}: "
          f"{nz} real tasks of {len(problem.all_triples())} triples")
    print(f"virtual time {r.elapsed * 1e3:.2f} ms on {args.nprocs} ranks; "
          f"remote accs {int(r.comm.get('acc_remote', 0))}, "
          f"counter claims {int(r.comm.get('rmw', 0))}")
    if args.verify:
        ok = np.allclose(r.result, contract_sequential(problem), atol=1e-9)
        print(f"matches dense reference: {ok}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

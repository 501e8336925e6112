"""Command-line driver for the SCF application.

Examples::

    python -m repro.apps.scf --nprocs 16 --nblocks 20 --blocksize 5
    python -m repro.apps.scf --scheduler original --machine het
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import cli
from repro.apps.scf import (
    SCFProblem,
    run_scf_original,
    run_scf_scioto,
    run_scf_sequential,
)
from repro.sim.machines import MACHINES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro.apps.scf", description=__doc__)
    cli.add_nprocs(p, 8)
    p.add_argument("--scheduler", choices=["scioto", "original"], default="scioto")
    cli.add_machine(p)
    p.add_argument("--nblocks", type=cli.positive_int, default=20)
    p.add_argument("--blocksize", type=cli.positive_int, default=5)
    p.add_argument("--iters", type=cli.positive_int, default=4)
    cli.add_seed(p)
    p.add_argument("--verify", action="store_true",
                   help="check energies against the sequential reference")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = SCFProblem(nblocks=args.nblocks, blocksize=args.blocksize)
    machine = MACHINES[args.machine](args.nprocs)
    runner = run_scf_scioto if args.scheduler == "scioto" else run_scf_original
    r = runner(args.nprocs, problem, iterations=args.iters, machine=machine,
               seed=args.seed)
    print(f"SCF ({args.scheduler}) nbf={problem.nbf}, "
          f"{len(problem.significant_pairs())} significant pairs, "
          f"{args.iters} iterations on {args.nprocs} ranks")
    for it, e in enumerate(r.energies):
        print(f"  iter {it}: E = {e:+.10f}")
    print(f"virtual time {r.elapsed * 1e3:.2f} ms "
          f"(fock builds {r.fock_time * 1e3:.2f} ms)")
    if args.verify:
        seq = run_scf_sequential(problem, iterations=args.iters)
        ok = np.allclose(seq, r.energies, atol=1e-10)
        print(f"matches sequential reference: {ok}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver for the UTS benchmark.

Examples::

    python -m repro.apps.uts --nprocs 16 --gen-mx 10 --root-seed 17
    python -m repro.apps.uts --impl mpi --machine xt4 --nprocs 64
    python -m repro.apps.uts --tree binomial --b0 12 --q 0.12 --m 4
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.apps.uts import UTSParams, count_tree, run_uts_mpi, run_uts_scioto
from repro.core import SciotoConfig
from repro.sim.machines import MACHINES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro.apps.uts", description=__doc__)
    cli.add_nprocs(p, 8)
    p.add_argument("--impl", choices=["scioto", "mpi"], default="scioto")
    cli.add_machine(p)
    p.add_argument("--tree", choices=["geometric", "binomial"], default="geometric")
    p.add_argument("--b0", type=float, default=4.0)
    p.add_argument("--gen-mx", type=int, default=10)
    p.add_argument("--q", type=float, default=0.15)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--root-seed", type=int, default=17)
    cli.add_seed(p, default=1, help="scheduler RNG seed")
    p.add_argument("--chunk", type=cli.positive_int, default=10)
    p.add_argument("--no-split", action="store_true", help="use fully locked queues")
    p.add_argument("--wait-free", action="store_true", help="wait-free steal protocol")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = cli.build(
        parser, UTSParams, tree_type=args.tree, b0=args.b0, gen_mx=args.gen_mx,
        q=args.q, m=args.m, root_seed=args.root_seed,
    )
    ref = count_tree(params, max_nodes=20_000_000)
    print(f"tree: {ref.nodes} nodes, {ref.leaves} leaves, depth {ref.max_depth}")
    machine = MACHINES[args.machine](args.nprocs)
    if args.impl == "scioto":
        cfg = SciotoConfig(
            split_queues=not args.no_split,
            chunk_size=args.chunk,
            wait_free_steals=args.wait_free,
        )
        r = run_uts_scioto(args.nprocs, params, machine=machine, seed=args.seed,
                           config=cfg)
        extra = f", {r.total_steals} steals"
    else:
        r = run_uts_mpi(args.nprocs, params, machine=machine, seed=args.seed,
                        chunk=args.chunk)
        extra = ""
    if r.stats.nodes != ref.nodes:
        print("ERROR: parallel traversal disagrees with sequential count",
              file=sys.stderr)
        return 1
    print(
        f"{args.impl} on {args.nprocs} {args.machine} ranks: "
        f"{r.throughput / 1e6:.2f} Mnodes/s "
        f"({r.elapsed * 1e3:.2f} ms virtual{extra})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The one option vocabulary of the ``python -m repro.*`` command lines.

Every flag that more than one tool takes is declared here once.  A
value's domain is checked by the code that consumes it (the ``check_*``
functions of :mod:`repro.util.errors`, ``UTSParams``, ``TelemetryBus``,
...), which raises ``ValueError("<field> must be ...")``; this module
turns that error into argparse's usage error, so an out-of-range value
exits 2 with the flag named on stderr before anything runs.  The runtime
never imports this module.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable

from repro.util.errors import check_count, check_non_negative, check_positive, check_seed


def domain(convert: Callable[[str], Any], check: Callable[[str, Any], Any]):
    """argparse type: ``convert`` the text, then ``check`` its domain."""

    def parse(text: str) -> Any:
        value = convert(text)  # a ValueError: argparse's "invalid int value"
        try:
            return check("value", value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).partition(" ")[2]) from None

    parse.__name__ = convert.__name__
    return parse


positive_int = domain(int, check_count)
seed_int = domain(int, check_seed)
positive_float = domain(float, check_positive)
non_negative_float = domain(float, check_non_negative)


def build(parser: argparse.ArgumentParser, make: Callable[..., Any], **fields: Any) -> Any:
    """Return ``make(**fields)``.  A domain error from it exits 2 naming
    the flag whose ``dest`` is the field."""
    try:
        return make(**fields)
    except ValueError as exc:
        field, _, why = str(exc).partition(" ")
        flags = {a.dest: a.option_strings[0] for a in parser._actions if a.option_strings}
        if field not in flags:
            raise
        parser.error(f"argument {flags[field]}: {why}")


def add_seed(p, flag: str = "--seed", default: int = 0, help: str | None = None) -> None:
    """The engine seed (``Engine(seed=)``), spelt ``--seed`` or ``--engine-seed``."""
    p.add_argument(flag, type=seed_int, default=default, help=help)


def add_nprocs(p, default: int, help: str | None = None) -> None:
    p.add_argument("--nprocs", type=positive_int, default=default, help=help)


def add_machine(p) -> None:
    from repro.sim.machines import MACHINES

    p.add_argument("--machine", choices=sorted(MACHINES), default="het")


def add_mutate(p, help: str) -> None:
    from repro.check.mutations import MUTATIONS

    p.add_argument("--mutate", default="none", choices=sorted(MUTATIONS), help=help)


def mutation(name: str) -> str | None:
    """``--mutate``'s value as the runtime takes it: ``none`` is None."""
    return None if name == "none" else name


def expand_targets(names: list[str]) -> list[str]:
    """``--target`` values; ``all`` means the six check scenarios."""
    if "all" in names:
        from repro.check.scenarios import SCENARIOS

        return sorted(SCENARIOS)
    return names


def add_out(p, help: str) -> None:
    p.add_argument("--out", default="scioto-check", help=help)


def add_jobs(p, default: int = 1, help: str | None = None, metavar: str | None = "N") -> None:
    p.add_argument(
        "--jobs", type=positive_int, default=default, metavar=metavar,
        help=help or "fleet worker processes (default: 1, in this process); "
        "the answer is the same for any N",
    )


def print_progress(stats: dict) -> None:
    """Fleet progress callback: one line per report."""
    print(
        f"  [{stats['wall_s']:6.1f}s] {stats['done']}/{stats['total']} jobs  "
        f"{stats['jobs_per_sec']:5.1f} jobs/s  "
        f"occupancy {stats['occupancy']:.0%}"
        + (f"  requeues {stats['requeues']}" if stats["requeues"] else ""),
        flush=True,
    )

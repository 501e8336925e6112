"""Shared benchmark plumbing: scale selection, sweeps, JSON emission."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.util.io import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.util.records import SweepResult

__all__ = [
    "scale",
    "sweep_procs",
    "write_bench_json",
    "validate_bench_json",
    "BENCH_SCHEMA",
    "QUICK",
    "FULL",
]

#: Schema tag stamped into every ``BENCH_sim.json`` document.
BENCH_SCHEMA = "repro-bench/1"

QUICK = "quick"
FULL = "full"


def scale(override: str | None = None) -> str:
    """The active benchmark scale: ``override`` (``--scale``) or ``quick``."""
    s = override or QUICK
    if s not in (QUICK, FULL):
        raise ValueError(f"unknown scale {s!r}; use 'quick' or 'full'")
    return s


#: Largest process count of a scaling sweep at quick and at full scale.
MAX_PROCS_QUICK = 16
MAX_PROCS_FULL = 64


def sweep_procs(scale_name: str) -> list[int]:
    """Power-of-two process counts for a scaling sweep."""
    limit = MAX_PROCS_FULL if scale_name == FULL else MAX_PROCS_QUICK
    out = []
    p = 2
    while p <= limit:
        out.append(p)
        p *= 2
    return out


def write_bench_json(
    results: list[tuple["SweepResult", float]],
    path: str | Path,
    scale_name: str,
) -> Path:
    """Write the machine-readable benchmark record (``BENCH_sim.json``).

    Args:
        results: ``(sweep_result, wall_seconds)`` per experiment run, in
            run order.  Wall seconds are *host* time for the experiment
            (the sanctioned wall-clock measurement), everything inside
            the sweeps is virtual time.
        path: Output file, conventionally ``BENCH_sim.json`` at the
            repo root so the perf trajectory is tracked across commits.
        scale_name: The active scale (``quick`` or ``full``).

    The write is atomic (temp file + ``os.replace``), so a reader — or
    an interrupted run — never observes a torn record.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "scale": scale_name,
        "experiments": [
            {**r.to_dict(), "wall_seconds": wall} for r, wall in results
        ],
    }
    validate_bench_json(doc)
    return atomic_write_text(Path(path), json.dumps(doc, indent=2))


def validate_bench_json(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid bench record.

    Checked: the schema tag, the scale, and for every experiment a
    name, a non-negative wall time, and series with aligned xs/ys.
    """
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"bad schema tag {doc.get('schema')!r}; want {BENCH_SCHEMA!r}")
    if doc.get("scale") not in (QUICK, FULL):
        raise ValueError(f"bad scale {doc.get('scale')!r}")
    exps = doc.get("experiments")
    if not isinstance(exps, list):
        raise ValueError("experiments must be a list")
    for e in exps:
        if not e.get("experiment"):
            raise ValueError(f"experiment entry without a name: {e!r}")
        wall = e.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall < 0:
            raise ValueError(f"{e['experiment']}: bad wall_seconds {wall!r}")
        for s in e.get("series", []):
            if len(s.get("xs", [])) != len(s.get("ys", [])):
                raise ValueError(
                    f"{e['experiment']}/{s.get('label')}: xs and ys lengths differ"
                )

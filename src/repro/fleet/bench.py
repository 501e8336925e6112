"""Fleet scaling trajectory: schedules/sec at jobs = 1, 2, 4.

``python -m repro.fleet bench`` times the same exploration campaign —
:func:`repro.check.runner.explore` over the full ``repro.check``
scenario matrix under the random-walk strategy — at several worker
counts and records how schedule throughput scales.  The ``jobs=1``
entry is the in-process campaign ``python -m repro.check`` runs
without ``--jobs``.  The record lives in ``BENCH_fleet.json`` (schema
``repro-bench-fleet/1``) at the repo root, validated like the other
committed trajectory (``BENCH_sim.json``) and understood by
``python -m repro.obs diff``.

Two properties are recorded per entry and checked by the validator:

* throughput is positive, and the record carries the host core count
  — scaling claims are meaningless without it (a 1-core container
  cannot speed up CPU-bound work no matter how many workers it runs),
  so ``speedup`` appears only on entries with ``jobs <= cpus``, and
  only when a ``jobs == 1`` entry gives it a base;
* the ``failing_digest`` — the content hash of the deduplicated
  failing-schedule set — is **identical across all entries**: changing
  ``--jobs`` may change the wall clock, never the result.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any

from repro.check.runner import explore
from repro.util.io import atomic_write_text

__all__ = [
    "FLEET_SCHEMA",
    "DEFAULT_JOBS_LEVELS",
    "run_fleet_bench",
    "write_fleet_json",
    "validate_fleet_json",
]

#: Schema tag stamped into every ``BENCH_fleet.json`` document.
FLEET_SCHEMA = "repro-bench-fleet/1"

#: Worker counts the committed trajectory measures.
DEFAULT_JOBS_LEVELS = (1, 2, 4)

#: Default campaign: every check scenario, this many schedules each.
DEFAULT_SCHEDULES = 40


def _host_info() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def run_fleet_bench(
    jobs_levels: tuple[int, ...] = DEFAULT_JOBS_LEVELS,
    targets: list[str] | None = None,
    schedules: int = DEFAULT_SCHEDULES,
    strategy: str = "random",
    seed: int = 0,
    verbose: bool = True,
) -> dict[str, Any]:
    """Measure the campaign at every jobs level; return the record doc."""
    if targets is None:
        from repro.check.scenarios import SCENARIOS

        targets = sorted(SCENARIOS)
    entries = []
    for nworkers in jobs_levels:
        # Sanctioned wall-clock site: host throughput is the measurement.
        t0 = time.perf_counter()  # repro: lint-disable=RPR002
        res = explore(targets, schedules, strategy, seed=seed, jobs=nworkers)
        wall = time.perf_counter() - t0  # repro: lint-disable=RPR002
        entry = {
            "jobs": nworkers,
            "scenarios": list(targets),
            "strategy": strategy,
            "seed": seed,
            "schedules": res.schedules_run,
            "events": res.events_total,
            "wall_s": wall,
            "schedules_per_sec": res.schedules_run / wall if wall > 0 else 0.0,
            "failures": len(res.failures),
            "failing_digest": res.digest,
        }
        entries.append(entry)
        if verbose:
            print(
                f"  jobs={nworkers}  {entry['schedules']:>5} schedules  "
                f"{entry['wall_s']:7.2f}s  "
                f"{entry['schedules_per_sec']:8.1f} sched/s"
            )
    host = _host_info()
    # Speedup is relative to one worker; without a jobs=1 entry there is
    # no base, so no entry claims one.
    base = next((e["schedules_per_sec"] for e in entries if e["jobs"] == 1), None)
    if base is not None:
        for entry in entries:
            if entry["jobs"] <= (host["cpus"] or 1):
                entry["speedup"] = entry["schedules_per_sec"] / base if base > 0 else 0.0
    return {"schema": FLEET_SCHEMA, "host": host, "entries": entries}


def write_fleet_json(doc: dict, path: str | Path) -> Path:
    """Validate and atomically write the fleet record."""
    validate_fleet_json(doc)
    return atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")


def validate_fleet_json(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid fleet record.

    Checked: the schema tag, host core count, per-entry jobs /
    schedules / positive throughput, no ``speedup`` on an entry with
    more jobs than cores or in a record without a ``jobs == 1`` entry
    (its base), and — the determinism guarantee — that every
    entry's ``failing_digest`` is identical: the dedup'd failing-schedule
    set must not depend on the worker count.
    """
    if doc.get("schema") != FLEET_SCHEMA:
        raise ValueError(f"bad schema tag {doc.get('schema')!r}; want {FLEET_SCHEMA!r}")
    cpus = doc.get("host", {}).get("cpus")
    if not isinstance(cpus, int):
        raise ValueError("host.cpus missing: scaling entries need the core count")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError("entries must be a non-empty list")
    has_base = any(e.get("jobs") == 1 for e in entries)
    digests = set()
    for e in entries:
        where = f"jobs={e.get('jobs')!r}"
        if not isinstance(e.get("jobs"), int) or e["jobs"] < 1:
            raise ValueError(f"{where}: bad jobs count")
        if "speedup" in e and e["jobs"] > cpus:
            raise ValueError(
                f"{where}: speedup claimed with more jobs than host.cpus={cpus}"
            )
        if "speedup" in e and not has_base:
            raise ValueError(f"{where}: speedup claimed without a jobs=1 entry")
        if not isinstance(e.get("schedules"), int) or e["schedules"] <= 0:
            raise ValueError(f"{where}: bad schedules {e.get('schedules')!r}")
        sps = e.get("schedules_per_sec")
        if not isinstance(sps, (int, float)) or sps <= 0:
            raise ValueError(f"{where}: bad schedules_per_sec {sps!r}")
        if not isinstance(e.get("failing_digest"), str) or not e["failing_digest"]:
            raise ValueError(f"{where}: missing failing_digest")
        digests.add(e["failing_digest"])
    if len(digests) != 1:
        raise ValueError(
            f"failing_digest differs across jobs levels ({len(digests)} distinct): "
            "the explored failure set must be independent of --jobs"
        )

"""The five workloads: inputs, the timed call, and the oracle.

A workload is built once per child process from ``--seed``.  The seed
feeds the engine seed (the steal-victim RNG streams) and the exploration
strategy base seed, nothing else: UTS, SCF and TCE instances are fixed
so their oracles stay exact.  ``run()`` is the timed call and touches
only public entry points of ``repro``; ``check()`` runs afterwards,
outside the timed region, and compares the outputs with the oracle.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.apps.scf.parallel import run_scf_scioto
from repro.apps.scf.problem import SCFProblem
from repro.apps.scf.reference import run_scf_sequential
from repro.apps.tce.parallel import run_tce_scioto
from repro.apps.tce.problem import TCEProblem
from repro.apps.tce.reference import contract_sequential
from repro.apps.uts import count_tree, run_uts_mpi, run_uts_scioto
from repro.apps.uts.presets import EXPECTED_NODES, preset
from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import make_strategy
from repro.core import SciotoConfig
from repro.obs import stream
from repro.obs.scenarios import ObsRun, fingerprint, run_target
from repro.sim.machines import heterogeneous_cluster

EXPLORE_SCHEDULES = 60


@dataclass
class Outcome:
    """What one sample did, as checked against the oracle."""

    events: int = 0
    sim_elapsed_us: float = 0.0
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    steal_attempts: int = 0
    steal_hits: int = 0
    waves: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ``what`` names it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def sim(self, events: int, elapsed_s: float) -> None:
        self.events += events
        self.sim_elapsed_us += elapsed_s * 1e6

    def engine(self, engine: Any, events: int, elapsed_s: float) -> dict:
        """Fold one finished engine in; returns its determinism fingerprint."""
        self.sim(events, elapsed_s)
        fp = fingerprint(ObsRun("ledger", engine, None, None, elapsed_s, events))
        for per_rank in fp.get("tc", []):
            for counters in per_rank.values():
                self.steal_attempts += int(counters.get("steal_attempt", 0))
                self.steal_hits += int(counters.get("steal_success", 0))
                self.waves += int(counters.get("waves", 0))
        return fp

    def seal(self, *parts: Any) -> "Outcome":
        blob = json.dumps(parts, sort_keys=True, default=repr)
        self.fingerprint = hashlib.sha256(blob.encode()).hexdigest()
        return self


@dataclass
class Workload:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    #: Oracle constants a test may falsify (``expected["nodes"] += 1``).
    expected: dict[str, Any]
    #: The same input with recording off (``uts_recorded`` only).
    baseline: Callable[[], Any] | None = None


def _uts_ok(stats: Any, expected: dict[str, Any]) -> bool:
    return stats.nodes == expected["nodes"] and stats == expected["tree"]


def _uts_expected(name: str) -> dict[str, Any]:
    return {"nodes": EXPECTED_NODES[name], "tree": count_tree(preset(name))}


def uts_split(seed: int, workdir: Path) -> Workload:
    params, machine = preset("medium"), heterogeneous_cluster(16)
    expected = _uts_expected("medium")

    def run():
        engines: list = []
        res = run_uts_scioto(
            16, params, machine=machine, seed=seed, engine_hook=engines.append
        )
        return res, engines[0]

    def check(raw) -> Outcome:
        res, engine = raw
        out = Outcome()
        fp = out.engine(engine, res.sim.events, res.elapsed)
        out.op(_uts_ok(res.stats, expected), "uts split: tree counts differ")
        return out.seal(fp)

    return Workload("uts_split", run, check, expected)


def uts_locked_mpi(seed: int, workdir: Path) -> Workload:
    params, locked = preset("small"), SciotoConfig(split_queues=False)
    expected = _uts_expected("small")

    def run():
        engines: list = []
        res = run_uts_scioto(
            8, params, seed=seed, config=locked, engine_hook=engines.append
        )
        return res, engines[0], run_uts_mpi(8, params, seed=seed)

    def check(raw) -> Outcome:
        res, engine, mpi = raw
        out = Outcome()
        fp = out.engine(engine, res.sim.events, res.elapsed)
        out.op(_uts_ok(res.stats, expected), "uts no-split: tree counts differ")
        out.sim(mpi.sim.events, mpi.elapsed)
        out.op(_uts_ok(mpi.stats, expected), "uts mpi-ws: tree counts differ")
        for _, _, ws in mpi.sim.returns:
            out.steal_attempts += ws.steal_attempts
            out.steal_hits += ws.steals
        return out.seal(fp, mpi.sim.events, mpi.sim.finish_times)

    return Workload("uts_locked_mpi", run, check, expected)


def ga_apps(seed: int, workdir: Path) -> Workload:
    scf = SCFProblem(nblocks=32, blocksize=8, decay=0.9)
    tce = TCEProblem(nblocks=16, blocksize=16, density=0.4, seed=3)
    expected = {
        "energies": run_scf_sequential(scf, iterations=3),
        "contraction": contract_sequential(tce),
    }

    def run():
        engines: list = []
        res_scf = run_scf_scioto(
            8, scf, iterations=3, seed=seed, engine_hook=engines.append
        )
        res_tce = run_tce_scioto(8, tce, seed=seed, engine_hook=engines.append)
        return res_scf, res_tce, engines

    def check(raw) -> Outcome:
        res_scf, res_tce, engines = raw
        out = Outcome()
        fp_scf = out.engine(engines[0], res_scf.sim.events, res_scf.elapsed)
        out.op(
            len(res_scf.energies) == len(expected["energies"])
            and np.allclose(res_scf.energies, expected["energies"], rtol=1e-9, atol=0),
            "scf: energies differ from the sequential reference",
        )
        fp_tce = out.engine(engines[1], res_tce.sim.events, res_tce.elapsed)
        out.op(
            np.allclose(res_tce.result, expected["contraction"]),
            "tce: contraction differs from the dense reference",
        )
        return out.seal(fp_scf, fp_tce)

    return Workload("ga_apps", run, check, expected)


def uts_recorded(seed: int, workdir: Path) -> Workload:
    expected = _uts_expected("small")

    def run():
        spill = Path(tempfile.mkdtemp(dir=workdir))
        rec = run_target(
            "uts-small", nprocs=4, seed=seed, record=True, events=True, stream_dir=spill
        )
        t0 = perf_counter()
        packed = stream.pack(spill, spill / "trace.json")
        return rec, spill, packed, perf_counter() - t0

    def baseline():
        return run_target("uts-small", nprocs=4, seed=seed, record=False, events=False)

    def check(raw) -> Outcome:
        rec, spill, packed, pack_s = raw
        out = Outcome()
        try:
            fp = out.engine(rec.engine, rec.events, rec.elapsed)
            index = stream.SpillReader(spill).index  # raises unless sealed
            out.op(
                rec.extra["nodes"] == expected["nodes"]
                and index.get("spans", 0) > 0
                and index.get("dropped", 0) == 0,
                "uts recorded: node count, or spill not sealed clean",
            )
            try:
                other = json.loads(packed.read_text())["otherData"]
                out.op(other["spans_dropped"] == 0, "pack: spans dropped")
            except (OSError, ValueError, KeyError) as exc:
                out.op(False, f"pack: output does not parse ({exc})")
            packed_mb = packed.stat().st_size / 1e6
            total_mb = sum(f.stat().st_size for f in spill.iterdir()) / 1e6
            out.extra = {
                "spill_mb": total_mb - packed_mb,
                "packed_mb": packed_mb,
                "pack_s": pack_s,
            }
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        return out.seal(fp)

    return Workload("uts_recorded", run, check, expected, baseline)


def explore_campaign(seed: int, workdir: Path) -> Workload:
    # Each engine is folded into the outcome as soon as its schedule ends
    # (~25 us, under 1 % of the sample) and then dropped: holding all 360
    # until check() doubles peak RSS and slows the campaign by a tenth,
    # which is not what a `repro.check explore` user runs.
    def run():
        out, parts = Outcome(), []
        for target in SCENARIOS:
            for i in range(EXPLORE_SCHEDULES):
                engines: list = []
                outcome = run_once(
                    make_scenario(target),
                    make_strategy("random", seed=seed + i),
                    engine_seed=seed,
                    engine_hook=engines.append,
                )
                elapsed = max(p.now for p in engines[0].procs)
                out.engine(engines[0], outcome.events, elapsed)
                out.op(not outcome.failed, f"explore {target}: {outcome.describe()}")
                parts.append((target, outcome.events, elapsed, len(outcome.decisions)))
        return out, parts

    def check(raw) -> Outcome:
        out, parts = raw
        return out.seal(parts)

    return Workload("explore_campaign", run, check, {})


BUILDERS: dict[str, Callable[[int, Path], Workload]] = {
    "uts_split": uts_split,
    "uts_locked_mpi": uts_locked_mpi,
    "ga_apps": ga_apps,
    "uts_recorded": uts_recorded,
    "explore_campaign": explore_campaign,
}

"""One table of runnable targets: the protocol drivers and the app presets.

A target is a :class:`~repro.check.scenarios.Scenario`: a rank count,
an event budget, ``make_engine``, ``build(engine)`` to spawn the
workload, the invariants every schedule must keep, and ``summarize`` to
read the result.  The six check scenarios are targets as they are; the
UTS presets, ``scf`` and ``tce`` call their application's own spawn and
read-out.  So ``repro.obs`` records, ``repro.check`` explores and
``repro.analyze`` instruments any target by name, on one run path.
``all`` on the command lines stays the six check scenarios.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.apps.scf.parallel import scf_result, spawn_scf
from repro.apps.scf.problem import SCFProblem
from repro.apps.tce.parallel import spawn_tce, tce_result
from repro.apps.tce.problem import TCEProblem
from repro.apps.uts.presets import PRESETS
from repro.apps.uts.scioto_uts import spawn_uts, uts_result
from repro.check.invariants import (
    CheckContext,
    ExactlyOnce,
    InvariantChecker,
    MutexBalance,
    NoEarlyTermination,
    QueueConsistency,
)
from repro.check.scenarios import SCENARIOS, Scenario, make_scenario

__all__ = ["AppTarget", "APP_TARGETS", "TARGETS", "make_target"]


class AppTarget(Scenario):
    """An application preset on ``nprocs`` ranks, run to completion;
    subclasses spawn it in :meth:`build` and read it in :meth:`summarize`."""

    max_events = None

    def checkers(self) -> list[type[InvariantChecker]]:
        return [ExactlyOnce, NoEarlyTermination, QueueConsistency, MutexBalance]


class UTSTarget(AppTarget):
    """A UTS preset tree (:mod:`repro.apps.uts.presets`)."""

    def __init__(self, preset: str, nprocs: int = 4) -> None:
        self.nprocs = nprocs
        self.name = f"uts-{preset}"
        self.params = PRESETS[preset]

    def build(self, engine):
        spawn_uts(engine, self.params)
        return CheckContext()

    def summarize(self, engine, sim):
        r = uts_result(engine, sim)
        return r.elapsed, {"nodes": r.stats.nodes, "throughput": r.throughput}, r.per_rank


class SCFTarget(AppTarget):
    """Two SCF iterations of a small screened problem."""

    name = "scf"

    def __init__(self, nprocs: int = 4) -> None:
        self.nprocs = nprocs
        self.problem = SCFProblem(nblocks=8, blocksize=4, decay=0.9)

    def build(self, engine):
        spawn_scf(engine, self.problem, iterations=2)
        return CheckContext()

    def checkers(self):
        # Each iteration is its own tc_process phase with its own td-done,
        # while NoEarlyTermination assumes one phase per run.
        return [ExactlyOnce, QueueConsistency, MutexBalance]

    def summarize(self, engine, sim):
        r = scf_result(engine, sim)
        return r.elapsed, {"energy": r.energies[-1], "iterations": r.iterations}, None


class TCETarget(AppTarget):
    """One block-sparse contraction."""

    name = "tce"

    def __init__(self, nprocs: int = 4) -> None:
        self.nprocs = nprocs
        self.problem = TCEProblem(nblocks=6, blocksize=8, density=0.4, seed=3)

    def build(self, engine):
        spawn_tce(engine, self.problem)
        return CheckContext()

    def summarize(self, engine, sim):
        r = tce_result(engine, sim, self.problem)
        return r.elapsed, {"tasks_real": r.tasks_real}, None


#: App preset name -> factory(nprocs).
APP_TARGETS: dict[str, Callable[[int], AppTarget]] = {
    **{f"uts-{p}": partial(UTSTarget, p) for p in PRESETS},
    "scf": SCFTarget,
    "tce": TCETarget,
}

#: Every target name: the check scenarios, then the app presets.
TARGETS: tuple[str, ...] = (*SCENARIOS, *APP_TARGETS)


def make_target(name: str, nprocs: int = 4) -> Scenario:
    """Instantiate target ``name``; ``nprocs`` sizes the app presets (a
    check scenario runs at its own fixed rank count).

    Raises:
        ValueError: If ``name`` is not a target.
    """
    if name in SCENARIOS:
        return make_scenario(name)
    try:
        factory = APP_TARGETS[name]
    except KeyError:
        raise ValueError(f"unknown target {name!r}; choose from {sorted(TARGETS)}") from None
    return factory(nprocs)

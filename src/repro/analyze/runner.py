"""Race-detection runner: execute check scenarios with the detector on.

Unlike :mod:`repro.check` — which *searches* schedules for an
interleaving that corrupts state — the race detector fires on any
schedule that executes an unsynchronized code path, so a single
deterministic run per scenario suffices.  Mutations from
:mod:`repro.check.mutations` can be applied to demonstrate the detector
against known-bad protocol variants (``unlocked_split``,
``fence_elision``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.capture import TraceEvent
from repro.analyze.race import Race, RaceDetector
from repro.check.mutations import apply_mutation
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.core.task import reset_uids
from repro.sim.engine import Engine
from repro.util.errors import ReproError

__all__ = ["RaceRunResult", "run_race_detection"]


@dataclass
class RaceRunResult:
    """Outcome of one instrumented scenario run."""

    target: str
    mutation: str | None
    races: list[Race] = field(default_factory=list)
    accesses: int = 0
    events: int = 0
    error: str | None = None
    report: str = ""
    nprocs: int = 0
    #: The detector's captured trace (what :attr:`races` was computed from).
    trace: list[TraceEvent] = field(default_factory=list)

    @property
    def racy(self) -> bool:
        return bool(self.races)


def run_race_detection(
    target: str,
    mutation: str | None = None,
    engine_seed: int = 0,
) -> RaceRunResult:
    """Run ``target`` once under the deterministic schedule with the
    race detector attached; return every race found.

    A mutated run may crash or deadlock before completing — races in
    the trace captured up to that point are still reported.  The
    detector's wait-for monitor ends a run whose lock cycle closes with
    :class:`~repro.analyze.capture.PredictedDeadlockError`.
    """
    if target not in SCENARIOS:
        raise ValueError(f"unknown scenario {target!r} (have: {sorted(SCENARIOS)})")
    result = RaceRunResult(target=target, mutation=mutation)
    reset_uids()
    scenario = make_scenario(target)
    with apply_mutation(mutation):
        engine = Engine(
            scenario.nprocs,
            seed=engine_seed,
            max_events=scenario.max_events,
        )
        detector = RaceDetector.attach(engine)
        scenario.build(engine)
        try:
            engine.run()
        except (ReproError, RuntimeError, AssertionError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
    result.races = list(detector.races)
    result.accesses = detector.accesses
    result.events = engine.events
    result.report = detector.report()
    result.nprocs = scenario.nprocs
    result.trace = detector.events
    return result

"""Race-detection runner: one run of a target with the detector on.

Unlike :mod:`repro.check` — which *searches* schedules for an
interleaving that corrupts state — the race detector fires on any
schedule that executes an unsynchronized code path, so a single
deterministic run per target suffices.  Mutations from
:mod:`repro.check.mutations` can be applied to demonstrate the detector
against known-bad protocol variants (``unlocked_split``,
``fence_elision``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.capture import TraceEvent
from repro.analyze.race import Race, RaceDetector
from repro.check.runner import RunOutcome, run_once
from repro.check.scenarios import Scenario
from repro.check.witness import WitnessStrategy
from repro.sim.engine import SchedulingStrategy
from repro.targets import make_target

__all__ = ["RaceRunResult", "monitored_run", "run_race_detection"]


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


def monitored_run(
    scenario: Scenario,
    strategy: SchedulingStrategy | None,
    engine_seed: int = 0,
    mutation: str | None = None,
) -> tuple[RunOutcome, RaceDetector]:
    """One :func:`~repro.check.runner.run_once` with the detector
    attached (a witness strategy listening to its events); returns
    ``(outcome, detector)``."""
    dets: list[RaceDetector] = []

    def hook(engine):
        det = RaceDetector.attach(engine)
        if isinstance(strategy, WitnessStrategy):
            det.listeners.append(strategy.on_event)
        dets.append(det)

    outcome = run_once(
        scenario, strategy, engine_seed=engine_seed, mutation=mutation,
        engine_hook=hook,
    )
    return outcome, dets[0]


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
    scenario = make_target(target)
    outcome, detector = monitored_run(scenario, None, engine_seed, mutation)
    return RaceRunResult(
        target=target,
        mutation=mutation,
        races=list(detector.races),
        accesses=detector.accesses,
        events=outcome.events,
        error=outcome.error,
        report=detector.report(),
        nprocs=scenario.nprocs,
        trace=detector.events,
    )

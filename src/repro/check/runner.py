"""Exploration runner: many schedules, invariant checks, replay, shrink.

The core loop is :func:`explore`: run a scenario under a fresh seeded
exploration strategy N times; after each run, feed the recorded event
stream to the scenario's invariant checkers.  On the first failure —
an invariant violation, a deadlock, or any protocol exception — the
decision trace is persisted, replayed to confirm determinism, minimized
by delta debugging, and reported.

A *failure signature* identifies a failure class for reproduction
purposes: the sorted set of violated invariant names, or the exception
type (for deadlocks, extended with the parked rank set so that "the same
deadlock" means the same stuck configuration, not just any deadlock).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.invariants import Violation
from repro.check.mutations import apply_mutation
from repro.check.scenarios import Scenario, make_scenario
from repro.check.strategies import ExplorationStrategy, ReplayStrategy, make_strategy
from repro.check.traces import DecisionTrace, minimize_decisions
from repro.core.task import reset_uids
from repro.sim.engine import Engine, SchedulingStrategy
from repro.obs.flight import maybe_attach_flight
from repro.obs.tracing import Tracer
from repro.util.errors import ReproError, SimDeadlockError

__all__ = ["RunOutcome", "FailureReport", "ExploreResult", "run_once", "explore", "replay"]


@dataclass
class RunOutcome:
    """Result of one schedule of one scenario."""

    error: str | None = None
    parked: tuple[tuple[int, str | None], ...] = ()
    violations: list[Violation] = field(default_factory=list)
    events: int = 0
    decisions: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.violations)

    @property
    def signature(self) -> tuple:
        """Hashable failure class; () when the run was clean."""
        if self.error is not None:
            kind = self.error.split(":", 1)[0]
            if kind == "SimDeadlockError":
                return ("deadlock", tuple(sorted(r for r, _ in self.parked)))
            return ("error", kind)
        if self.violations:
            return ("invariants", tuple(sorted({v.invariant for v in self.violations})))
        return ()

    @property
    def signature_json(self) -> list:
        """The signature in its JSON (list) form, as stored in traces."""
        return json.loads(json.dumps(self.signature))

    def describe(self) -> str:
        if self.error is not None:
            return self.error
        if self.violations:
            return "; ".join(str(v) for v in self.violations[:4])
        return "ok"


@dataclass
class FailureReport:
    """A failing schedule plus its replay artifacts."""

    schedule_index: int
    strategy_seed: int
    outcome: RunOutcome
    trace_path: Path | None = None
    minimized_path: Path | None = None
    decisions_total: int = 0
    decisions_minimized: int = 0
    replay_confirmed: bool = False


@dataclass
class ExploreResult:
    """Summary of one :func:`explore` campaign."""

    target: str
    strategy: str
    schedules_run: int
    events_total: int = 0
    failures: list[FailureReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_once(
    scenario: Scenario,
    strategy: SchedulingStrategy | None,
    engine_seed: int = 0,
    mutation: str | None = None,
    engine_hook=None,
) -> RunOutcome:
    """Run one schedule of ``scenario`` under ``strategy`` and check it.

    ``engine_hook`` (when given) is called with the engine after
    creation and before the scenario builds — the attachment point for
    extra observers (race detector, witness listeners)
    without perturbing the run.
    """
    out = RunOutcome()
    # fresh task uids per run so the uids in a persisted failure trace
    # mean the same thing when the trace is replayed in a new process
    reset_uids()
    with apply_mutation(mutation):
        engine = Engine(
            scenario.nprocs,
            seed=engine_seed,
            max_events=scenario.max_events,
            strategy=strategy,
        )
        tracer = Tracer.attach(engine)
        if engine_hook is not None:
            engine_hook(engine)
        # When $REPRO_FLIGHT_DIR is set, arm the flight recorder: engine
        # failures (deadlock, PredictedDeadlockError, limits, crashes)
        # dump the last spans per rank via the engine's failure hooks.
        flight = maybe_attach_flight(engine, context=f"check-{scenario.name}")
        ctx = scenario.build(engine)
        try:
            engine.run()
        except SimDeadlockError as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            out.parked = tuple(exc.parked)
        except (ReproError, RuntimeError, AssertionError) as exc:
            out.error = f"{type(exc).__name__}: {exc}"
    out.events = engine.events
    if isinstance(strategy, (ExplorationStrategy, ReplayStrategy)):
        out.decisions = list(strategy.decisions)
    if out.error is None:
        # checkers assume a complete run; a crashed/deadlocked one is
        # already a reported failure and its stream is partial by design
        events = tracer.events
        for checker in scenario.checkers():
            out.violations.extend(checker.check(events, ctx))
        if out.violations and flight is not None:
            flight.dump(
                "invariant-failure",
                error="; ".join(str(v) for v in out.violations[:4]),
            )
    return out


def replay(trace: DecisionTrace, decisions: list[dict] | None = None) -> RunOutcome:
    """Re-execute a persisted trace (optionally with an edited decision list).

    Raises:
        ValueError: If the trace's target or mutation is unknown, or it
            was recorded for a different number of ranks than its
            target runs.
    """
    scenario = make_scenario(trace.target)
    if trace.nprocs != scenario.nprocs:
        raise ValueError(
            f"trace has nprocs={trace.nprocs} but target {trace.target!r} "
            f"runs {scenario.nprocs} ranks"
        )
    strategy = ReplayStrategy(trace.decisions if decisions is None else decisions)
    return run_once(
        scenario,
        strategy,
        engine_seed=trace.engine_seed,
        mutation=trace.mutation,
    )


def explore(
    target: str,
    schedules: int,
    strategy_name: str = "random",
    seed: int = 0,
    engine_seed: int = 0,
    mutation: str | None = None,
    out_dir: str | Path | None = None,
    stop_on_failure: bool = True,
    minimize: bool = True,
    max_minimize_replays: int = 150,
    progress=None,
) -> ExploreResult:
    """Explore ``schedules`` interleavings of ``target`` and check invariants.

    Args:
        target: Scenario name (see ``repro.check.scenarios.SCENARIOS``).
        schedules: Number of schedules to run; schedule ``i`` uses
            strategy seed ``seed + i``.
        strategy_name: ``random``, ``pct``, ``delay`` or ``deterministic``.
        seed: Base strategy seed.
        engine_seed: Engine (workload) seed, fixed across schedules.
        mutation: Optional intentional bug to apply (``repro.check.mutations``).
        out_dir: Where to persist failure traces (default ``scioto-check/``).
        stop_on_failure: Stop at the first failing schedule (default) or
            keep exploring and collect every distinct failure.
        minimize: Shrink the failing decision trace by delta debugging.
        max_minimize_replays: Replay budget for the minimizer.
        progress: Optional ``fn(i, outcome)`` called after each schedule.
    """
    scenario = make_scenario(target)
    result = ExploreResult(target=target, strategy=strategy_name, schedules_run=0)
    out_dir = Path(out_dir) if out_dir is not None else Path("scioto-check")
    seen_signatures: set[tuple] = set()

    for i in range(schedules):
        strategy = make_strategy(strategy_name, seed=seed + i)
        outcome = run_once(scenario, strategy, engine_seed=engine_seed, mutation=mutation)
        result.schedules_run += 1
        result.events_total += outcome.events
        if progress is not None:
            progress(i, outcome)
        if not outcome.failed:
            continue
        if outcome.signature in seen_signatures:
            continue
        seen_signatures.add(outcome.signature)
        report = _report_failure(
            target,
            strategy_name,
            seed + i,
            engine_seed,
            mutation,
            i,
            outcome,
            out_dir,
            minimize,
            max_minimize_replays,
        )
        result.failures.append(report)
        if stop_on_failure:
            break
    return result


def _report_failure(
    target: str,
    strategy_name: str,
    strategy_seed: int,
    engine_seed: int,
    mutation: str | None,
    index: int,
    outcome: RunOutcome,
    out_dir: Path,
    minimize: bool,
    max_minimize_replays: int,
) -> FailureReport:
    """Persist, replay-confirm, and minimize one failing schedule."""
    trace = DecisionTrace(
        target=target,
        strategy=strategy_name,
        strategy_seed=strategy_seed,
        engine_seed=engine_seed,
        nprocs=make_scenario(target).nprocs,
        schedule_index=index,
        failure=outcome.describe(),
        mutation=mutation if mutation is not None else "none",
        signature=outcome.signature_json,
        decisions=outcome.decisions,
    )
    stem = f"{target}-{strategy_name}-s{strategy_seed}"
    trace_path = trace.save(out_dir / f"{stem}.trace.json")
    report = FailureReport(
        schedule_index=index,
        strategy_seed=strategy_seed,
        outcome=outcome,
        trace_path=trace_path,
        decisions_total=len(outcome.decisions),
    )
    want = outcome.signature
    report.replay_confirmed = replay(trace).signature == want
    if minimize and report.replay_confirmed and outcome.decisions:
        minimized, _used = minimize_decisions(
            outcome.decisions,
            lambda ds: replay(trace, decisions=ds).signature == want,
            max_replays=max_minimize_replays,
        )
        min_trace = DecisionTrace(**{**trace.__dict__, "decisions": minimized})
        report.minimized_path = min_trace.save(out_dir / f"{stem}.min.json")
        report.decisions_minimized = len(minimized)
    return report

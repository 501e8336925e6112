"""Exploration runner: many schedules, invariant checks, replay, shrink.

:func:`explore` is the one campaign.  It shards targets × schedule
indices into fleet jobs (run in-process at ``jobs=1``), and each job
runs :func:`run_schedules`, the per-schedule loop: schedule
``i`` of a target runs under a fresh exploration strategy seeded
``seed + i``, and the scenario's invariant checkers read its events
as they happen.  The shards are merged in (target, index) order and
the lowest index of each (target, failure signature) is kept.  Every
kept failure — an invariant violation, a deadlock, or any protocol
exception — has its decision trace persisted, replayed to confirm
determinism, and minimized by delta debugging.  Nothing in that
pipeline depends on how the indices were sharded, so ``jobs`` changes
the wall clock, never the answer.

A *failure signature* identifies a failure class for reproduction
purposes: the sorted set of violated invariant names, or the exception
type (for deadlocks, extended with the parked rank set so that "the same
deadlock" means the same stuck configuration, not just any deadlock).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.check.invariants import Violation
from repro.check.mutations import apply_mutation
from repro.check.scenarios import Scenario
from repro.check.strategies import ExplorationStrategy, ReplayStrategy, make_strategy
from repro.check.traces import DecisionTrace, minimize_decisions
from repro.core.task import reset_uids
from repro.sim.engine import SchedulingStrategy
from repro.obs.tracing import Tracer
# a module import: repro.targets imports this package back
from repro import targets as target_table
from repro.util.errors import ReproError, SimDeadlockError

__all__ = [
    "RunOutcome",
    "FailureReport",
    "ExploreResult",
    "run_once",
    "run_schedules",
    "explore",
    "replay",
]

#: Replay budget for minimizing one failing decision trace.
MINIMIZE_REPLAYS = 150


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
    """A failing schedule plus its replay artifacts.

    Shards send these back from fleet workers with only the first four
    fields set; :func:`explore` fills in the rest in the parent.
    """

    target: str
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

    targets: list[str]
    strategy: str
    schedules_run: int = 0
    events_total: int = 0
    #: The kept failures in (target, schedule index) order.
    failures: list[FailureReport] = field(default_factory=list)
    #: SHA-256 over the kept failures' trace fingerprints: the failing
    #: set's identity, the same for any ``jobs``.
    digest: str = ""

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

    The checkers read each event as it happens; no event list is kept.
    ``engine_hook`` (when given) is called with the engine after
    creation and before the scenario builds — the attachment point for
    extra observers (race detector, witness listeners, the tracer's
    event list) without perturbing the run.
    """
    out = RunOutcome()
    # fresh task uids per run so the uids in a persisted failure trace
    # mean the same thing when the trace is replayed in a new process
    reset_uids()
    with apply_mutation(mutation):
        engine = scenario.make_engine(engine_seed, strategy)
        if engine_hook is not None:
            engine_hook(engine)
        ctx = scenario.build(engine)
        checkers = [cls(ctx) for cls in scenario.checkers()]
        for checker in checkers:
            Tracer.subscribe(engine, checker.kinds, checker.on_event)
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
        # end-of-run rules assume a complete run; a crashed/deadlocked
        # one is already a reported failure and its stream is partial
        for checker in checkers:
            out.violations.extend(checker.check())
    return out


def replay(
    trace: DecisionTrace, decisions: list[dict] | None = None, engine_hook=None
) -> RunOutcome:
    """Re-execute a persisted trace (optionally with an edited decision list).

    An app preset is built at the trace's ``nprocs``.  ``engine_hook``
    is passed to :func:`run_once` (e.g. to attach a span recorder).

    Raises:
        ValueError: If the trace's target or mutation is unknown, or it
            was recorded for a different number of ranks than its
            check scenario runs.
    """
    scenario = target_table.make_target(trace.target, trace.nprocs)
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
        engine_hook=engine_hook,
    )


def run_schedules(
    target: str,
    strategy: str,
    indices: list[int],
    seed: int = 0,
    engine_seed: int = 0,
    mutation: str | None = None,
) -> dict:
    """Run schedules ``indices`` of ``target``: the loop of every campaign.

    Schedule ``i`` runs under strategy ``strategy`` seeded ``seed + i``.
    Returns one shard's payload: the schedule and event counts, and as
    ``failures`` the lowest-index failing schedule of each signature.
    """
    scenario = target_table.make_target(target)
    events = 0
    failures: list[FailureReport] = []
    seen: set[tuple] = set()
    for i in indices:
        outcome = run_once(
            scenario,
            make_strategy(strategy, seed=seed + i),
            engine_seed=engine_seed,
            mutation=mutation,
        )
        events += outcome.events
        if outcome.failed and outcome.signature not in seen:
            seen.add(outcome.signature)
            failures.append(FailureReport(target, i, seed + i, outcome))
    return {"schedules": len(indices), "events": events, "failures": failures}


def explore(
    targets: str | Iterable[str],
    schedules: int,
    strategy_name: str = "random",
    seed: int = 0,
    engine_seed: int = 0,
    mutation: str | None = None,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    progress: Callable[[dict], None] | None = None,
) -> ExploreResult:
    """Explore ``schedules`` interleavings of each target and check invariants.

    Args:
        targets: Target name, or several (see ``repro.targets.TARGETS``);
            repeats collapse in order.
        schedules: Schedules per target; schedule ``i`` uses strategy
            seed ``seed + i``.
        strategy_name: ``random``, ``pct``, ``delay`` or ``deterministic``.
        seed: Base strategy seed.
        engine_seed: Engine (workload) seed, fixed across schedules.
        mutation: Optional intentional bug to apply (``repro.check.mutations``).
        out_dir: Where to persist failure traces (default ``scioto-check/``).
        jobs: Fleet workers; ``1`` runs every shard in this process.
        progress: Optional fleet progress callback (``FleetScheduler``).

    Raises:
        ValueError: For ``schedules < 1`` or an unknown target, before
            any schedule runs.
        RuntimeError: When a shard raised or its worker died twice.
    """
    targets = list(dict.fromkeys([targets] if isinstance(targets, str) else targets))
    for target in targets:
        target_table.make_target(target)  # an unknown target raises here
    # The fleet builds on repro.check; importing it here keeps the
    # importers of run_once (the ledger among them) light.
    from repro.fleet.jobs import explore_jobs
    from repro.fleet.scheduler import run_campaign

    shards = explore_jobs(
        targets,
        schedules,
        strategy=strategy_name,
        seed=seed,
        engine_seed=engine_seed,
        mutation=mutation,
        nworkers=jobs,
    )
    results = run_campaign(shards, jobs, progress=progress)
    result = ExploreResult(targets=targets, strategy=strategy_name)
    result.schedules_run, result.events_total, result.failures = _merge_shards(
        [r.value for r in results], targets
    )
    out_dir = Path(out_dir) if out_dir is not None else Path("scioto-check")
    for failure in result.failures:
        _report_failure(failure, strategy_name, engine_seed, mutation, out_dir)
    result.digest = _failing_set_digest(result.failures, strategy_name, engine_seed, mutation)
    return result


def _merge_shards(
    payloads: list[dict], targets: list[str]
) -> tuple[int, int, list[FailureReport]]:
    """Fold shard payloads into ``(schedules, events, kept failures)``.

    Failures are ordered by (campaign target order, schedule index), and
    the first of each (target, signature) is kept: the rule one loop over
    every index applies, whatever the partition and completion order.
    """
    order = {t: n for n, t in enumerate(targets)}
    found = [f for p in payloads for f in p["failures"]]
    found.sort(key=lambda f: (order[f.target], f.schedule_index))
    seen: set[tuple] = set()
    kept = []
    for f in found:
        if (f.target, f.outcome.signature) not in seen:
            seen.add((f.target, f.outcome.signature))
            kept.append(f)
    return (
        sum(p["schedules"] for p in payloads),
        sum(p["events"] for p in payloads),
        kept,
    )


def _failing_set_digest(
    failures: list[FailureReport], strategy: str, engine_seed: int, mutation: str | None
) -> str:
    """SHA-256 over each failure's trace fingerprint, in order.

    A fingerprint is the canonical-JSON SHA-256 of everything that
    determines the failing interleaving, so equal campaigns give equal
    digests in any process.
    """
    h = hashlib.sha256()
    for f in failures:
        doc = json.dumps(
            {
                "target": f.target,
                "strategy": strategy,
                "strategy_seed": f.strategy_seed,
                "engine_seed": engine_seed,
                "mutation": mutation or "none",
                "signature": f.outcome.signature_json,
                "decisions": f.outcome.decisions,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        h.update(hashlib.sha256(doc.encode()).hexdigest().encode())
        h.update(b"\n")
    return h.hexdigest()


def _report_failure(
    report: FailureReport,
    strategy_name: str,
    engine_seed: int,
    mutation: str | None,
    out_dir: Path,
) -> None:
    """Persist, replay-confirm, and minimize one failing schedule."""
    outcome = report.outcome
    trace = DecisionTrace(
        target=report.target,
        strategy=strategy_name,
        strategy_seed=report.strategy_seed,
        engine_seed=engine_seed,
        nprocs=target_table.make_target(report.target).nprocs,
        schedule_index=report.schedule_index,
        failure=outcome.describe(),
        mutation=mutation if mutation is not None else "none",
        signature=outcome.signature_json,
        decisions=outcome.decisions,
    )
    stem = f"{report.target}-{strategy_name}-s{report.strategy_seed}"
    report.trace_path = trace.save(out_dir / f"{stem}.trace.json")
    report.decisions_total = len(outcome.decisions)
    want = outcome.signature
    report.replay_confirmed = replay(trace).signature == want
    if report.replay_confirmed and outcome.decisions:
        minimized, _used = minimize_decisions(
            outcome.decisions,
            lambda ds: replay(trace, decisions=ds).signature == want,
            max_replays=MINIMIZE_REPLAYS,
        )
        min_trace = DecisionTrace(**{**trace.__dict__, "decisions": minimized})
        report.minimized_path = min_trace.save(out_dir / f"{stem}.min.json")
        report.decisions_minimized = len(minimized)

"""``repro.check`` — schedule-exploration model checking for the Scioto protocols.

The deterministic simulator executes exactly one interleaving per seed;
this package turns it into a correctness tool by driving the engine
through many *adversarial* interleavings and checking protocol
invariants on every one:

* :mod:`repro.check.strategies` — pluggable schedules: random walk, PCT
  (probabilistic concurrency testing), bounded delay injection, and
  deterministic trace replay.
* :mod:`repro.check.invariants` — exactly-once execution, never-early
  termination, split-queue descriptor conservation, mutex balance,
  task-graph dependency order.
* :mod:`repro.check.scenarios` — small checkable workloads targeting the
  split queue, the full ``tc_process`` stack, wait-free steals, and the
  TaskGraph extension.
* :mod:`repro.check.mutations` — intentional bugs that validate the
  checker catches what it claims to.
* :mod:`repro.check.runner` / :mod:`repro.check.traces` — the one
  campaign: explore (sharded over ``repro.fleet`` jobs, in-process at
  ``jobs=1``), then persist / replay / minimize every kept failure.

Command line::

    python -m repro.check --target queue --schedules 500
    python -m repro.check --target termination --strategy pct
    python -m repro.check --target all --jobs 4
    python -m repro.check --replay scioto-check/queue-random-s17.min.json
"""

from repro.check.invariants import (
    CheckContext,
    ExactlyOnce,
    GraphDependencyOrder,
    InvariantChecker,
    MutexBalance,
    NoEarlyTermination,
    QueueConsistency,
    Violation,
)
from repro.check.runner import ExploreResult, FailureReport, RunOutcome, explore, replay, run_once
from repro.check.scenarios import SCENARIOS, Scenario, make_scenario
from repro.check.strategies import (
    STRATEGIES,
    DelayInjector,
    DeterministicStrategy,
    ExplorationStrategy,
    PctStrategy,
    RandomWalk,
    ReplayStrategy,
    make_strategy,
)
from repro.check.traces import DecisionTrace, minimize_decisions

__all__ = [
    "CheckContext",
    "DecisionTrace",
    "DelayInjector",
    "DeterministicStrategy",
    "ExactlyOnce",
    "ExplorationStrategy",
    "ExploreResult",
    "FailureReport",
    "GraphDependencyOrder",
    "InvariantChecker",
    "MutexBalance",
    "NoEarlyTermination",
    "PctStrategy",
    "QueueConsistency",
    "RandomWalk",
    "ReplayStrategy",
    "RunOutcome",
    "SCENARIOS",
    "STRATEGIES",
    "Scenario",
    "Violation",
    "explore",
    "make_scenario",
    "make_strategy",
    "minimize_decisions",
    "replay",
    "run_once",
]

"""Checkable workloads: small, adversarial-friendly protocol drivers.

A scenario wires a workload onto a fresh :class:`~repro.sim.engine.Engine`
and names the invariants that must hold on every schedule of that
workload.  Workloads are deliberately small — a handful of ranks, tens
of tasks — because schedule exploration multiplies run count, not run
size: bugs of depth 2-3 show up in tiny workloads once the interleaving
is adversarial (the whole point of the checker).

All scenario workloads derive their randomness from the engine's seeded
per-rank RNG streams, so for a fixed engine seed the *program* is
deterministic and only the *schedule* varies between exploration runs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.check.invariants import (
    CheckContext,
    ExactlyOnce,
    GraphDependencyOrder,
    InvariantChecker,
    MutexBalance,
    NoEarlyTermination,
    QueueConsistency,
)
from repro.core.collection import TaskCollection
from repro.core.config import SciotoConfig
from repro.core.graph import TaskGraph
from repro.core.queue import SplitQueue
from repro.core.stats import ProcessStats
from repro.core.task import Task
from repro.sim.engine import Engine, SchedulingStrategy, SimResult
from repro.sim.counters import Counters

__all__ = [
    "Scenario",
    "QueueScenario",
    "TerminationScenario",
    "StealTerminationScenario",
    "WaitFreeScenario",
    "GraphScenario",
    "SCENARIOS",
    "make_scenario",
]


class Scenario:
    """One checkable workload.

    Subclasses set :attr:`name`, :attr:`nprocs`, :attr:`max_events`, and
    implement :meth:`build` (spawn mains on the engine, return the
    :class:`CheckContext`) and :meth:`checkers` (the invariant classes,
    built per run with that context).
    """

    name: str = "scenario"
    nprocs: int = 4
    max_events: int | None = 500_000

    def make_engine(
        self, seed: int = 0, strategy: SchedulingStrategy | None = None
    ) -> Engine:
        """A fresh engine for one run of this workload."""
        return Engine(self.nprocs, seed=seed, max_events=self.max_events, strategy=strategy)

    def build(self, engine: Engine) -> CheckContext:
        raise NotImplementedError

    def checkers(self) -> list[type[InvariantChecker]]:
        raise NotImplementedError

    def summarize(
        self, engine: Engine, sim: SimResult
    ) -> tuple[float, dict[str, Any], list[ProcessStats] | None]:
        """``(elapsed, extra, process_stats)`` of a finished run; the
        last two are figures to print and per-rank task statistics."""
        return sim.elapsed, {}, None


class QueueScenario(Scenario):
    """Direct split-queue stress: one queue per rank, concurrent owner
    pushes/pops against thief steals, checked for descriptor conservation
    and mutex balance.  Exercises release/reacquire split moves under
    every interleaving the strategy can produce.
    """

    name = "queue"
    nprocs = 3
    max_events = 200_000

    def __init__(self, wait_free: bool = False) -> None:
        self.wait_free = wait_free
        self.capacity = 64

    def build(self, engine: Engine) -> CheckContext:
        cfg = SciotoConfig(wait_free_steals=self.wait_free, chunk_size=4)
        counters = Counters()
        queues = [
            SplitQueue(engine, r, self.capacity, 32, cfg, counters, name="chk")
            for r in range(engine.nprocs)
        ]

        def main(proc):
            q = queues[proc.rank]
            if proc.rank == 0:
                # owner: rounds of push-then-drain so the queue repeatedly
                # crosses the release/reacquire thresholds while thieves
                # are still active — every drain of the private portion
                # forces a reacquire split move against in-flight steals
                body = 0
                for _round in range(4):
                    for _ in range(6):
                        yield from q.co_push_local(
                            proc, Task(callback=0, body=body, affinity=body % 3)
                        )
                        body += 1
                    yield from proc.co_sleep(float(proc.rng.uniform(0.0, 1e-6)))
                    while (yield from q.co_pop_local(proc)) is not None:
                        yield from proc.co_sleep(float(proc.rng.uniform(0.0, 0.5e-6)))
            else:
                # thieves: steal from rank 0 throughout the owner's run,
                # absorb, and drain locally
                for _ in range(10):
                    yield from proc.co_sleep(float(proc.rng.uniform(0.0, 1.5e-6)))
                    got = yield from queues[0].co_steal_from(proc, 3)
                    if got:
                        yield from q.co_absorb_stolen(proc, got)
                    while (yield from q.co_pop_local(proc)) is not None:
                        pass

        engine.spawn_all(main)
        return CheckContext(capacity=self.capacity, expect_complete=False)

    def checkers(self) -> list[type[InvariantChecker]]:
        return [QueueConsistency, MutexBalance]


class TerminationScenario(Scenario):
    """Full ``tc_process`` phase over a spawning task tree with remote
    adds, checked for exactly-once execution and never-early termination.
    This is the protocol stack the paper's correctness rests on: split
    queues + work stealing + wave termination with votes-before.
    """

    name = "termination"
    nprocs = 4
    max_events = 500_000
    tree_limit = 14  # bodies < limit spawn two children

    def __init__(self, config: SciotoConfig | None = None) -> None:
        self.config = config if config is not None else SciotoConfig(chunk_size=2)
        self.capacity = 256

    def build(self, engine: Engine) -> CheckContext:
        limit = self.tree_limit

        def main(proc):
            tc = yield from TaskCollection.co_create(
                proc, task_size=64, max_tasks=self.capacity, config=self.config
            )

            def node(tc_, t):
                # yield mid-task: execution spans several scheduling
                # decision points, as real task bodies (with comm) do —
                # this is what gives the post-steal race window depth
                tc_.proc.compute(0.5e-6)
                yield from tc_.proc.co_sleep(float(tc_.proc.rng.uniform(0.1e-6, 1.0e-6)))
                if t.body < limit:
                    left = Task(callback=h, body=2 * t.body + 1)
                    right = Task(callback=h, body=2 * t.body + 2)
                    yield from tc_.co_add(left)
                    # a sprinkle of remote adds exercises add_remote and
                    # the piggybacked dirty marking
                    dest = (tc_.rank + 1) % tc_.nprocs if t.body % 5 == 0 else None
                    yield from tc_.co_add(right, rank=dest)

            h = tc.register(node)
            if proc.rank == 0:
                yield from tc.co_add(Task(callback=h, body=0))
            yield from tc.co_process()

        engine.spawn_all(main)
        return CheckContext(capacity=self.capacity, expect_complete=True)

    def checkers(self) -> list[type[InvariantChecker]]:
        return [ExactlyOnce, NoEarlyTermination, QueueConsistency, MutexBalance]


class StealTerminationScenario(TerminationScenario):
    """Termination with steals as the *only* load-balancing channel.

    Remote adds carry a piggybacked dirty mark that is not part of §5.3's
    steal-marking protocol; in a workload that mixes both, a victim's own
    remote-add dirty flag blackens its vote and masks a broken
    ``note_steal`` (the wave relaunches and the run self-heals).  This
    scenario drops remote adds and uses the minimal 3-rank tree — root
    plus two leaves — so the §5.3 race (thief votes white, then steals,
    then stalls while the wave completes) is reachable at low depth.
    This is the target that catches the ``no_dirty_mark`` mutation.
    """

    name = "steals"
    nprocs = 3

    def build(self, engine: Engine) -> CheckContext:
        limit = self.tree_limit

        def main(proc):
            tc = yield from TaskCollection.co_create(
                proc, task_size=64, max_tasks=self.capacity, config=self.config
            )

            def node(tc_, t):
                tc_.proc.compute(0.5e-6)
                yield from tc_.proc.co_sleep(float(tc_.proc.rng.uniform(0.1e-6, 1.0e-6)))
                if t.body < limit:
                    yield from tc_.co_add(Task(callback=h, body=2 * t.body + 1))
                    yield from tc_.co_add(Task(callback=h, body=2 * t.body + 2))

            h = tc.register(node)
            if proc.rank == 0:
                yield from tc.co_add(Task(callback=h, body=0))
            yield from tc.co_process()

        engine.spawn_all(main)
        return CheckContext(capacity=self.capacity, expect_complete=True)


class WaitFreeScenario(TerminationScenario):
    """The termination workload with the §8 wait-free steal protocol:
    reservation atomics instead of the queue mutex."""

    name = "waitfree"

    def __init__(self) -> None:
        super().__init__(SciotoConfig(wait_free_steals=True, chunk_size=2))


class GraphScenario(Scenario):
    """TaskGraph DAG execution: a fan-out/fan-in diamond lattice whose
    dependency counters are decremented with one-sided atomics, checked
    for dependency order and exactly-once dispatch."""

    name = "graph"
    nprocs = 3
    max_events = 500_000

    #: name -> deps; two stacked diamonds plus a cross edge.
    DAG: dict[str, tuple[str, ...]] = {
        "a": (),
        "b": ("a",),
        "c": ("a",),
        "d": ("b", "c"),
        "e": ("d",),
        "f": ("d",),
        "g": ("e", "f"),
        "h": ("c", "f"),
    }

    def build(self, engine: Engine) -> CheckContext:
        dag = self.DAG

        def main(proc):
            tc = yield from TaskCollection.co_create(proc, task_size=64, max_tasks=64)
            tg = yield from TaskGraph.co_create(tc)

            def work(tc_, t):
                tc_.proc.compute(float(tc_.proc.rng.uniform(0.2e-6, 1e-6)))

            for i, (name, deps) in enumerate(dag.items()):
                tg.add(name, work, deps=list(deps), rank=i % proc.nprocs)
            yield from tg.co_process()

        engine.spawn_all(main)
        return CheckContext(capacity=64, expect_complete=True, dag=dict(dag))

    def checkers(self) -> list[type[InvariantChecker]]:
        return [GraphDependencyOrder, ExactlyOnce, NoEarlyTermination, MutexBalance]


#: CLI names for the checkable targets.
SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "queue": QueueScenario,
    "queue-wf": lambda: QueueScenario(wait_free=True),
    "termination": TerminationScenario,
    "steals": StealTerminationScenario,
    "waitfree": WaitFreeScenario,
    "graph": GraphScenario,
}


def make_scenario(name: str) -> Scenario:
    """Instantiate the scenario registered as ``name``."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown target {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return factory()

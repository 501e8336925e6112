"""Inter-task dependencies: the paper's §8 future-work extension.

The paper's model supports independent tasks and says "we are presently
working on extending our independent task model with support for tasks
that exhibit arbitrary inter-task dependencies."  This module provides
that extension on top of unmodified task collections:

* A :class:`TaskGraph` is declared *identically on every rank*
  (replicated metadata, like GA sparsity masks): named tasks, their
  callbacks/bodies, and their dependencies, forming a DAG.
* Each task has a *home* rank (explicit or hashed) that hosts its
  remaining-dependency counter and executes it with high affinity
  (stealable like any other task).
* When a task completes, the executing rank atomically decrements each
  successor's counter with a one-sided fetch-and-add; whoever drives a
  counter to zero enqueues the successor at its home.  Enabling a task
  is a (possibly remote) ``tc_add``, so the existing termination
  detector remains correct with no changes: the enabler is active at the
  moment it adds, and dirty marking covers the rest.

Because only counter decrements are added to the critical path, the
scheme keeps Scioto's lightweight character: no central dependence
manager, no extra progress threads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any

from repro.armci.runtime import Armci
from repro.core.collection import TaskCollection
from repro.core.task import AFFINITY_HIGH, Task
from repro.obs.tracing import trace
from repro.util.errors import TaskCollectionError

__all__ = ["TaskGraph"]


def _stable_hash(key: str) -> int:
    import hashlib

    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


@dataclass
class _Node:
    name: str
    fn: Callable[[TaskCollection, Task], None]
    body: Any
    deps: tuple[str, ...]
    rank: int
    affinity: int
    successors: list[str] = field(default_factory=list)


class TaskGraph:
    """A DAG of named, dependent tasks over one task collection.

    Declare the same graph on every rank, then call :meth:`process`
    collectively::

        tg = TaskGraph.create(tc)
        tg.add("a", fn, body=1)
        tg.add("b", fn, body=2, deps=["a"])
        tg.add("c", fn, body=3, deps=["a"])
        tg.add("d", fn, body=4, deps=["b", "c"])
        tg.process()
    """

    _KEY = "scioto_graphs"

    def __init__(self, tc: TaskCollection, counters: dict[str, int]) -> None:
        self.tc = tc
        self._nodes: dict[str, _Node] = {}
        self._sealed = False
        # dependency counters hosted per home rank; shared engine-level dict
        # mutated only through one-sided rmw at the home rank
        self._counters = counters
        self._handle = tc.register(self._run_node)

    # ------------------------------------------------------------------ #
    # Construction (collective, replicated)
    # ------------------------------------------------------------------ #
    @classmethod
    def co_create(cls, tc: TaskCollection):
        """Collectively create a graph bound to ``tc`` (call on every rank)."""
        registry = tc.proc.engine.state.setdefault(
            cls._KEY, {"counts": [0] * tc.nprocs, "stores": []}
        )
        idx = registry["counts"][tc.rank]
        registry["counts"][tc.rank] += 1
        yield from tc.proc.co_sync()
        if idx == len(registry["stores"]):
            registry["stores"].append({})
        return cls(tc, registry["stores"][idx])

    def add(
        self,
        name: str,
        fn: Callable[[TaskCollection, Task], None],
        body: Any = None,
        deps: list[str] | tuple[str, ...] = (),
        rank: int | None = None,
        affinity: int = AFFINITY_HIGH,
    ) -> None:
        """Declare a task (identically on every rank).

        Args:
            name: Unique task name.
            fn: Callback ``fn(tc, task)``; ``task.body`` is ``body``.
            body: User payload (deep-copied at enqueue time).
            deps: Names of tasks that must complete first.
            rank: Home rank; defaults to a stable hash of the name.
            affinity: Affinity of the task for its home rank.
        """
        if self._sealed:
            raise TaskCollectionError("cannot add tasks after process() started")
        if name in self._nodes:
            raise TaskCollectionError(f"duplicate task name {name!r}")
        home = _stable_hash(name) % self.tc.nprocs if rank is None else rank
        if not 0 <= home < self.tc.nprocs:
            raise TaskCollectionError(f"invalid home rank {home} for {name!r}")
        self._nodes[name] = _Node(
            name=name, fn=fn, body=body, deps=tuple(deps), rank=home, affinity=affinity
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def co_process(self):
        """Seed ready tasks and run the collection to termination (collective)."""
        yield from self._co_seal()
        proc = self.tc.proc
        # every rank seeds the ready tasks homed on it
        for node in self._nodes.values():
            if not node.deps and node.rank == proc.rank:
                yield from self._co_enqueue(node)
        yield from Armci.attach(proc.engine).co_barrier(proc)
        return (yield from self.tc.co_process())

    def _co_seal(self):
        if self._sealed:
            return
        self._validate()
        for node in self._nodes.values():
            for dep in node.deps:
                self._nodes[dep].successors.append(node.name)
            if self.tc.rank == node.rank:
                # the home rank hosts the counter (one writer at creation;
                # later mutated only via one-sided rmw)
                self._counters[node.name] = len(node.deps)
        yield from self.tc.proc.co_sync()
        self._sealed = True

    def _validate(self) -> None:
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise TaskCollectionError(
                        f"task {node.name!r} depends on unknown task {dep!r}"
                    )
        # Kahn's algorithm: every node must be reachable from the sources
        indeg = {n: len(node.deps) for n, node in self._nodes.items()}
        ready = [n for n, d in indeg.items() if d == 0]
        seen = 0
        succs: dict[str, list[str]] = {n: [] for n in self._nodes}
        for n, node in self._nodes.items():
            for dep in node.deps:
                succs[dep].append(n)
        while ready:
            n = ready.pop()
            seen += 1
            for s in succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if seen != len(self._nodes):
            cyclic = sorted(n for n, d in indeg.items() if d > 0)
            raise TaskCollectionError(f"dependency cycle involving {cyclic}")

    def _co_enqueue(self, node: _Node):
        yield from self.tc.co_add(
            Task(callback=self._handle, body=node.name, affinity=node.affinity),
            rank=node.rank,
        )

    def _run_node(self, tc: TaskCollection, task: Task):
        # Registered as a task callback: the scheduler drives the
        # returned generator (see ``co_run_process``).
        node = self._nodes[task.body]
        trace(tc.proc, "graph-node", node.name)
        user_task = Task(callback=self._handle, body=node.body, affinity=node.affinity)
        res = node.fn(tc, user_task)
        if type(res) is GeneratorType:
            yield from res
        armci = Armci.attach(tc.proc.engine)
        for succ_name in node.successors:
            succ = self._nodes[succ_name]

            def _dec(name=succ_name) -> int:
                self._counters[name] -= 1
                return self._counters[name]

            remaining = yield from armci.co_rmw(tc.proc, succ.rank, _dec)
            if remaining == 0:
                yield from self._co_enqueue(succ)
            elif remaining < 0:  # pragma: no cover - defensive
                raise TaskCollectionError(
                    f"dependency counter of {succ_name!r} went negative"
                )

"""Task collections: the global view of a distributed set of tasks (§2-§3).

A :class:`TaskCollection` is created collectively.  Each rank holds a
handle sharing engine-level state: one :class:`SplitQueue` per rank, the
callback and common-local-object registries, and per-phase termination
detectors.  The paper's API maps directly:

====================  =============================================
paper                 here
====================  =============================================
``tc_create``         :meth:`TaskCollection.create`
``tc_destroy``        :meth:`TaskCollection.destroy`
``tc_add``            :meth:`TaskCollection.add`
``tc_process``        :meth:`TaskCollection.process`
``tc_reset``          :meth:`TaskCollection.reset`
``tc_register``       :meth:`TaskCollection.register`
CLO registration      :meth:`TaskCollection.register_clo` / :meth:`clo`
====================  =============================================
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

from repro.armci.runtime import Armci
from repro.core.config import SciotoConfig
from repro.core.queue import SplitQueue
from repro.core.task import Task
from repro.core.termination import TerminationDetector
from repro.sim.engine import Engine, Proc
from repro.sim.counters import Counters
from repro.util.errors import TaskCollectionError

__all__ = ["TaskCollection"]


class _SharedTC:
    """Engine-level state shared by all ranks' handles to one collection."""

    def __init__(
        self,
        engine: Engine,
        cid: int,
        task_size: int,
        max_tasks: int,
        config: SciotoConfig,
    ) -> None:
        self.engine = engine
        self.cid = cid
        self.task_size = task_size
        self.max_tasks = max_tasks
        self.config = config
        self.counters = Counters()
        self.queues = [
            SplitQueue(
                engine,
                rank,
                max_tasks,
                task_size,
                config,
                self.counters,
                name=f"tc{cid}",
            )
            for rank in range(engine.nprocs)
        ]
        # per-rank callback tables; handle h on any rank dispatches
        # callbacks[rank][h] (collective registration keeps them aligned)
        self.callbacks: list[list[Callable[..., None]]] = [[] for _ in range(engine.nprocs)]
        self.clos: list[list[Any]] = [[] for _ in range(engine.nprocs)]
        self.process_counts = [0] * engine.nprocs
        self.detectors: dict[int, list[TerminationDetector]] = {}
        # rank -> the rank's active detector while inside tc_process, else None
        self.active: list[TerminationDetector | None] = [None] * engine.nprocs
        self.destroyed = False

    def detectors_for(self, generation: int) -> list[TerminationDetector]:
        """All ranks' detectors for phase ``generation`` (created once)."""
        dets = self.detectors.get(generation)
        if dets is None:
            dets: list[TerminationDetector] = []
            for rank in range(self.engine.nprocs):
                dets.append(
                    TerminationDetector(
                        self.engine,
                        rank,
                        tag=f"td:tc{self.cid}:g{generation}",
                        peers=dets,
                        optimize=self.config.termination_opt,
                        counters=self.counters,
                    )
                )
            self.detectors[generation] = dets
        return dets


class TaskCollection:
    """One rank's handle to a shared collection of task objects."""

    _KEY = "scioto"

    def __init__(self, proc: Proc, shared: _SharedTC) -> None:
        self.proc = proc
        self._shared = shared

    # ------------------------------------------------------------------ #
    # Lifecycle (collective)
    # ------------------------------------------------------------------ #
    @classmethod
    def co_create(
        cls,
        proc: Proc,
        task_size: int = 1024,
        chunk_size: int | None = None,
        max_tasks: int = 16384,
        config: SciotoConfig | None = None,
    ):
        """Collectively create a task collection (``tc_create``).

        Args:
            proc: The calling rank's simulated process.
            task_size: Maximum task body size in bytes (storage/cost unit).
            chunk_size: Steal granularity in tasks; overrides the config.
            max_tasks: Queue capacity per process.
            config: Runtime configuration; defaults to :class:`SciotoConfig`.
        """
        cfg = config if config is not None else SciotoConfig()
        if chunk_size is not None:
            cfg = dataclasses.replace(cfg, chunk_size=chunk_size)
        if task_size < 0 or max_tasks < 1:
            raise ValueError("task_size must be >= 0 and max_tasks >= 1")
        registry = proc.engine.state.setdefault(
            cls._KEY, {"counts": [0] * proc.nprocs, "shared": []}
        )
        idx = registry["counts"][proc.rank]
        registry["counts"][proc.rank] += 1
        yield from proc.co_sync()
        if idx == len(registry["shared"]):
            registry["shared"].append(
                _SharedTC(proc.engine, idx, task_size, max_tasks, cfg)
            )
        shared: _SharedTC = registry["shared"][idx]
        if shared.task_size != task_size or shared.max_tasks != max_tasks:
            raise TaskCollectionError(
                f"collective tc_create mismatch on rank {proc.rank}"
            )
        yield from Armci.attach(proc.engine).co_barrier(proc)
        return cls(proc, shared)

    def co_destroy(self):
        """Collectively destroy the collection (``tc_destroy``)."""
        yield from Armci.attach(self.proc.engine).co_barrier(self.proc)
        self._shared.destroyed = True

    def co_reset(self):
        """Collectively drop all queued tasks so the collection can be reused
        (``tc_reset``)."""
        self._check_alive()
        armci = Armci.attach(self.proc.engine)
        yield from armci.co_barrier(self.proc)
        self._shared.queues[self.proc.rank].drain()
        yield from armci.co_barrier(self.proc)

    # ------------------------------------------------------------------ #
    # Registration (collective)
    # ------------------------------------------------------------------ #
    def register(self, fn: Callable[["TaskCollection", Task], None]) -> int:
        """Collectively register a task callback; returns its portable handle.

        Every rank must register the same callbacks in the same order.
        """
        self._check_alive()
        if not callable(fn):
            raise TypeError(f"callback must be callable, got {fn!r}")
        table = self._shared.callbacks[self.rank]
        table.append(fn)
        return len(table) - 1

    def register_clo(self, obj: Any) -> int:
        """Collectively register a common local object (§2.3).

        Each rank passes its own local instance; the returned handle
        resolves to the local instance on whichever rank a task runs.
        """
        self._check_alive()
        store = self._shared.clos[self.rank]
        store.append(obj)
        return len(store) - 1

    def clo(self, handle: int) -> Any:
        """Look up this rank's instance of a common local object."""
        store = self._shared.clos[self.proc.rank]
        if not 0 <= handle < len(store):
            raise TaskCollectionError(
                f"no common local object with handle {handle} on rank {self.rank}"
            )
        return store[handle]

    # ------------------------------------------------------------------ #
    # Task management
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self.proc.rank

    @property
    def nprocs(self) -> int:
        return self.proc.nprocs

    def co_add(
        self,
        task: Task,
        rank: int | None = None,
        affinity: int | None = None,
    ):
        """Add a task to the collection (``tc_add``).

        The descriptor is copied (copy-in/out semantics) so the caller may
        immediately reuse or mutate its task buffer.  Validation and the
        copy happen at the call; the returned coroutine is the queue insert
        itself, so ``yield from`` resumes it with no delegating frame.

        Args:
            task: The task descriptor to add.
            rank: Destination process; defaults to the calling rank.
            affinity: Affinity of the task for the destination process;
                defaults to the value already in the descriptor.
        """
        shared = self._shared
        if shared.destroyed:
            raise TaskCollectionError("operation on a destroyed task collection")
        proc = self.proc
        myrank = proc.rank
        if not 0 <= task.callback < len(shared.callbacks[myrank]):
            raise TaskCollectionError(
                f"task callback handle {task.callback} is not registered"
            )
        dest = myrank if rank is None else rank
        engine = proc.engine
        if not 0 <= dest < engine.nprocs:
            raise TaskCollectionError(f"invalid destination rank {dest}")
        t = task.clone()
        t.created_by = myrank
        if affinity is not None:
            t.affinity = affinity
        if engine.observed:
            tracer = engine.tracer
            if tracer is not None:
                tracer.record(proc, "task-add", t.uid)
        if dest == myrank:
            return shared.queues[dest].co_push_local(proc, t)
        return self._co_add_remote(t, dest)

    def _co_add_remote(self, t: Task, dest: int):
        shared, proc = self._shared, self.proc
        yield from shared.queues[dest].co_add_remote(proc, t)
        td = shared.active[proc.rank]
        if td is not None:
            td.note_remote_add(proc, dest)

    def co_process(self):
        """Collectively process the collection to global termination
        (``tc_process``).  See ``repro.core.scheduler`` for the loop."""
        self._check_alive()
        from repro.core.scheduler import co_run_process

        return co_run_process(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def local_size(self) -> int:
        """Tasks currently queued on the calling rank (owner view)."""
        return self._shared.queues[self.rank].size()

    def _check_alive(self) -> None:
        if self._shared.destroyed:
            raise TaskCollectionError("operation on a destroyed task collection")

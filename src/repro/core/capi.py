"""C-style facade matching the paper's §3 function names.

This module exists so the quickstart example can read like Figure 3 of
the paper; it is a thin veneer over the object API in
``repro.core.collection``.

The collective and communicating calls (``tc_create``, ``tc_add``,
``tc_process``, ``tc_reset``, ``tc_destroy``) are generators, used with
``yield from`` inside a generator rank main; the purely local ones are
plain calls.

Example (compare with the paper's matrix-multiply listing)::

    tc = yield from tc_create(proc, sizeof_mm_task, CHUNK_SIZE, MAX_TASKS)
    hdl = tc_register(tc, mm_task_fcn)
    task = tc_task_create(sizeof_mm_task, hdl)
    ...
    yield from tc_add(tc, me, AFFINITY_HIGH, task)
    tc_task_reuse(task)
    yield from tc_process(tc)
    yield from tc_destroy(tc)
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.core.collection import TaskCollection
from repro.core.config import SciotoConfig
from repro.core.stats import ProcessStats
from repro.core.task import Task
from repro.sim.engine import Proc

__all__ = [
    "tc_create",
    "tc_destroy",
    "tc_add",
    "tc_process",
    "tc_reset",
    "tc_register",
    "tc_task_create",
    "tc_task_destroy",
    "tc_task_body",
    "tc_task_reuse",
]


def tc_create(
    proc: Proc,
    task_sz: int,
    chunk_sz: int,
    max_sz: int,
    config: SciotoConfig | None = None,
) -> Generator[Any, Any, TaskCollection]:
    """Collectively create a task collection (paper's ``tc_create``)."""
    return TaskCollection.co_create(
        proc, task_size=task_sz, chunk_size=chunk_sz, max_tasks=max_sz, config=config
    )


def tc_destroy(tc: TaskCollection) -> Generator[Any, Any, None]:
    """Collectively destroy a task collection."""
    return tc.co_destroy()


def tc_register(tc: TaskCollection, fcn: Callable[[TaskCollection, Task], None]) -> int:
    """Collectively register a task callback; returns a portable handle."""
    return tc.register(fcn)


def tc_add(
    tc: TaskCollection, proc_rank: int, affinity: int, task: Task
) -> Generator[Any, Any, None]:
    """Add a copy of ``task`` to rank ``proc_rank`` with the given affinity.

    On return the task buffer is available for reuse (copy-in semantics).
    """
    return tc.co_add(task, rank=proc_rank, affinity=affinity)


def tc_process(tc: TaskCollection) -> Generator[Any, Any, ProcessStats]:
    """Collectively process the collection until global termination."""
    return tc.co_process()


def tc_reset(tc: TaskCollection) -> Generator[Any, Any, None]:
    """Collectively empty the collection for reuse."""
    return tc.co_reset()


def tc_task_create(body_sz: int, task_handle: int) -> Task:
    """Create a local task buffer bound to a registered callback handle."""
    return Task(callback=task_handle, body=None, body_size=body_sz)


def tc_task_destroy(task: Task) -> None:
    """Free a local task buffer (a no-op under garbage collection)."""
    del task


def tc_task_body(task: Task) -> Any:
    """Access the user-defined body of a task descriptor."""
    return task.body


def tc_task_reuse(task: Task) -> Task:
    """Mark a task buffer for reuse after ``tc_add`` copied it out."""
    return task

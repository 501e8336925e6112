"""Failure injection: errors inside the runtime surface cleanly."""

from __future__ import annotations

import pytest

from repro.core import SciotoConfig, Task, TaskCollection
from repro.sim.engine import Engine
from repro.util.errors import SimLimitError, TaskCollectionError


def _run(nprocs, main, *args, seed=0, max_events=2_000_000):
    eng = Engine(nprocs, seed=seed, max_events=max_events)
    eng.spawn_all(main, *args)
    return eng.run()


def test_task_callback_exception_propagates():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)

        def bad(tc_, task):
            raise RuntimeError(f"task exploded on rank {tc_.rank}")

        h = tc.register(bad)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        yield from tc.co_process()

    with pytest.raises(RuntimeError, match="task exploded"):
        _run(2, main)


def test_queue_overflow_during_processing():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc, max_tasks=4)

        def bomb(tc_, task):
            # each task spawns two more: exceeds max_tasks quickly
            yield from tc_.co_add(Task(callback=h))
            yield from tc_.co_add(Task(callback=h))

        h = tc.register(bomb)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        yield from tc.co_process()

    with pytest.raises(TaskCollectionError, match="overflow"):
        _run(1, main)


def test_runaway_workload_hits_event_limit():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc, max_tasks=1000)

        def forever(tc_, task):
            tc_.proc.compute(1e-7)
            yield from tc_.co_add(Task(callback=h))  # never drains

        h = tc.register(forever)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        yield from tc.co_process()

    with pytest.raises(SimLimitError):
        _run(2, main, max_events=30_000)


def test_mismatched_collective_registration_detected():
    """Ranks registering different numbers of callbacks produce a clear
    error when the missing handle is dispatched."""

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, config=SciotoConfig(load_balancing=False))
        h = tc.register(lambda tc_, t: None)
        if proc.rank == 0:
            tc.register(lambda tc_, t: None)  # extra handle only on rank 0
            yield from tc.co_add(Task(callback=1), rank=1)  # rank 1 cannot dispatch it
        yield from tc.co_process()

    with pytest.raises(TaskCollectionError, match="not registered"):
        _run(2, main)


def test_exception_mid_simulation_tears_down_cleanly():
    """After an exception, the engine joins all threads; a fresh engine
    in the same interpreter works fine (no leaked state)."""

    def bad_main(proc):
        yield from proc.co_sleep(1e-6)
        if proc.rank == 3:
            raise ValueError("kaboom")
        yield from proc.co_sleep(1.0)

    with pytest.raises(ValueError, match="kaboom"):
        _run(5, bad_main)

    def good_main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h = tc.register(lambda tc_, t: None)
        if proc.rank == 0:
            yield from tc.co_add(Task(callback=h))
        return (yield from tc.co_process()).tasks_executed

    result = _run(3, good_main)
    assert sum(result.returns) == 1


def test_add_after_destroy_rejected():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h = tc.register(lambda tc_, t: None)
        yield from tc.co_destroy()
        yield from tc.co_add(Task(callback=h))

    with pytest.raises(TaskCollectionError, match="destroyed"):
        _run(2, main)


def test_steal_disabled_work_stays_put_even_when_idle():
    """With load balancing off, idle ranks must not acquire work."""
    ran_on = set()

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, config=SciotoConfig(load_balancing=False))

        def track(tc_, t):
            tc_.proc.compute(10e-6)
            ran_on.add(tc_.rank)

        h = tc.register(track)
        if proc.rank == 0:
            for _ in range(10):
                yield from tc.co_add(Task(callback=h))
        yield from tc.co_process()

    _run(4, main)
    assert ran_on == {0}

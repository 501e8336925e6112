"""Tests for the TaskCollection API: lifecycle, registration, CLOs, adds."""

from __future__ import annotations

import pytest

from repro.core import SciotoConfig, Task, TaskCollection
from repro.sim.engine import Engine
from repro.util.errors import TaskCollectionError


def _run(nprocs, main, *args, seed=0, max_events=2_000_000):
    eng = Engine(nprocs, seed=seed, max_events=max_events)
    eng.spawn_all(main, *args)
    return eng, eng.run()


def test_create_and_destroy():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc, task_size=128)
        yield from tc.co_destroy()
        with pytest.raises(TaskCollectionError):
            yield from tc.co_add(Task(callback=0))

    _run(2, main)


def test_create_mismatch_rejected():
    def main(proc):
        yield from TaskCollection.co_create(proc, task_size=64 if proc.rank == 0 else 128)

    with pytest.raises(TaskCollectionError, match="mismatch"):
        _run(2, main)


def test_invalid_create_params():
    def main(proc):
        yield from TaskCollection.co_create(proc, task_size=-1)

    with pytest.raises(ValueError):
        _run(1, main)


def test_register_returns_sequential_handles():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h0 = tc.register(lambda tc, t: None)
        h1 = tc.register(lambda tc, t: None)
        return (h0, h1)

    _, res = _run(3, main)
    assert res.returns == [(0, 1)] * 3


def test_register_non_callable_rejected():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        tc.register("not a function")  # type: ignore[arg-type]

    with pytest.raises(TypeError):
        _run(1, main)


def test_add_unregistered_callback_rejected():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        yield from tc.co_add(Task(callback=3))

    with pytest.raises(TaskCollectionError, match="not registered"):
        _run(1, main)


def test_add_invalid_rank_rejected():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        tc.register(lambda tc, t: None)
        yield from tc.co_add(Task(callback=0), rank=99)

    with pytest.raises(TaskCollectionError, match="invalid destination"):
        _run(2, main)


def test_add_copies_body():
    """tc_add has copy-in/out semantics: mutating the buffer afterwards
    must not affect the queued task (§3.1)."""
    seen = []

    def main(proc):
        tc = yield from TaskCollection.co_create(proc)

        def cb(tc, task):
            seen.append(tuple(task.body))

        h = tc.register(cb)
        if proc.rank == 0:
            buf = Task(callback=h, body=[1, 2])
            yield from tc.co_add(buf)
            buf.body.append(99)  # reuse/mutate the buffer
            yield from tc.co_add(buf)
        yield from tc.co_process()

    _run(2, main)
    assert sorted(seen) == [(1, 2), (1, 2, 99)]


def test_mutating_the_buffer_after_add_never_reaches_the_queue():
    """Header fields and mutable parts nested in an immutable shell are
    copied in too; the caller's ``affinity=`` override stays out of its
    own buffer."""
    seen = []

    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h = tc.register(lambda tc_, t: seen.append((t.body, t.affinity, t.body_size)))
        buf = Task(callback=h, body=("k", [1]), affinity=3, body_size=8)
        yield from tc.co_add(buf, affinity=5)
        assert buf.affinity == 3
        buf.body[1].append(2)
        buf.affinity, buf.body_size = 0, 64
        yield from tc.co_process()

    _run(1, main)
    assert seen == [(("k", [1]), 5, 8)]


@pytest.mark.parametrize("fault", ["destroyed", "bad handle", "bad rank"])
def test_add_rejects_at_the_call_in_both_forms(fault):
    """``co_add`` validates when called, not when first resumed: both the
    bare call and the ``yield from`` form raise before there is anything
    to resume."""

    def bad_add(handle, nprocs):
        task = Task(callback=handle + 1 if fault == "bad handle" else handle)
        return task, {"rank": nprocs} if fault == "bad rank" else {}

    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        task, kwargs = bad_add(tc.register(lambda tc_, t: None), proc.nprocs)
        if fault == "destroyed":
            yield from tc.co_destroy()
        with pytest.raises(TaskCollectionError):
            tc.co_add(task, **kwargs)  # repro: lint-disable=RPR007 (never resumed)
        with pytest.raises(TaskCollectionError):
            yield from tc.co_add(task, **kwargs)

    _run(1, main)


def test_remote_add_reaches_other_rank():
    ran_on = []

    def main(proc):
        tc = yield from TaskCollection.co_create(proc, config=SciotoConfig(load_balancing=False))
        h = tc.register(lambda tc, t: ran_on.append(tc.rank))
        if proc.rank == 0:
            for dest in range(proc.nprocs):
                yield from tc.co_add(Task(callback=h), rank=dest)
        yield from tc.co_process()

    _run(4, main)
    assert sorted(ran_on) == [0, 1, 2, 3]


def test_clo_resolves_to_local_instance():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        handle = tc.register_clo({"rank": proc.rank})
        return tc.clo(handle)["rank"]

    _, res = _run(4, main)
    assert res.returns == [0, 1, 2, 3]


def test_clo_bad_handle():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        tc.clo(0)

    with pytest.raises(TaskCollectionError, match="common local object"):
        _run(1, main)


def test_reset_empties_queues_for_reuse():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h = tc.register(lambda tc, t: None)
        yield from tc.co_add(Task(callback=h))
        yield from tc.co_reset()
        assert tc.local_size() == 0
        # collection is reusable after reset
        yield from tc.co_add(Task(callback=h))
        stats = yield from tc.co_process()
        return stats.tasks_executed

    _, res = _run(2, main)
    assert sum(res.returns) == 2


def test_two_collections_coexist():
    """§3.1: multiple collections may be used for phased parallelism."""
    phase_log = []

    def main(proc):
        tc1 = yield from TaskCollection.co_create(proc)
        tc2 = yield from TaskCollection.co_create(proc)

        def phase1(tc, task):
            phase_log.append(("p1", task.body))
            # spawn into the *other* collection while this one is processed
            yield from tc2.co_add(Task(callback=h2, body=task.body * 10))

        def phase2(tc, task):
            phase_log.append(("p2", task.body))

        h1 = tc1.register(phase1)
        h2 = tc2.register(phase2)
        if proc.rank == 0:
            yield from tc1.co_add(Task(callback=h1, body=1))
            yield from tc1.co_add(Task(callback=h1, body=2))
        yield from tc1.co_process()
        yield from tc2.co_process()

    _run(2, main)
    p1 = sorted(b for p, b in phase_log if p == "p1")
    p2 = sorted(b for p, b in phase_log if p == "p2")
    assert p1 == [1, 2]
    assert p2 == [10, 20]


def test_local_and_total_size():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)
        h = tc.register(lambda tc, t: None)
        for _ in range(proc.rank + 1):
            yield from tc.co_add(Task(callback=h))
        yield from proc.co_sync()
        return (tc.local_size(), None)

    eng, res = _run(3, main)
    assert [r[0] for r in res.returns] == [1, 2, 3]


def test_process_stats_fields():
    def main(proc):
        tc = yield from TaskCollection.co_create(proc)

        def work(tc, task):
            tc.proc.compute(5e-6)

        h = tc.register(work)
        if proc.rank == 0:
            for _ in range(20):
                yield from tc.co_add(Task(callback=h))
        stats = yield from tc.co_process()
        return stats

    _, res = _run(4, main)
    total = sum(s.tasks_executed for s in res.returns)
    assert total == 20
    for s in res.returns:
        assert s.time_total > 0
        assert 0 <= s.time_working <= s.time_total
        assert s.time_overhead >= 0
        assert 0 <= s.efficiency <= 1
    # work was seeded on rank 0 only; someone must have stolen
    assert sum(s.steals_successful for s in res.returns) > 0
    assert sum(s.tasks_stolen for s in res.returns) > 0

"""Tests for the C-style facade mirroring the paper's §3 API."""

from __future__ import annotations

from repro.core import AFFINITY_HIGH
from repro.core.capi import (
    tc_add,
    tc_create,
    tc_destroy,
    tc_process,
    tc_register,
    tc_reset,
    tc_task_body,
    tc_task_create,
    tc_task_destroy,
    tc_task_reuse,
)
from repro.sim.engine import run_spmd


def test_full_paper_workflow():
    """Replicates the structure of the paper's Figure 3 listing."""
    executed = []

    def task_fcn(tc, task):
        executed.append((tc_task_body(task), tc.rank))

    def main(proc):
        tc = yield from tc_create(proc, task_sz=64, chunk_sz=2, max_sz=100)
        hdl = tc_register(tc, task_fcn)
        task = tc_task_create(body_sz=32, task_handle=hdl)
        me = proc.rank
        for i in range(3):
            task.body = (me, i)
            yield from tc_add(tc, me, AFFINITY_HIGH, task)
            task = tc_task_reuse(task)
        stats = yield from tc_process(tc)
        yield from tc_destroy(tc)
        tc_task_destroy(task)
        return stats.tasks_executed

    result = run_spmd(3, main, max_events=2_000_000)
    assert sum(result.returns) == 9
    bodies = sorted(b for b, _ in executed)
    assert bodies == sorted((r, i) for r in range(3) for i in range(3))


def test_copy_in_semantics_via_reuse():
    seen = []

    def cb(tc, task):
        seen.append(tc_task_body(task))

    def main(proc):
        tc = yield from tc_create(proc, 64, 1, 50)
        hdl = tc_register(tc, cb)
        task = tc_task_create(16, hdl)
        task.body = "first"
        yield from tc_add(tc, proc.rank, 0, task)
        task = tc_task_reuse(task)
        task.body = "second"  # buffer reuse must not affect queued copy
        yield from tc_add(tc, proc.rank, 0, task)
        yield from tc_process(tc)

    run_spmd(1, main, max_events=1_000_000)
    assert sorted(seen) == ["first", "second"]


def test_reset_between_phases():
    count = []

    def main(proc):
        tc = yield from tc_create(proc, 64, 1, 50)
        hdl = tc_register(tc, lambda tc_, t: count.append(1))
        yield from tc_add(tc, proc.rank, 0, tc_task_create(8, hdl))
        yield from tc_reset(tc)  # dropped before processing
        yield from tc_add(tc, proc.rank, 0, tc_task_create(8, hdl))
        yield from tc_process(tc)

    run_spmd(2, main, max_events=2_000_000)
    assert len(count) == 2

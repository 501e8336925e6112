"""Unit tests for the model-checker invariants over synthetic event streams.

Each case records its events through a :class:`Tracer` that the checker
under test subscribes to, as ``repro.check.runner.run_once`` does.
"""

from __future__ import annotations

from repro.check.invariants import (
    CheckContext,
    ExactlyOnce,
    GraphDependencyOrder,
    MutexBalance,
    NoEarlyTermination,
    QueueConsistency,
)
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine


def ev(kind, detail=None, rank=0):
    return rank, kind, detail


def check(checker_cls, evs, ctx):
    """Feed ``evs`` to a fresh ``checker_cls(ctx)``; return its violations."""
    engine = Engine(3)
    checker = checker_cls(ctx)
    tracer = Tracer.subscribe(engine, checker.kinds, checker.on_event)
    for rank, kind, detail in evs:
        tracer.record(engine.procs[rank], kind, detail)
    return checker.check()


def names(violations):
    return sorted({v.invariant for v in violations})


class TestExactlyOnce:
    def test_clean(self):
        evs = [ev("task-add", 1), ev("task-exec", 1), ev("task-add", 2), ev("task-exec", 2)]
        assert check(ExactlyOnce, evs, CheckContext()) == []

    def test_double_execution(self):
        evs = [ev("task-add", 1), ev("task-exec", 1), ev("task-exec", 1)]
        out = check(ExactlyOnce, evs, CheckContext())
        assert any("executed 2 times" in v.message for v in out)

    def test_never_executed(self):
        evs = [ev("task-add", 1), ev("task-add", 2), ev("task-exec", 1)]
        out = check(ExactlyOnce, evs, CheckContext(expect_complete=True))
        assert any("never executed" in v.message for v in out)
        # open-ended workloads may legally leave tasks queued
        assert check(ExactlyOnce, evs, CheckContext(expect_complete=False)) == []

    def test_phantom_execution(self):
        out = check(ExactlyOnce, [ev("task-exec", 9)], CheckContext(expect_complete=False))
        assert any("never added" in v.message for v in out)

    def test_duplicate_add(self):
        evs = [ev("task-add", 1), ev("task-add", 1), ev("task-exec", 1)]
        out = check(ExactlyOnce, evs, CheckContext())
        assert any("added twice" in v.message for v in out)


class TestNoEarlyTermination:
    def test_clean(self):
        evs = [ev("task-exec", 1), ev("td-done", 3)]
        assert check(NoEarlyTermination, evs, CheckContext()) == []

    def test_exec_after_done(self):
        evs = [ev("task-exec", 1), ev("td-done", 3), ev("task-exec", 2, rank=2)]
        out = check(NoEarlyTermination, evs, CheckContext())
        assert names(out) == ["no-early-termination"]

    def test_missing_declaration(self):
        out = check(NoEarlyTermination, [ev("task-exec", 1)], CheckContext(expect_complete=True))
        assert any("without a termination declaration" in v.message for v in out)


class TestQueueConsistency:
    def test_clean_lifecycle(self):
        evs = [
            ev("q-push", (0, 1)),
            ev("q-push", (0, 2)),
            ev("q-steal", (0, (2,)), rank=1),
            ev("q-absorb", (1, (2,)), rank=1),
            ev("q-pop", (0, 1)),
            ev("q-pop", (1, 2), rank=1),
        ]
        assert check(QueueConsistency, evs, CheckContext(capacity=4)) == []

    def test_pop_of_stolen_descriptor(self):
        """The signature of a split-pointer race: the owner pops a task a
        thief has already removed."""
        evs = [
            ev("q-push", (0, 1)),
            ev("q-steal", (0, (1,)), rank=2),
            ev("q-pop", (0, 1)),
        ]
        out = check(QueueConsistency, evs, CheckContext())
        assert any("lost or duplicated" in v.message for v in out)

    def test_absorb_without_steal(self):
        out = check(QueueConsistency, [ev("q-absorb", (1, (5,)), rank=1)], CheckContext())
        assert len(out) == 1

    def test_capacity_bound(self):
        evs = [ev("q-push", (0, uid)) for uid in range(5)]
        out = check(QueueConsistency, evs, CheckContext(capacity=3))
        assert any("capacity" in v.message for v in out)

    def test_remote_add_tracked(self):
        evs = [ev("q-add-remote", (2, 7), rank=0), ev("q-pop", (2, 7), rank=2)]
        assert check(QueueConsistency, evs, CheckContext()) == []


class TestMutexBalance:
    def test_clean(self):
        evs = [
            ev("mutex-acq", "tq[0]", rank=1),
            ev("mutex-rel", "tq[0]", rank=1),
            ev("mutex-acq", "tq[0]", rank=2),
            ev("mutex-rel", "tq[0]", rank=2),
        ]
        assert check(MutexBalance, evs, CheckContext()) == []

    def test_double_grant(self):
        evs = [ev("mutex-acq", "m", rank=0), ev("mutex-acq", "m", rank=1)]
        out = check(MutexBalance, evs, CheckContext())
        assert any("while held" in v.message for v in out)

    def test_release_by_non_holder(self):
        evs = [ev("mutex-acq", "m", rank=0), ev("mutex-rel", "m", rank=1)]
        out = check(MutexBalance, evs, CheckContext())
        assert any("does not hold it" in v.message for v in out)

    def test_held_at_end(self):
        out = check(MutexBalance, [ev("mutex-acq", "m", rank=0)], CheckContext())
        assert any("still held" in v.message for v in out)


class TestGraphDependencyOrder:
    DAG = {"a": (), "b": ("a",), "c": ("a", "b")}

    def test_clean(self):
        evs = [ev("graph-node", n) for n in ("a", "b", "c")]
        assert check(GraphDependencyOrder, evs, CheckContext(dag=self.DAG)) == []

    def test_dependency_violation(self):
        evs = [ev("graph-node", "b"), ev("graph-node", "a"), ev("graph-node", "c")]
        out = check(GraphDependencyOrder, evs, CheckContext(dag=self.DAG))
        assert any("before its dependency" in v.message for v in out)

    def test_missing_node(self):
        evs = [ev("graph-node", "a")]
        out = check(GraphDependencyOrder, evs, CheckContext(dag=self.DAG, expect_complete=True))
        assert any("never executed" in v.message for v in out)

    def test_double_dispatch(self):
        evs = [ev("graph-node", "a"), ev("graph-node", "a")]
        out = check(GraphDependencyOrder, evs, CheckContext(dag=self.DAG, expect_complete=False))
        assert any("dispatched twice" in v.message for v in out)

    def test_no_dag_no_checks(self):
        assert check(GraphDependencyOrder, [ev("graph-node", "x")], CheckContext(dag=None)) == []

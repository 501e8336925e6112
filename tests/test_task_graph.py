"""Tests for the inter-task dependency extension (paper §8 future work)."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task, TaskCollection
from repro.core.graph import TaskGraph
from repro.sim.engine import Engine
from repro.util.errors import TaskCollectionError


def _run(nprocs, main, *args, seed=0, max_events=3_000_000):
    eng = Engine(nprocs, seed=seed, max_events=max_events)
    eng.spawn_all(main, *args)
    return eng.run()


def _build_diamond(tg, log, lock):
    def step(tc, task):
        tc.proc.compute(1e-6)
        with lock:
            log.append(task.body)

    tg.add("a", step, body="a")
    tg.add("b", step, body="b", deps=["a"])
    tg.add("c", step, body="c", deps=["a"])
    tg.add("d", step, body="d", deps=["b", "c"])


class TestTaskGraph:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_diamond_respects_order(self, nprocs):
        log: list[str] = []
        lock = threading.Lock()

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)
            _build_diamond(tg, log, lock)
            yield from tg.co_process()

        _run(nprocs, main)
        assert sorted(log) == ["a", "b", "c", "d"]
        assert log[0] == "a"
        assert log[-1] == "d"

    def test_chain_executes_in_order(self):
        log: list[int] = []

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)

            def step(tc_, task):
                log.append(task.body)

            for i in range(10):
                deps = [f"t{i-1}"] if i else []
                tg.add(f"t{i}", step, body=i, deps=deps)
            yield from tg.co_process()

        _run(3, main)
        assert log == list(range(10))

    def test_independent_tasks_spread_over_ranks(self):
        ran_on: set[int] = set()

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)

            def step(tc_, task):
                tc_.proc.compute(5e-6)
                ran_on.add(tc_.rank)

            for i in range(40):
                tg.add(f"t{i}", step)
            yield from tg.co_process()

        _run(4, main)
        assert len(ran_on) >= 3, f"hash placement engaged only {ran_on}"

    def test_explicit_rank_placement(self):
        homes: list[tuple[str, int]] = []

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)

            def step(tc_, task):
                homes.append((task.body, tc_.rank))

            # no stealing pressure: chains serialize, so tasks run at home
            tg.add("x", step, body="x", rank=1)
            tg.add("y", step, body="y", deps=["x"], rank=2)
            yield from tg.co_process()

        _run(3, main)
        assert dict(homes) == {"x": 1, "y": 2}

    def test_cycle_detected(self):
        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)
            fn = lambda tc_, t: None
            tg.add("a", fn, deps=["b"])
            tg.add("b", fn, deps=["a"])
            yield from tg.co_process()

        with pytest.raises(TaskCollectionError, match="cycle"):
            _run(2, main)

    def test_unknown_dependency_rejected(self):
        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)
            tg.add("a", lambda tc_, t: None, deps=["ghost"])
            yield from tg.co_process()

        with pytest.raises(TaskCollectionError, match="unknown task"):
            _run(1, main)

    def test_duplicate_name_rejected(self):
        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)
            tg.add("a", lambda tc_, t: None)
            tg.add("a", lambda tc_, t: None)

        with pytest.raises(TaskCollectionError, match="duplicate"):
            _run(1, main)

    def test_add_after_process_rejected(self):
        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)
            tg.add("a", lambda tc_, t: None)
            yield from tg.co_process()
            tg.add("late", lambda tc_, t: None)

        with pytest.raises(TaskCollectionError, match="after process"):
            _run(1, main)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        nprocs=st.integers(1, 6),
        n=st.integers(2, 24),
        edge_prob=st.floats(0.05, 0.5),
    )
    def test_random_dags_respect_all_edges(self, seed, nprocs, n, edge_prob):
        """Property: in any random DAG, every task runs exactly once and
        strictly after all of its dependencies."""
        import numpy as np

        rng = np.random.default_rng(seed)
        deps: dict[int, list[int]] = {
            i: [j for j in range(i) if rng.random() < edge_prob] for i in range(n)
        }
        order: list[int] = []
        lock = threading.Lock()

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)

            def step(tc_, task):
                tc_.proc.compute(float(task.body % 3 + 1) * 1e-6)
                with lock:
                    order.append(task.body)

            for i in range(n):
                tg.add(f"t{i}", step, body=i, deps=[f"t{j}" for j in deps[i]])
            yield from tg.co_process()

        _run(nprocs, main, seed=seed)
        assert sorted(order) == list(range(n))
        pos = {t: k for k, t in enumerate(order)}
        for i, ds in deps.items():
            for j in ds:
                assert pos[j] < pos[i], f"t{j} must precede t{i}"


class TestStealAfterVoteDirtyMark:
    """Regression: §5.3 marks delivered as a message after the steal lose
    a race against the victim's vote.

    Found by ``test_random_dags_respect_all_edges`` (seed=363, nprocs=3,
    n=13, edge_prob=0.4375): rank 1 votes white, steals ``t3`` from rank
    2, and rank 2 votes white before the thief's fenced dirty-mark put
    lands — so wave 1 completes all-white while ``t3`` is executing and
    its dependent ``t5`` is enqueued into a terminated collection and
    silently dropped.  The fix applies the mark inside the steal's
    locked transfer (``TerminationDetector.steal_mark``); the old
    message-based protocol is preserved as the ``late_dirty_mark``
    mutation, which must still reproduce the drop on this workload.
    """

    SEED, NPROCS, N, EDGE_PROB = 363, 3, 13, 0.4375

    def _run_dag(self):
        import numpy as np

        rng = np.random.default_rng(self.SEED)
        deps = {
            i: [j for j in range(i) if rng.random() < self.EDGE_PROB]
            for i in range(self.N)
        }
        order: list[int] = []
        lock = threading.Lock()

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)
            tg = yield from TaskGraph.co_create(tc)

            def step(tc_, task):
                tc_.proc.compute(float(task.body % 3 + 1) * 1e-6)
                with lock:
                    order.append(task.body)

            for i in range(self.N):
                tg.add(f"t{i}", step, body=i, deps=[f"t{j}" for j in deps[i]])
            yield from tg.co_process()

        _run(self.NPROCS, main, seed=self.SEED)
        return order

    def test_in_transfer_mark_runs_every_task(self):
        assert sorted(self._run_dag()) == list(range(self.N))

    def test_late_mark_mutation_reproduces_the_drop(self):
        from repro.check.mutations import apply_mutation

        with apply_mutation("late_dirty_mark"):
            order = self._run_dag()
        assert sorted(order) != list(range(self.N)), (
            "the message-based dirty mark was expected to lose the race "
            "and drop tasks on this workload; if it no longer does, the "
            "regression fixture needs a new seed"
        )

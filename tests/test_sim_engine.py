"""Unit tests for the discrete-event engine: ordering, determinism, failures,
teardown and the strategy hooks."""

from __future__ import annotations

import ast
import inspect
import threading
from pathlib import Path

import pytest

import repro
from repro.check.runner import run_once
from repro.check.scenarios import make_scenario
from repro.check.strategies import RandomWalk, ReplayStrategy
from repro.sim.engine import Engine, run_spmd
from repro.sim.machines import heterogeneous_cluster, uniform_cluster
from repro.util.errors import (
    SimDeadlockError,
    SimError,
    SimLimitError,
    SimShutdown,
)


def test_single_proc_runs_and_returns():
    result = run_spmd(1, lambda proc: proc.rank * 10 + 7)
    assert result.returns == [7]
    assert result.elapsed == 0.0


def test_returns_in_rank_order():
    result = run_spmd(5, lambda proc: proc.rank)
    assert result.returns == [0, 1, 2, 3, 4]


def test_advance_accumulates_clock():
    def main(proc):
        proc.advance(1e-6)
        proc.advance(2e-6)
        return proc.now

    result = run_spmd(2, main)
    assert result.returns == pytest.approx([3e-6, 3e-6])
    assert result.elapsed == pytest.approx(3e-6)


def test_advance_negative_rejected():
    def main(proc):
        proc.advance(-1.0)

    with pytest.raises(ValueError):
        run_spmd(1, main)


def test_compute_scales_with_heterogeneous_factors():
    def main(proc):
        proc.compute(10e-6)
        return proc.now

    machine = heterogeneous_cluster(4)
    result = run_spmd(4, main, machine=machine)
    # even ranks are Opteron (factor 1.0), odd ranks Xeon (~1.505x slower)
    assert result.returns[0] == pytest.approx(10e-6)
    assert result.returns[1] == pytest.approx(10e-6 * 0.4753 / 0.3158)
    assert result.returns[2] == result.returns[0]


def test_shared_state_ordered_by_virtual_time():
    order = []

    def main(proc):
        proc.advance((proc.nprocs - proc.rank) * 1e-6)  # rank 3 earliest
        yield from proc.co_sync()
        order.append(proc.rank)

    run_spmd(4, main)
    assert order == [3, 2, 1, 0]


def test_equal_times_tiebreak_deterministic():
    orders = []
    for _ in range(3):
        order = []

        def main(proc):
            proc.advance(5e-6)
            yield from proc.co_sync()
            order.append(proc.rank)

        run_spmd(6, main)
        orders.append(tuple(order))
    assert len(set(orders)) == 1, "same program must give the same interleaving"


def test_rng_streams_differ_per_rank_and_reproduce():
    def main(proc):
        return tuple(proc.rng.integers(0, 1000, size=3).tolist())

    a = run_spmd(3, main, seed=42).returns
    b = run_spmd(3, main, seed=42).returns
    c = run_spmd(3, main, seed=43).returns
    assert a == b
    assert len({*a}) == 3, "ranks must have independent streams"
    assert a != c


def test_exception_in_process_propagates():
    def main(proc):
        if proc.rank == 2:
            raise ValueError("boom on rank 2")
        yield from proc.co_sleep(1e-3)

    with pytest.raises(ValueError, match="boom on rank 2"):
        run_spmd(4, main)


def test_deadlock_detected_with_blocked_ranks_reported():
    def main(proc):
        if proc.rank == 1:
            yield from proc.co_park("waiting forever")

    with pytest.raises(SimDeadlockError, match="rank 1.*waiting forever"):
        run_spmd(2, main)


def test_deadlock_names_every_parked_process():
    """The structured ``parked`` attribute lists every stuck rank with its
    blocking site, in rank order — what the model checker keys replay on."""

    def main(proc):
        if proc.rank == 0:
            proc.compute(1e-6)
            return
        yield from proc.co_park(f"stuck-{proc.rank}")

    with pytest.raises(SimDeadlockError) as info:
        run_spmd(3, main)
    assert info.value.parked == [(1, "stuck-1"), (2, "stuck-2")]
    assert "rank 1" in str(info.value) and "rank 2" in str(info.value)


def test_max_events_limit():
    def main(proc):
        while True:
            yield from proc.co_sleep(1e-9)

    with pytest.raises(SimLimitError, match="max_events"):
        run_spmd(1, main, max_events=100)


def test_max_time_limit():
    def main(proc):
        while True:
            yield from proc.co_sleep(1.0)

    with pytest.raises(SimLimitError, match="max_time"):
        run_spmd(1, main, max_time=5.0)


def test_wake_carries_payload():
    def main(proc):
        if proc.rank == 0:
            return (yield from proc.co_park("wait for gift"))
        proc.advance(3e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, payload="gift")
        return None

    result = run_spmd(2, main)
    assert result.returns[0] == "gift"


def test_woken_proc_clock_advanced_to_wake_time():
    def main(proc):
        if proc.rank == 0:
            yield from proc.co_park("wait")
            return proc.now
        proc.advance(7e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], proc.now)
        return None

    result = run_spmd(2, main)
    assert result.returns[0] == pytest.approx(7e-6)


def test_engine_run_only_once():
    eng = Engine(1)
    eng.spawn_all(lambda proc: None)
    eng.run()
    with pytest.raises(RuntimeError):
        eng.run()


def test_spawn_per_rank_mains():
    eng = Engine(2)
    eng.spawn(0, lambda proc: "a")
    eng.spawn(1, lambda proc: "b")
    assert eng.run().returns == ["a", "b"]


def test_missing_main_rejected():
    eng = Engine(2)
    eng.spawn(0, lambda proc: None)
    with pytest.raises(RuntimeError, match="rank 1"):
        eng.run()


def test_nprocs_validation():
    with pytest.raises(ValueError):
        Engine(0)


def test_finish_times_per_rank():
    def main(proc):
        yield from proc.co_sleep((proc.rank + 1) * 1e-6)

    result = run_spmd(3, main)
    assert result.finish_times == pytest.approx([1e-6, 2e-6, 3e-6])
    assert result.elapsed == pytest.approx(3e-6)


def test_machine_default_is_uniform_cluster():
    eng = Engine(4)
    assert eng.machine.name == uniform_cluster(4).name


def test_plain_function_main_returns_inline():
    """A plain main that never suspends still runs (the run_spmd doctest)."""

    def hello(proc):
        proc.compute(1e-6)
        return proc.rank

    assert run_spmd(4, hello).returns == [0, 1, 2, 3]


def test_lambda_wrapped_generator_main_runs_on_the_trampoline():
    """A plain callable that *returns* a generator is driven like a
    generator main: it suspends and interleaves, and gets no thread."""
    order = []

    def body(proc, steps):
        for i in range(steps):
            proc.advance((proc.rank + 1) * 1e-6)
            yield from proc.co_sync()
            order.append((proc.rank, i))
        return threading.active_count()

    threads_before = threading.active_count()
    eng = Engine(2)
    eng.spawn_all(lambda proc: body(proc, 2))
    result = eng.run()
    assert result.returns == [threads_before, threads_before]
    assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert result.elapsed == pytest.approx(4e-6)


def test_bare_yield_is_named_not_reported_as_deadlock():
    """A rank that suspends with a bare ``yield`` (no co_* primitive) is
    never rescheduled; the engine names it instead of a deadlock."""

    def main(proc):
        yield from proc.co_sleep(1e-6)
        if proc.rank == 1:
            yield
        yield from proc.co_sleep(1e-6)
        return proc.rank

    with pytest.raises(SimError, match=r"rank 1 suspended without a co_\* primitive") as info:
        run_spmd(3, main)
    assert not isinstance(info.value, SimDeadlockError)
    assert "bare `yield`" in str(info.value)


# --------------------------------------------------------------------- #
# Teardown: unwinding unfinished generators
# --------------------------------------------------------------------- #
def test_teardown_survives_unstarted_generators():
    """Ranks whose coroutines were never resumed are closed, not hung."""

    def main(proc):
        if proc.rank == 0:
            raise RuntimeError("immediate failure")
        yield from proc.co_sleep(1e-6)

    eng = Engine(4)
    eng.spawn_all(main)
    with pytest.raises(RuntimeError, match="immediate failure"):
        eng.run()  # must raise promptly, not hang in teardown
    for proc in eng.procs[1:]:
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_teardown_kills_half_finished_generators():
    """Procs suspended mid-generator when another rank fails are unwound
    via SimShutdown thrown at their suspension point."""

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        yield from proc.co_park("forever")

    eng = Engine(3)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    for proc in eng.procs[1:]:
        assert proc.finished
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_teardown_runs_user_cleanup():
    """A generator may catch SimShutdown for cleanup; teardown keeps
    control until it actually finishes."""
    cleaned = []

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        try:
            yield from proc.co_park("parked-for-shutdown")
        except SimShutdown:
            cleaned.append(proc.rank)
            raise

    eng = Engine(2)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert cleaned == [1]
    assert eng.procs[1].finished


def test_teardown_rethrows_into_a_main_that_yields_again():
    """A main that swallows SimShutdown and suspends again gets the
    shutdown thrown in again until it finishes."""
    caught = []

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        try:
            yield from proc.co_park("first")
        except SimShutdown:
            caught.append(proc.rank)
        yield from proc.co_park("second")

    eng = Engine(2)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert caught == [1]
    assert eng.procs[1].finished
    assert inspect.getgeneratorstate(eng.procs[1]._coro) == inspect.GEN_CLOSED


def test_teardown_after_proc_failure():
    """A raising proc unwinds the other (parked and running) ranks."""

    def main(proc):
        if proc.rank == 0:
            proc.compute(1e-6)
            yield from proc.co_sync()
            raise ValueError("boom")
        if proc.rank == 1:
            yield from proc.co_park(where="forever")
        while True:
            proc.compute(1e-6)
            yield from proc.co_sync()

    eng = Engine(3)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert all(p.finished for p in eng.procs)


def test_teardown_is_idempotent_after_success():
    eng = Engine(2)
    eng.spawn_all(lambda proc: proc.rank)
    result = eng.run()
    assert result.returns == [0, 1]
    eng._teardown()  # second teardown must be a no-op


# --------------------------------------------------------------------- #
# Strategy hooks: exploration and injected delays
# --------------------------------------------------------------------- #
class _CountingExplorer:
    """Minimal exploring strategy: picks the engine-default candidate."""

    explores = True

    def __init__(self):
        self.chooses = 0

    def begin(self, engine):
        pass

    def choose(self, candidates):
        self.chooses += 1
        return 0

    def delay(self, proc, site):
        return 0.0

    def on_park(self, proc, where):
        pass


def test_explores_disables_sync_elision():
    """An exploring strategy must see every sync as a decision point:
    the engine turns elision off so no handoff is skipped."""

    def main(proc):
        for _ in range(5):
            proc.advance(1e-6 * (proc.rank + 1))
            yield from proc.co_sync()

    plain = Engine(2)
    plain.spawn_all(main)
    plain.run()
    assert plain._elide is True  # default path keeps eliding

    strat = _CountingExplorer()
    eng = Engine(2, strategy=strat)
    eng.spawn_all(main)
    eng.run()
    assert eng._explores is True
    assert eng._elide is False
    assert strat.chooses > 0
    # Elided events are still counted, so a default-order explorer
    # reproduces the plain run's event count exactly.
    assert eng.events == plain.events


def test_replay_reproduces_recorded_trace():
    walk = RandomWalk(seed=23)
    base = run_once(make_scenario("steals"), walk, engine_seed=0)
    replay = ReplayStrategy(list(walk.decisions))
    replayed = run_once(make_scenario("steals"), replay, engine_seed=0)
    assert replayed.events == base.events


class _BadDelay:
    """Strategy stub injecting an invalid delay at one site."""

    explores = False

    def __init__(self, site, value):
        self.site = site
        self.value = value

    def begin(self, engine):
        self.engine = engine

    def choose(self, candidates):
        return 0

    def delay(self, proc, site):
        return self.value if site == self.site else 0.0

    def on_park(self, proc, where):
        pass


@pytest.mark.parametrize("value", [float("nan"), -10.0])
def test_wake_rejects_invalid_injected_delay(value):
    def main(proc):
        if proc.rank == 0:
            return (yield from proc.co_park(where="wait"))
        proc.advance(1e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, "hi")

    eng = Engine(2, strategy=_BadDelay("wake", value))
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'wake'"):
        eng.run()


@pytest.mark.parametrize("value", [float("nan"), -10.0])
def test_sync_rejects_invalid_injected_delay(value):
    def main(proc):
        yield from proc.co_sync()

    eng = Engine(2, strategy=_BadDelay("sync", value))
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'sync'"):
        eng.run()


def test_wake_valid_delay_still_applies():
    class Delay(_BadDelay):
        def delay(self, proc, site):
            return 5e-6 if site == "wake" else 0.0

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_park(where="wait")
            return proc.now
        proc.advance(1e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], proc.now)

    eng = Engine(2, strategy=Delay("wake", 0.0))
    eng.spawn_all(main)
    result = eng.run()
    assert result.returns[0] == pytest.approx(6e-6)


# --------------------------------------------------------------------- #
# One engine: no thread-family execution path
# --------------------------------------------------------------------- #
def test_src_imports_no_threading():
    """The simulator has one execution mechanism, the generator
    trampoline: no module under ``src/repro`` imports a thread or
    greenlet library."""
    root = Path(repro.__file__).parent
    banned = {"threading", "_thread", "greenlet"}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(root)}:{node.lineno} {n}"
                for n in names
                if n.split(".")[0] in banned
            ]
    assert found == []


def test_engine_and_run_spmd_take_no_backend():
    assert "backend" not in inspect.signature(Engine).parameters
    assert "backend" not in inspect.signature(run_spmd).parameters

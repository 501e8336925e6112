"""The sync-elision fast path must be semantically invisible.

An elided sync skips the context switch when the syncing process would
be resumed immediately anyway.  These tests pin down the contract: the
event stream, clocks, payloads, and limits behave exactly as if every
sync had gone through the full handoff — and the fast path disables
itself under exploring strategies, whose decision points must see every
event.

The reference for "as if every sync had switched" is ``_FifoExplorer``:
an exploring strategy that always picks the first (heap-order)
candidate.  It reproduces the engine's default schedule exactly, but —
being an exploring strategy — forces elision off and the full
materialize-candidates path on, so any divergence between a plain run
and a ``_FifoExplorer`` run is a bug in elision or in the exploring
path's per-rank entry slots.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.strategies import RandomWalk, ReplayStrategy
from repro.sim.engine import Engine, SchedulingStrategy, run_spmd
from repro.util.errors import SimLimitError


class _FifoExplorer(SchedulingStrategy):
    """Exploring strategy that reproduces the default heap order."""

    explores = True

    def __init__(self):
        self.choices = 0

    def choose(self, candidates):
        self.choices += 1
        return 0


def _run(nprocs, main, *args, strategy=None, **kw):
    eng = Engine(nprocs, strategy=strategy, **kw)
    eng.spawn_all(main, *args)
    return eng, eng.run()


# --------------------------------------------------------------------- #
# The fast path fires, and never when it must not
# --------------------------------------------------------------------- #
def test_lone_runner_syncs_are_elided():
    def main(proc):
        for _ in range(50):
            proc.compute(1e-6)
            yield from proc.co_sync()
        return proc.now

    eng, result = _run(1, main)
    # 1 initial resume + 50 syncs, every sync elided.
    assert result.events == 51


def test_elided_syncs_count_as_events():
    def main(proc):
        for _ in range(10):
            yield from proc.co_sync()

    _, solo = _run(1, main)
    exploring = _FifoExplorer()
    _, full = _run(1, main, strategy=exploring)
    assert solo.events == full.events  # elided or not, same event stream


def test_no_switches_while_draining_alone():
    eng = Engine(1)

    def main(proc):
        for _ in range(25):
            proc.compute(1e-6)
            yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    # One resume in; every later sync elides and the main returns.
    assert eng.switches == 1


def test_elision_respects_other_runnable_at_same_time():
    """A same-time entry from another rank must still run in seq order."""
    order = []

    def main(proc):
        for i in range(3):
            yield from proc.co_sync()  # both ranks at t=0 throughout
            order.append((proc.rank, i))

    _, plain = _run(2, main)
    plain_order = list(order)
    order.clear()
    _, explored = _run(2, main, strategy=_FifoExplorer())
    assert order == plain_order
    assert explored.events == plain.events


def test_elision_disabled_when_strategy_explores():
    strategy = _FifoExplorer()
    eng = Engine(2, strategy=strategy)

    def main(proc):
        proc.compute(1e-6)
        yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    assert eng._elide is False
    assert strategy.choices > 0  # decision points actually reached


def test_elision_enabled_for_non_exploring_strategy():
    eng = Engine(1, strategy=SchedulingStrategy())
    def main(proc):
        yield from proc.co_sync()

    eng.spawn_all(main)
    eng.run()
    assert eng._elide is True


# --------------------------------------------------------------------- #
# Equivalence against the full-handoff schedule
# --------------------------------------------------------------------- #
def _staggered(proc):
    total = 0.0
    for i in range(20):
        proc.compute(1e-6 * ((proc.rank + i) % 3 + 1))
        yield from proc.co_sync()
        total += proc.now
    return (proc.rank, round(total, 12), round(proc.now, 12))


def test_staggered_clocks_match_explored_schedule():
    _, plain = _run(4, _staggered)
    _, full = _run(4, _staggered, strategy=_FifoExplorer())
    assert plain.returns == full.returns
    assert plain.finish_times == full.finish_times
    assert plain.events == full.events


def test_park_until_timeout_matches_explored_schedule():
    def main(proc):
        if proc.rank == 0:
            payload = yield from proc.co_park_until(5e-6, where="poll")
            yield from proc.co_sync()
            return (payload, proc.now)
        proc.compute(1e-6)
        yield from proc.co_sync()
        return proc.now

    _, plain = _run(2, main)
    _, full = _run(2, main, strategy=_FifoExplorer())
    assert plain.returns == full.returns
    assert plain.returns[0] == (None, 5e-6)  # timed out, clock advanced


def test_park_until_woken_early_matches_explored_schedule():
    def main(proc):
        if proc.rank == 0:
            payload = yield from proc.co_park_until(1.0, where="poll")
            return (payload, proc.now)
        proc.compute(2e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, "posted")
        yield from proc.co_sync()
        return proc.now

    _, plain = _run(2, main)
    _, full = _run(2, main, strategy=_FifoExplorer())
    assert plain.returns == full.returns
    assert plain.returns[0] == ("posted", pytest.approx(2e-6))
    # The stale timeout entry must not produce a second resume.
    assert plain.events == full.events


def test_lone_runner_park_until_self_resume():
    """A lone park_until resumes via its own timeout entry (the
    self-resume path: the trampoline picks the same rank again)."""

    def main(proc):
        t = []
        for i in range(5):
            yield from proc.co_park_until((i + 1) * 1e-6, where="tick")
            t.append(proc.now)
        return t

    _, result = _run(1, main)
    assert result.returns[0] == pytest.approx([1e-6, 2e-6, 3e-6, 4e-6, 5e-6])


# --------------------------------------------------------------------- #
# Limits still enforced on the fast path
# --------------------------------------------------------------------- #
def test_max_events_enforced_for_elided_syncs():
    def main(proc):
        while True:
            yield from proc.co_sync()

    with pytest.raises(SimLimitError, match="max_events"):
        run_spmd(1, main, max_events=100)


def test_max_time_enforced_for_elided_syncs():
    def main(proc):
        while True:
            proc.advance(1.0)
            yield from proc.co_sync()

    with pytest.raises(SimLimitError, match="max_time"):
        run_spmd(1, main, max_time=10.0)


# --------------------------------------------------------------------- #
# Stale entries never resume anyone
# --------------------------------------------------------------------- #
def test_stale_park_until_timeouts_never_resume_twice():
    """Every early wake leaves a ``park_until`` timeout behind; neither
    path may resume rank 0 a second time from it."""

    def main(proc):
        if proc.rank == 0:
            for _ in range(60):
                yield from proc.co_park_until(proc.now + 1.0, where="poll")
            return round(proc.now, 9)
        for i in range(60):
            proc.compute(1e-6)
            yield from proc.co_sync()
            proc.engine.wake(proc.engine.procs[0], proc.now, i)
            yield from proc.co_sync()
        return round(proc.now, 9)

    _, plain = _run(2, main)
    _, full = _run(2, main, strategy=_FifoExplorer())
    assert plain.returns == full.returns
    # Two first resumes, one per park, one per rank-1 sync.
    assert plain.events == full.events == 2 + 60 + 120


# --------------------------------------------------------------------- #
# Generated rank programs: the default run against two references
# --------------------------------------------------------------------- #
_TIMES = st.sampled_from([0.0, 0.5e-6, 1e-6, 3e-6])
_OP = st.one_of(
    st.tuples(st.just("compute"), _TIMES),
    st.tuples(st.just("sync"), st.none()),
    st.tuples(st.just("park_until"), _TIMES),
    st.tuples(st.just("wake"), st.tuples(st.integers(0, 3), _TIMES)),
)
_PROGRAMS = st.integers(2, 4).flatmap(
    lambda p: st.lists(st.lists(_OP, max_size=12), min_size=p, max_size=p)
)


def _program_main(programs):
    """Generator main running ``programs[rank]``; returns what it saw.

    A ``wake`` syncs, then wakes its target only if that rank is parked
    in ``park_until`` (possibly already woken, not yet resumed), at the
    waker's clock plus a delay that may land before or after the
    target's timeout.
    """

    def main(proc):
        seen = []
        for op, arg in programs[proc.rank]:
            if op == "compute":
                proc.compute(arg)
            elif op == "sync":
                yield from proc.co_sync()
            elif op == "park_until":
                got = yield from proc.co_park_until(proc.now + arg, where="prog")
                seen.append(("resumed", got, proc.now))
            else:
                target, delay = arg
                yield from proc.co_sync()
                other = proc.engine.procs[target % proc.nprocs]
                if other.blocked_at == "prog":
                    proc.engine.wake(other, proc.now + delay, proc.rank)
                    seen.append(("woke", other.rank))
        return seen

    return main


def _run_program(programs, strategy=None):
    return _run(len(programs), _program_main(programs), strategy=strategy,
                max_events=10_000)[1]


@settings(max_examples=80, deadline=None)
@given(programs=_PROGRAMS)
# Rank 1's wake ties with rank 0's timeout at t=1us; rank 2's sync there
# is older than the wake: rank 0 must keep its timeout (the oldest entry)
# as candidate and resume first, or rank 2's wake gets in before it.
@example(programs=[
    [("park_until", 1e-6)],
    [("wake", (0, 1e-6))],
    [("compute", 1e-6), ("wake", (0, 0.0))],
])
def test_generated_programs_match_explored_schedule(programs):
    plain = _run_program(programs)
    full = _run_program(programs, strategy=_FifoExplorer())
    assert plain.returns == full.returns
    assert plain.finish_times == full.finish_times
    assert plain.events == full.events


@settings(max_examples=80, deadline=None)
@given(programs=_PROGRAMS, seed=st.integers(0, 2**16))
def test_generated_random_walks_replay_exactly(programs, seed):
    walk = RandomWalk(seed=seed)
    recorded = _run_program(programs, strategy=walk)
    replayer = ReplayStrategy(walk.decisions)
    replayed = _run_program(programs, strategy=replayer)
    assert replayer.divergences == 0
    assert replayed.finish_times == recorded.finish_times
    assert replayed.returns == recorded.returns

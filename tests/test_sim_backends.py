"""Backend equivalence and teardown robustness for the switch backends.

The engine's contract is that the context-switch mechanism is
unobservable: every backend must produce bit-for-bit identical results
— same event counts, same finish times, same counters, same recorded
span streams, same exploration traces.  These tests enforce that
contract across every backend available in the environment (greenlet
cases skip when the optional package is absent; CI installs it).
"""

from __future__ import annotations

import pytest

from repro.apps.uts import run_uts_mpi
from repro.apps.uts.presets import preset
from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import (
    DelayInjector,
    PctStrategy,
    RandomWalk,
    ReplayStrategy,
)
from repro.obs.scenarios import fingerprint, run_target
from repro.sim.backends import (
    BACKENDS,
    available_backends,
    greenlet_available,
    make_backend,
    resolve_backend_name,
)
from repro.sim.engine import Engine, run_spmd
from repro.util.errors import SimDeadlockError, SimShutdown

ALL_BACKENDS = available_backends()
ALT_BACKENDS = [b for b in ALL_BACKENDS if b != "thread"]

needs_greenlet = pytest.mark.skipif(
    not greenlet_available(), reason="optional 'greenlet' package not installed"
)


def _span_stream(recorder):
    return [
        (s.rank, s.name, s.category, s.start, s.end, s.depth, s.parent)
        for s in recorder.spans
    ]


# --------------------------------------------------------------------- #
# Resolution and selection
# --------------------------------------------------------------------- #
def test_available_backends_always_include_thread():
    names = available_backends()
    assert "coro" in names
    assert "thread" in names
    assert "thread-sem" in names
    assert names[0] == "coro"  # fastest first
    assert set(names) <= set(BACKENDS)


def test_resolve_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        resolve_backend_name("fibers")


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread-sem")
    assert resolve_backend_name("auto") == "thread-sem"
    # An explicit argument beats the environment.
    assert resolve_backend_name("thread") == "thread"


def test_resolve_auto_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    # The trampoline needs nothing beyond the stdlib, so auto always
    # resolves to it.
    assert resolve_backend_name("auto") == "coro"


def test_explicit_greenlet_without_package_raises(monkeypatch):
    if greenlet_available():
        pytest.skip("greenlet installed; the failure path is unreachable")
    with pytest.raises(RuntimeError, match="greenlet"):
        resolve_backend_name("greenlet")
    monkeypatch.setenv("REPRO_SIM_BACKEND", "greenlet")
    with pytest.raises(RuntimeError, match="greenlet"):
        resolve_backend_name("auto")


def test_engine_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        Engine(2, backend="fibers")


# --------------------------------------------------------------------- #
# Bit-for-bit equivalence across backends
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_check_scenarios_fingerprint_equivalence(scenario, backend, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    base = fingerprint(run_target(scenario, seed=0, record=True))
    base_spans = _span_stream(run_target(scenario, seed=0, record=True).recorder)
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    other_run = run_target(scenario, seed=0, record=True)
    assert fingerprint(other_run) == base
    assert _span_stream(other_run.recorder) == base_spans


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_uts_fingerprint_equivalence(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    base_run = run_target("uts-tiny", nprocs=4, seed=0, record=True)
    base = fingerprint(base_run)
    base_spans = _span_stream(base_run.recorder)
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    other = run_target("uts-tiny", nprocs=4, seed=0, record=True)
    assert fingerprint(other) == base
    assert other.extra == base_run.extra  # node counts, throughput inputs
    assert _span_stream(other.recorder) == base_spans


def _uts_mpi_outcome(nprocs, tree, seed):
    res = run_uts_mpi(nprocs, preset(tree), seed=seed)
    ranks = [(ws.processed, ws.steals, ws.steal_attempts) for _, _, ws in res.sim.returns]
    return (res.sim.events, res.sim.finish_times, res.elapsed, ranks, res.stats)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("case", [(3, "tiny", 1), (8, "small", 41)])
def test_uts_mpi_equivalence(case, backend, monkeypatch):
    """MPI-WS (generator mains: trampolined on coro, drive()n elsewhere)."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    base = _uts_mpi_outcome(*case)
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    assert _uts_mpi_outcome(*case) == base


@needs_greenlet
def test_uts_small_thread_vs_greenlet(monkeypatch):
    """The acceptance pairing: the big preset, thread vs greenlet."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    base = fingerprint(run_target("uts-small", nprocs=4, seed=0, record=False))
    monkeypatch.setenv("REPRO_SIM_BACKEND", "greenlet")
    other = fingerprint(run_target("uts-small", nprocs=4, seed=0, record=False))
    assert other == base


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_check_exploration_traces_equivalent(scenario, backend, monkeypatch):
    """Exploring strategies must record identical decision traces on
    every backend, and replaying a trace recorded on one backend must
    reproduce the run on another."""
    sc = make_scenario(scenario)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    walk = RandomWalk(seed=7)
    base = run_once(sc, walk, engine_seed=0)
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    walk2 = RandomWalk(seed=7)
    other = run_once(make_scenario(scenario), walk2, engine_seed=0)
    assert other.events == base.events
    assert walk2.decisions == walk.decisions
    # Cross-backend replay: the recorded trace steers the other backend
    # through the identical schedule.
    replay = ReplayStrategy(list(walk.decisions))
    replayed = run_once(make_scenario(scenario), replay, engine_seed=0)
    assert replayed.events == base.events


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_finish_times_and_returns_equivalent(backend):
    def main(proc):
        for _ in range(10):
            proc.compute(1e-6 * (proc.rank + 1))
            proc.sync()
        return proc.now

    base = run_spmd(4, main, backend="thread")
    other = run_spmd(4, main, backend=backend)
    assert other.finish_times == base.finish_times
    assert other.returns == base.returns
    assert other.events == base.events
    assert other.elapsed == base.elapsed


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_deadlock_identical_across_backends(backend):
    def main(proc):
        if proc.rank:
            proc.park(where=f"stuck-{proc.rank}")

    def run(b):
        with pytest.raises(SimDeadlockError) as ei:
            run_spmd(3, main, backend=b)
        return str(ei.value), ei.value.parked

    assert run("thread") == run(backend)


# --------------------------------------------------------------------- #
# Teardown robustness (satellite: never-started contexts must not hang)
# --------------------------------------------------------------------- #
def test_teardown_survives_thread_start_failure(monkeypatch):
    """If a proc's execution context never starts, teardown must not
    handshake against it forever."""
    import threading

    real_start = threading.Thread.start
    started = []

    def failing_start(self):
        if self.name.startswith("simproc-") and len(started) >= 2:
            raise RuntimeError("out of threads")
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    eng = Engine(4, backend="thread")
    eng.spawn_all(lambda proc: proc.sync())
    with pytest.raises(RuntimeError, match="out of threads"):
        eng.run()  # must raise promptly, not hang in teardown


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_teardown_after_proc_failure(backend):
    """A raising proc unwinds the other (parked and running) contexts."""

    def main(proc):
        if proc.rank == 0:
            proc.compute(1e-6)
            proc.sync()
            raise ValueError("boom")
        if proc.rank == 1:
            proc.park(where="forever")
        while True:
            proc.compute(1e-6)
            proc.sync()

    for b in ("thread", backend):
        with pytest.raises(ValueError, match="boom"):
            run_spmd(3, main, backend=b)


def test_teardown_is_idempotent_after_success():
    eng = Engine(2, backend="thread")
    eng.spawn_all(lambda proc: proc.rank)
    result = eng.run()
    assert result.returns == [0, 1]
    eng._teardown()  # second teardown must be a no-op


# --------------------------------------------------------------------- #
# Exploration and replay on the trampoline backend
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_strat",
    [
        lambda: RandomWalk(seed=11),
        lambda: PctStrategy(seed=11),
        lambda: DelayInjector(seed=11),
    ],
    ids=["random-walk", "pct", "delay"],
)
@pytest.mark.parametrize("scenario", ["steals", "termination"])
def test_exploration_strategies_on_coro_match_thread(
    scenario, make_strat, monkeypatch
):
    """Every exploring strategy must drive the trampoline backend through
    the identical schedule it drives OS threads through."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    s_thread = make_strat()
    base = run_once(make_scenario(scenario), s_thread, engine_seed=0)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "coro")
    s_coro = make_strat()
    other = run_once(make_scenario(scenario), s_coro, engine_seed=0)
    assert other.events == base.events
    assert s_coro.decisions == s_thread.decisions


def test_replay_on_coro_reproduces_coro_recorded_trace(monkeypatch):
    """A trace recorded on the trampoline replays on the trampoline."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "coro")
    walk = RandomWalk(seed=23)
    base = run_once(make_scenario("steals"), walk, engine_seed=0)
    replay = ReplayStrategy(list(walk.decisions))
    replayed = run_once(make_scenario("steals"), replay, engine_seed=0)
    assert replayed.events == base.events


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

    plain = Engine(2, backend="coro")
    plain.spawn_all(main)
    plain.run()
    assert plain._elide is True  # default path keeps eliding

    strat = _CountingExplorer()
    eng = Engine(2, strategy=strat, backend="coro")
    eng.spawn_all(main)
    eng.run()
    assert eng._explores is True
    assert eng._elide is False
    assert strat.chooses > 0
    # Elided events are still counted, so a default-order explorer
    # reproduces the plain run's event count exactly.
    assert eng.events == plain.events


# --------------------------------------------------------------------- #
# Teardown robustness for generator contexts (coro backend)
# --------------------------------------------------------------------- #
def test_teardown_survives_unstarted_generators():
    """Ranks whose coroutines were never resumed (the generator analogue
    of a thread whose start() failed) must close cleanly, not hang."""
    import inspect

    def main(proc):
        if proc.rank == 0:
            raise RuntimeError("immediate failure")
        yield from proc.co_sleep(1e-6)

    eng = Engine(4, backend="coro")
    eng.spawn_all(main)
    with pytest.raises(RuntimeError, match="immediate failure"):
        eng.run()  # must raise promptly, not hang in teardown
    for proc in eng.procs[1:]:
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_teardown_kills_half_finished_generators():
    """Procs suspended mid-generator when another rank fails are unwound
    via SimShutdown thrown at their suspension point."""
    import inspect

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        yield from proc.co_park("forever")

    eng = Engine(3, backend="coro")
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    for proc in eng.procs[1:]:
        assert proc.finished
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_coro_kill_runs_user_cleanup():
    """A generator may catch SimShutdown for cleanup; the kill loop keeps
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

    eng = Engine(2, backend="coro")
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert cleaned == [1]
    assert eng.procs[1].finished


# --------------------------------------------------------------------- #
# Wake-delay validation (satellite: strategy-injected delays)
# --------------------------------------------------------------------- #
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
            payload = proc.park(where="wait")
            return payload
        proc.advance(1e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, "hi")

    eng = Engine(2, strategy=_BadDelay("wake", value), backend="thread")
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'wake'"):
        eng.run()


@pytest.mark.parametrize("value", [float("nan"), -10.0])
def test_sync_rejects_invalid_injected_delay(value):
    def main(proc):
        proc.sync()

    eng = Engine(2, strategy=_BadDelay("sync", value), backend="thread")
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'sync'"):
        eng.run()


def test_wake_valid_delay_still_applies():
    class Delay(_BadDelay):
        def delay(self, proc, site):
            return 5e-6 if site == "wake" else 0.0

    def main(proc):
        if proc.rank == 0:
            proc.park(where="wait")
            return proc.now
        proc.advance(1e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now)

    eng = Engine(2, strategy=Delay("wake", 0.0), backend="thread")
    eng.spawn_all(main)
    result = eng.run()
    assert result.returns[0] == pytest.approx(6e-6)

"""Property: the engine serializes all synchronized accesses in
nondecreasing virtual-time order — the sequential-consistency guarantee
every protocol in this repository is built on."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    nprocs=st.integers(1, 8),
    steps=st.integers(1, 30),
)
def test_sync_points_globally_time_ordered(seed, nprocs, steps):
    log: list[tuple[float, int]] = []

    def main(proc):
        import numpy as np

        rng = np.random.default_rng((seed, proc.rank, 77))
        for _ in range(steps):
            proc.advance(float(rng.uniform(0, 5e-6)))
            yield from proc.co_sync()
            log.append((proc.now, proc.rank))

    eng = Engine(nprocs, seed=seed, max_events=500_000)
    eng.spawn_all(main)
    eng.run()
    times = [t for t, _ in log]
    assert times == sorted(times), "synchronized accesses ran out of time order"
    assert len(log) == nprocs * steps


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), nprocs=st.integers(2, 6))
def test_identical_seed_identical_event_stream(seed, nprocs):
    def run():
        order: list[int] = []

        def main(proc):
            for _ in range(10):
                proc.advance(float(proc.rng.uniform(0, 3e-6)))
                yield from proc.co_sync()
                order.append(proc.rank)

        eng = Engine(nprocs, seed=seed, max_events=200_000)
        eng.spawn_all(main)
        res = eng.run()
        return order, res.events, res.elapsed

    a, b = run(), run()
    assert a == b

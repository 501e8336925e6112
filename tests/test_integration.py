"""Cross-module integration tests: TC + GA + CLOs + termination under stress."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AFFINITY_HIGH, SciotoConfig, Task, TaskCollection
from repro.ga import GlobalArray, GlobalCounter
from repro.sim.engine import Engine
from repro.sim.machines import heterogeneous_cluster


def _run(nprocs, main, *args, seed=0, machine=None, max_events=3_000_000):
    eng = Engine(nprocs, seed=seed, machine=machine, max_events=max_events)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestActivityPingPong:
    """Termination must never fire early even when ranks oscillate between
    active and passive via remote task injection — the adversarial case
    for wave-based detection."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), opt=st.booleans(), rounds=st.integers(1, 12))
    def test_remote_injection_chains(self, seed, opt, rounds):
        executed = []
        cfg = SciotoConfig(termination_opt=opt)

        def main(proc):
            tc = yield from TaskCollection.co_create(proc, config=cfg)

            def hop(tc_, task):
                step = task.body
                tc_.proc.compute(2e-6)
                executed.append(step)
                if step < rounds:
                    # bounce to a pseudo-random other rank: the target may
                    # have voted already; dirty piggybacking must catch it
                    dest = (tc_.rank + 1 + step) % tc_.nprocs
                    yield from tc_.proc.co_sleep(25e-6)  # let everyone go idle first
                    yield from tc_.co_add(Task(callback=h, body=step + 1), rank=dest)

            h = tc.register(hop)
            if proc.rank == 0:
                yield from tc.co_add(Task(callback=h, body=0))
            yield from tc.co_process()

        _run(5, main, seed=seed)
        assert sorted(executed) == list(range(rounds + 1)), (
            "a hop was lost or termination fired early"
        )

    def test_fan_out_fan_in_waves(self):
        """Repeated storms of remote adds from a single coordinator."""
        executed = []

        def main(proc):
            tc = yield from TaskCollection.co_create(proc)

            def worker(tc_, task):
                tc_.proc.compute(3e-6)
                executed.append(task.body)

            def coordinator(tc_, task):
                wave = task.body
                tc_.proc.compute(1e-6)
                for r in range(tc_.nprocs):
                    yield from tc_.co_add(Task(callback=hw, body=(wave, r)), rank=r)
                if wave < 3:
                    yield from tc_.proc.co_sleep(100e-6)  # everyone likely idle again
                    yield from tc_.co_add(Task(callback=hc, body=wave + 1))

            hw = tc.register(worker)
            hc = tc.register(coordinator)
            if proc.rank == 0:
                yield from tc.co_add(Task(callback=hc, body=0))
            yield from tc.co_process()

        _run(4, main, seed=7)
        assert sorted(executed) == sorted((w, r) for w in range(4) for r in range(4))


class TestFullStack:
    def test_ga_clo_affinity_pipeline(self):
        """A miniature SCF-shaped app touching every subsystem: tasks read
        GA input, accumulate into GA output, tally into CLOs, and are
        seeded at owners with high affinity on a heterogeneous machine."""
        n = 24
        nblocks = 6
        bs = n // nblocks

        def main(proc):
            src = yield from GlobalArray.co_create(proc, "src", (n, n))
            dst = yield from GlobalArray.co_create(proc, "dst", (n, n))
            lo, hi = src.distribution(proc.rank)
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            full = np.arange(n * n, dtype=float).reshape(n, n)
            src.access(proc)[...] = full[sl]
            yield from src.co_sync(proc)

            tc = yield from TaskCollection.co_create(proc, task_size=64)
            tally = tc.register_clo({"blocks": 0})

            def block_task(tc_, task):
                i, j = task.body
                p = tc_.proc
                box_lo, box_hi = (i * bs, j * bs), ((i + 1) * bs, (j + 1) * bs)
                blk = yield from src.co_get(p, box_lo, box_hi)
                p.compute(bs * bs * 10 * p.machine.seconds_per_flop)
                yield from dst.co_acc(p, box_lo, box_hi, 2.0 * blk)
                tc_.clo(tally)["blocks"] += 1

            h = tc.register(block_task)
            for i in range(nblocks):
                for j in range(nblocks):
                    if dst.locate((i * bs, j * bs)) == proc.rank:
                        yield from tc.co_add(Task(callback=h, body=(i, j)), affinity=AFFINITY_HIGH)
            yield from tc.co_process()
            yield from dst.co_sync(proc)
            return (tc.clo(tally)["blocks"], (yield from dst.co_read_full(proc)))

        eng, res = _run(4, main, machine=heterogeneous_cluster(4))
        total_blocks = sum(r[0] for r in res.returns)
        assert total_blocks == nblocks * nblocks
        expect = 2.0 * np.arange(24 * 24, dtype=float).reshape(24, 24)
        assert np.allclose(res.returns[0][1], expect)

    def test_counter_and_collection_coexist(self):
        """A GA counter and a task collection in the same program (phase
        pattern some GA applications use)."""

        def main(proc):
            counter = yield from GlobalCounter.co_create(proc)
            tc = yield from TaskCollection.co_create(proc)
            claims = []

            def claimer(tc_, task):
                claims.append((yield from counter.co_read_inc(tc_.proc)))

            h = tc.register(claimer)
            if proc.rank == 0:
                for _ in range(12):
                    yield from tc.co_add(Task(callback=h))
            yield from tc.co_process()
            return claims

        _, res = _run(3, main)
        all_claims = sorted(v for r in res.returns for v in r)
        assert all_claims == list(range(12))

    def test_two_phase_scf_like_reuse(self):
        """tc_reset + reseed across phases keeps results deterministic."""
        phase_sums = []

        def main(proc):
            acc = yield from GlobalArray.co_create(proc, "acc", (8,))
            tc = yield from TaskCollection.co_create(proc)

            def add_one(tc_, task):
                yield from acc.co_acc(tc_.proc, (task.body,), (task.body + 1,), np.ones(1))

            h = tc.register(add_one)
            for phase in range(3):
                if proc.rank == 0:
                    for i in range(8):
                        yield from tc.co_add(Task(callback=h, body=i), rank=i % proc.nprocs)
                yield from tc.co_process()
                yield from acc.co_sync(proc)
                if proc.rank == 0:
                    phase_sums.append((yield from acc.co_read_full(proc)).sum())
                yield from tc.co_reset()

        _run(2, main)
        assert phase_sums == [8.0, 16.0, 24.0]

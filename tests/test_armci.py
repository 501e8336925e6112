"""Tests for the ARMCI one-sided layer: ordering, atomics, messages, collectives."""

from __future__ import annotations

import operator

import pytest

from repro.armci.runtime import Armci
from repro.sim.engine import Engine
from repro.sim.machines import uniform_cluster


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=500_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


class TestPutGet:
    def test_put_applies_at_target_and_get_reads(self):
        store = {}

        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                yield from armci.co_put(proc, 1, 64, lambda: store.__setitem__("x", 42))
            yield from armci.co_barrier(proc)
            return (yield from armci.co_get(proc, 1, 64, lambda: store.get("x")))

        _, res = _run(2, main)
        assert res.returns == [42, 42]

    def test_remote_get_costs_round_trip(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            t0 = proc.now
            yield from armci.co_get(proc, (proc.rank + 1) % 2, 1024, lambda: None)
            return proc.now - t0

        eng, res = _run(2, main)
        m = eng.machine
        assert res.returns[0] == pytest.approx(2 * m.latency + 1024 / m.net_bandwidth)

    def test_local_get_costs_memcpy_only(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            t0 = proc.now
            yield from armci.co_get(proc, proc.rank, 1024, lambda: None)
            return proc.now - t0

        eng, res = _run(2, main)
        assert res.returns[0] == pytest.approx(eng.machine.local_copy_time(1024))
        assert res.returns[0] < eng.machine.get_time(1024)

    def test_counters_track_remote_traffic(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                yield from armci.co_put(proc, 1, 100, None)
                yield from armci.co_get(proc, 1, 200, None)

        eng, _ = _run(2, main)
        c = Armci.attach(eng).counters
        assert c.get(0, "put_remote") == 1
        assert c.get(0, "bytes_put") == 100
        assert c.get(0, "bytes_get") == 200


class TestRmw:
    def test_fetch_add_returns_unique_values(self):
        cell = {"v": 0}

        def main(proc):
            armci = Armci.attach(proc.engine)
            got = []
            for _ in range(10):
                def fa():
                    v = cell["v"]
                    cell["v"] += 1
                    return v
                got.append((yield from armci.co_rmw(proc, 0, fa)))
            return got

        _, res = _run(4, main)
        all_vals = [v for r in res.returns for v in r]
        assert sorted(all_vals) == list(range(40))
        assert cell["v"] == 40

    def test_rmw_serializes_at_target(self):
        """Concurrent atomics on one host must take at least n * service time."""

        def main(proc):
            armci = Armci.attach(proc.engine)
            cell = proc.engine.state.setdefault("cell", {"v": 0})

            def fa():
                v = cell["v"]
                cell["v"] += 1
                return v

            yield from armci.co_rmw(proc, 0, fa)
            return proc.now

        eng, res = _run(8, main)
        m = eng.machine
        # 7 remote requests all arrive at t=latency; they serialize at the host.
        expected_last = m.latency + 7 * m.rmw_overhead + m.latency
        assert max(res.returns) >= expected_last - 1e-12


class TestMessages:
    def test_post_and_poll_roundtrip(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                yield from armci.co_post(proc, 1, "tok", ("hello", 7))
                return None
            while True:
                msg = yield from armci.co_poll_mailbox(proc, "tok")
                if msg is not None:
                    return msg
                proc.advance(1e-6)

        _, res = _run(2, main)
        assert res.returns[1] == (0, ("hello", 7))

    def test_poll_empty_returns_none(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            return (yield from armci.co_poll_mailbox(proc, "nothing"))

        _, res = _run(2, main)
        assert res.returns == [None, None]

    def test_messages_fifo_per_tag(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                for i in range(5):
                    yield from armci.co_post(proc, 1, "t", i)
                return None
            proc.advance(1e-3)
            out = []
            while True:
                msg = yield from armci.co_poll_mailbox(proc, "t")
                if msg is None:
                    break
                out.append(msg[1])
            return out

        _, res = _run(2, main)
        assert res.returns[1] == [0, 1, 2, 3, 4]


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            proc.advance(proc.rank * 10e-6)
            yield from armci.co_barrier(proc)
            return proc.now

        _, res = _run(4, main)
        assert len(set(round(t, 12) for t in res.returns)) == 1
        assert res.returns[0] > 30e-6

    def test_allreduce_sum(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            return (yield from armci.co_allreduce(proc, proc.rank + 1, operator.add))

        _, res = _run(5, main)
        assert res.returns == [15] * 5

    def test_allreduce_single_proc(self):
        def main(proc):
            return (yield from Armci.attach(proc.engine).co_allreduce(proc, 9, operator.add))

        _, res = _run(1, main)
        assert res.returns == [9]

    def test_allreduce_reusable(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            a = yield from armci.co_allreduce(proc, 1, operator.add)
            b = yield from armci.co_allreduce(proc, proc.rank, max)
            return (a, b)

        _, res = _run(3, main)
        assert res.returns == [(3, 2)] * 3

    def test_broadcast_from_root(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            value = "payload" if proc.rank == 2 else None
            return (yield from armci.co_broadcast(proc, value, root=2))

        _, res = _run(4, main)
        assert res.returns == ["payload"] * 4

    def test_attach_is_idempotent(self):
        eng = Engine(2)
        assert Armci.attach(eng) is Armci.attach(eng)

"""Tests for the two-sided MPI-like layer (generator mains: every call is ``yield from``)."""

from __future__ import annotations

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Mpi
from repro.sim.engine import Engine
from repro.util.errors import CommError, SimDeadlockError


def _run(nprocs, main, *args, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=500_000)
    eng.spawn_all(main, *args)
    return eng, eng.run()


def test_send_recv_basic():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        if proc.rank == 0:
            yield from mpi.send(proc, 1, tag=5, payload="hi")
            return None
        return (yield from mpi.recv(proc, source=0, tag=5))

    _, res = _run(2, main)
    assert res.returns[1] == (0, 5, "hi")


def test_recv_blocks_until_message_arrives():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        if proc.rank == 1:
            src, tag, payload = yield from mpi.recv(proc)
            return (payload, proc.now)
        proc.advance(50e-6)
        yield from mpi.send(proc, 1, tag=0, payload="late")
        return None

    _, res = _run(2, main)
    payload, t = res.returns[1]
    assert payload == "late"
    assert t >= 50e-6


def test_recv_filters_by_source_and_tag():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        if proc.rank == 0:
            yield from mpi.send(proc, 2, tag=1, payload="a")
            return None
        if proc.rank == 1:
            proc.advance(1e-6)
            yield from mpi.send(proc, 2, tag=2, payload="b")
            return None
        first = yield from mpi.recv(proc, source=1, tag=2)
        second = yield from mpi.recv(proc, source=ANY_SOURCE, tag=ANY_TAG)
        return (first, second)

    _, res = _run(3, main)
    assert res.returns[2] == ((1, 2, "b"), (0, 1, "a"))


def test_iprobe_nonblocking():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        if proc.rank == 0:
            early = yield from mpi.iprobe(proc)
            proc.advance(100e-6)
            late = yield from mpi.iprobe(proc, source=1, tag=3)
            return (early, late)
        yield from mpi.send(proc, 0, tag=3, payload=None)
        return None

    _, res = _run(2, main)
    assert res.returns[0] == (False, True)


def test_iprobe_charges_poll_cost():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        t0 = proc.now
        yield from mpi.iprobe(proc)
        return proc.now - t0

    eng, res = _run(2, main)
    assert res.returns[0] == pytest.approx(eng.machine.poll_cost)
    assert Mpi.attach(eng).counters.total("polls") == 2


def test_send_to_self_rejected():
    def main(proc):
        yield from Mpi.attach(proc.engine).send(proc, proc.rank, tag=0, payload=None)

    with pytest.raises(CommError):
        _run(1, main)


def test_unmatched_recv_deadlocks_cleanly():
    def main(proc):
        if proc.rank == 0:
            yield from Mpi.attach(proc.engine).recv(proc, source=1, tag=99)

    with pytest.raises(SimDeadlockError, match="MPI_Recv"):
        _run(2, main)


def test_barrier_synchronizes():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        proc.advance(proc.rank * 5e-6)
        yield from mpi.barrier(proc)
        return proc.now

    _, res = _run(4, main)
    assert len({round(t, 12) for t in res.returns}) == 1


def test_many_messages_fifo_between_pair():
    def main(proc):
        mpi = Mpi.attach(proc.engine)
        if proc.rank == 0:
            for i in range(20):
                yield from mpi.send(proc, 1, tag=0, payload=i)
            return None
        got = []
        for _ in range(20):
            got.append((yield from mpi.recv(proc, source=0))[2])
        return got

    _, res = _run(2, main)
    assert res.returns[1] == list(range(20))

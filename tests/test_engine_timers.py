"""Tests for timed parking (park_until) and mailbox waiting."""

from __future__ import annotations

import pytest

from repro.armci.runtime import Armci
from repro.sim.engine import Engine, run_spmd


class TestParkUntil:
    def test_timeout_resume(self):
        def main(proc):
            payload = yield from proc.co_park_until(proc.now + 5e-6, "nap")
            return (payload, proc.now)

        res = run_spmd(1, main)
        payload, t = res.returns[0]
        assert payload is None
        assert t == pytest.approx(5e-6)

    def test_early_wake_wins(self):
        def main(proc):
            if proc.rank == 0:
                payload = yield from proc.co_park_until(proc.now + 100e-6, "nap")
                return (payload, proc.now)
            proc.advance(3e-6)
            yield from proc.co_sync()
            proc.engine.wake(proc.engine.procs[0], proc.now, payload="ping")
            return None

        res = run_spmd(2, main)
        payload, t = res.returns[0]
        assert payload == "ping"
        assert t == pytest.approx(3e-6)

    def test_stale_timeout_entry_skipped_after_wake(self):
        """After an early wake, the old timeout must not re-resume the proc."""
        resumes = []

        def main(proc):
            if proc.rank == 0:
                yield from proc.co_park_until(proc.now + 10e-6, "nap")
                resumes.append(proc.now)
                # sleep past the stale timeout; nothing should fire
                yield from proc.co_sleep(50e-6)
                resumes.append(proc.now)
                return None
            proc.advance(2e-6)
            yield from proc.co_sync()
            proc.engine.wake(proc.engine.procs[0], proc.now)
            return None

        run_spmd(2, main)
        assert resumes[0] == pytest.approx(2e-6)
        assert resumes[1] == pytest.approx(52e-6)

    def test_repeated_timed_parks(self):
        def main(proc):
            for _ in range(5):
                yield from proc.co_park_until(proc.now + 1e-6, "tick")
            return proc.now

        res = run_spmd(1, main)
        assert res.returns[0] == pytest.approx(5e-6)


class TestWaitMailbox:
    def test_wakes_on_post(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 0:
                got = yield from armci.co_wait_mailbox(proc, "t", timeout=1.0)
                msg = yield from armci.co_poll_mailbox(proc, "t")
                return (got, msg, proc.now)
            proc.advance(7e-6)
            yield from proc.co_sync()
            yield from armci.co_post(proc, 0, "t", "hello")
            return None

        eng = Engine(2, max_events=100_000)
        eng.spawn_all(main)
        res = eng.run()
        got, msg, t = res.returns[0]
        assert got is True
        assert msg[1] == "hello"
        assert t < 50e-6  # woke on arrival, not at the 1s timeout

    def test_timeout_without_message(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            got = yield from armci.co_wait_mailbox(proc, "t", timeout=4e-6)
            return (got, proc.now)

        res = run_spmd(1, main)
        got, t = res.returns[0]
        assert got is False
        assert t >= 4e-6

    def test_immediate_when_message_pending(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            if proc.rank == 1:
                yield from armci.co_post(proc, 0, "t", 1)
                return None
            yield from proc.co_sleep(20e-6)
            t0 = proc.now
            got = yield from armci.co_wait_mailbox(proc, "t", timeout=1.0)
            return (got, proc.now - t0)

        eng = Engine(2, max_events=100_000)
        eng.spawn_all(main)
        res = eng.run()
        got, dt = res.returns[0]
        assert got is True
        assert dt < 1e-6

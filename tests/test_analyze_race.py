"""Tests for the vector-clock race detector (repro.analyze)."""

from __future__ import annotations

import pytest

from repro.analyze import RaceDetector, VectorClock
from repro.analyze.runner import run_race_detection
from repro.armci.runtime import Armci
from repro.sim.engine import Engine


def _run(nprocs, main, *, detect=True, seed=0):
    eng = Engine(nprocs, seed=seed, max_events=500_000)
    det = RaceDetector.attach(eng) if detect else None
    eng.spawn_all(main)
    eng.run()
    return eng, det


class TestVectorClock:
    def test_join_is_componentwise_max(self):
        a, b = VectorClock(3), VectorClock(3)
        a.tick(0), a.tick(0), b.tick(1)
        a.join(b)
        assert list(a.c) == [2, 1, 0]
        # array-backed storage: copies and snapshots are buffer memcpys
        assert list(a.copy().c) == [2, 1, 0]
        assert list(a.snapshot()) == [2, 1, 0]

    def test_ordered_before_epoch_test(self):
        a, b = VectorClock(2), VectorClock(2)
        a.tick(0)
        assert not a.ordered_before(0, b)
        b.join(a)
        assert a.ordered_before(0, b)


class TestSyncEdges:
    """True negatives: properly synchronized accesses never race."""

    def test_mutex_orders_conflicting_writes(self):
        shared = {}

        def main(proc):
            armci = Armci.attach(proc.engine)
            if "m" not in shared:
                shared["m"] = armci.create_mutex(0, "m")
            mtx = shared["m"]
            yield from mtx.co_acquire(proc)
            det = RaceDetector.of(proc.engine)
            det.record(proc, "cell", "w")
            yield from mtx.co_release(proc)

        _, det = _run(3, main)
        assert det.races == []
        assert det.accesses == 3

    def test_unsynchronized_writes_race(self):
        def main(proc):
            yield from proc.co_sync()
            RaceDetector.of(proc.engine).record(proc, "cell", "w")

        _, det = _run(2, main)
        assert len(det.races) == 1
        assert det.races[0].kind == "data-race"
        assert {det.races[0].first.rank, det.races[0].second.rank} == {0, 1}

    def test_reads_never_race_with_reads(self):
        def main(proc):
            yield from proc.co_sync()
            RaceDetector.of(proc.engine).record(proc, "cell", "r")

        _, det = _run(4, main)
        assert det.races == []

    def test_atomics_never_race_with_atomics(self):
        def main(proc):
            yield from proc.co_sync()
            RaceDetector.of(proc.engine).record(proc, "cell", "a")

        _, det = _run(4, main)
        assert det.races == []

    def test_atomic_races_with_plain_write(self):
        def main(proc):
            yield from proc.co_sync()
            det = RaceDetector.of(proc.engine)
            det.record(proc, "cell", "a" if proc.rank else "w")

        _, det = _run(2, main)
        assert len(det.races) == 1

    def test_barrier_orders_across_ranks(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            det = RaceDetector.of(proc.engine)
            if proc.rank == 0:
                det.record(proc, "cell", "w")
            yield from armci.co_barrier(proc)
            if proc.rank == 1:
                det.record(proc, "cell", "w")

        _, det = _run(2, main)
        assert det.races == []

    def test_rmw_serialization_orders_closure_accesses(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            det = RaceDetector.of(proc.engine)
            yield from armci.co_rmw(proc, 0, lambda: det.record(proc, "cell", "rw"))

        _, det = _run(3, main)
        assert det.races == []

    def test_message_edge_orders_post_and_poll(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            det = RaceDetector.of(proc.engine)
            if proc.rank == 0:
                det.record(proc, "cell", "w")
                yield from armci.co_post(proc, 1, "t", ("hello",))
            else:
                while armci.mailbox_empty(proc, "t"):
                    yield from proc.co_sleep(1e-6)
                yield from armci.co_poll_mailbox(proc, "t")
                det.record(proc, "cell", "w")

        _, det = _run(2, main)
        assert det.races == []

    def test_detector_off_is_zero_cost(self):
        def main(proc):
            yield from proc.co_sync()

        eng, det = _run(2, main, detect=False)
        assert det is None
        assert RaceDetector.of(eng) is None


class TestFenceDiscipline:
    def test_unfenced_release_flag_store_reported(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            det = RaceDetector.of(proc.engine)
            if proc.rank == 1:
                yield from armci.co_put(proc, 0, 64, None)  # transfer, never fenced
                yield from armci.co_put(
                    proc, 0, 8,
                    lambda: det.flag_write(proc, "flag", target=0, release=True),
                )

        _, det = _run(2, main)
        assert len(det.races) == 1
        assert det.races[0].kind == "unfenced-flag-store"

    def test_fence_clears_pending_ops(self):
        def main(proc):
            armci = Armci.attach(proc.engine)
            det = RaceDetector.of(proc.engine)
            if proc.rank == 1:
                yield from armci.co_put(proc, 0, 64, None)
                yield from armci.co_fence(proc, 0)
                yield from armci.co_put(
                    proc, 0, 8,
                    lambda: det.flag_write(proc, "flag", target=0, release=True),
                )

        _, det = _run(2, main)
        assert det.races == []

    def test_flag_stores_never_race_with_each_other(self):
        def main(proc):
            yield from proc.co_sync()
            det = RaceDetector.of(proc.engine)
            det.flag_write(proc, "flag")
            det.flag_read(proc, "flag")

        _, det = _run(3, main)
        assert det.races == []


class TestScenarioRuns:
    """The acceptance criteria: clean seed runs are race-free, the
    mutations are deterministically caught."""

    @pytest.mark.parametrize(
        "target", ["queue", "queue-wf", "termination", "steals", "waitfree", "graph"]
    )
    def test_clean_scenarios_report_zero_races(self, target):
        res = run_race_detection(target)
        assert res.error is None
        assert res.races == []
        assert res.accesses > 0  # the hooks are actually firing

    def test_unlocked_split_produces_data_race(self):
        res = run_race_detection("queue", mutation="unlocked_split")
        assert res.racy
        assert any(r.kind == "data-race" for r in res.races)
        # both sides of at least one pair point into the queue code
        race = res.races[0]
        assert "queue" in str(race.region)

    def test_unlocked_split_caught_on_every_scenario_with_steals(self):
        for target in ("queue", "termination", "steals", "graph"):
            assert run_race_detection(target, mutation="unlocked_split").racy

    def test_fence_elision_produces_unfenced_flag_store(self):
        races = []
        for target in ("graph", "termination", "steals", "waitfree"):
            races.extend(run_race_detection(target, mutation="fence_elision").races)
        assert any(r.kind == "unfenced-flag-store" for r in races)

    def test_race_report_carries_sites_and_vector_times(self):
        res = run_race_detection("queue", mutation="unlocked_split")
        race = res.races[0]
        assert race.first.rank != race.second.rank
        assert race.first.site and race.second.site
        assert len(race.first.vc) == len(race.second.vc)
        text = race.describe()
        assert "vc=" in text and ".py" in text

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_race_detection("nonesuch")


class TestCli:
    def test_race_clean_exit_zero(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["race", "--target", "queue"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_race_mutated_exit_one(self, capsys):
        from repro.analyze.__main__ import main

        assert main(["race", "--target", "queue", "--mutate", "unlocked_split"]) == 1
        assert "data-race" in capsys.readouterr().out

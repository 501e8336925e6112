"""Canary for the two random streams every run rests on.

Every golden and every virtual-time series in ``BENCH_sim.json`` is a
function of these draws.  Neither stream belongs to the repository:

* each rank's ``proc.rng`` is numpy's ``default_rng`` over
  ``SeedSequence(seed).spawn(nprocs)``; victim choice
  (``core/stealing.py``, ``baselines/mpi_ws.py``) draws it through
  ``integers(0, nprocs - 1)`` and the check scenarios through
  ``uniform``.  numpy does not promise a stable ``Generator`` stream
  across releases (NEP 19);
* the exploration strategies (``check/strategies.py``) draw from
  ``random.Random(seed)`` through ``randrange``, ``shuffle``,
  ``sample``, ``random`` and ``uniform``.  CPython promises a stable
  stream only for ``random()``.

If a toolchain change moves either stream, this file fails first and
says which draw moved, instead of dozens of goldens failing at once.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.sim.engine import Engine

#: (seed, nprocs) -> first six ``integers(0, nprocs - 1)`` draws of ranks 0-2.
VICTIM_DRAWS = {
    (0, 4): [[2, 2, 0, 0, 2, 2], [1, 2, 1, 0, 0, 1], [1, 2, 1, 0, 2, 1]],
    (1, 16): [[0, 10, 12, 2, 12, 9], [14, 7, 2, 9, 14, 3], [6, 3, 0, 0, 12, 6]],
}

#: (seed, nprocs) -> first two ``uniform(0.0, 1e-6)`` draws of ranks 0-1.
UNIFORM_DRAWS = {
    (0, 4): [
        [9.429375528828793e-07, 3.1633715238549807e-07],
        [6.771968569751019e-07, 2.429867485428212e-07],
    ],
    (1, 16): [
        [6.990345474368356e-07, 1.7433552137309582e-07],
        [4.757645185899906e-07, 6.005884039084781e-07],
    ],
}


@pytest.mark.parametrize("case", sorted(VICTIM_DRAWS))
def test_rank_streams_draw_victims_as_pinned(case):
    seed, nprocs = case
    procs = Engine(nprocs, seed=seed).procs
    got = [[int(p.rng.integers(0, nprocs - 1)) for _ in range(6)] for p in procs[:3]]
    assert got == VICTIM_DRAWS[case]


@pytest.mark.parametrize("case", sorted(UNIFORM_DRAWS))
def test_rank_streams_draw_uniforms_as_pinned(case):
    seed, nprocs = case
    procs = Engine(nprocs, seed=seed).procs
    got = [[float(p.rng.uniform(0.0, 1e-6)) for _ in range(2)] for p in procs[:2]]
    assert got == UNIFORM_DRAWS[case]


def test_engine_builds_rank_streams_from_spawned_seed_sequences():
    streams = np.random.SeedSequence(5).spawn(3)
    for proc, ss in zip(Engine(3, seed=5).procs, streams):
        assert proc.rng.integers(0, 1 << 30) == np.random.default_rng(ss).integers(0, 1 << 30)


def test_strategy_stream_calls_are_pinned():
    rng = random.Random(0)
    assert rng.randrange(10) == 6
    assert rng.randrange(1000) == 776
    assert [rng.random() for _ in range(2)] == [0.890243920837131, 0.04048437818077755]
    assert rng.uniform(0.0, 1e-6) == 9.65464886361917e-07
    ranks = list(range(8))
    rng.shuffle(ranks)
    assert ranks == [1, 0, 4, 5, 6, 2, 3, 7]
    assert rng.sample(range(50), 5) == [32, 8, 18, 48, 6]

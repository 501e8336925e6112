"""Every rank main shipped in ``src/repro`` is a generator main.

Three guards around the port of MPI-WS, matmul and the bench helpers
onto the coroutine protocol:

* goldens computed at the last commit whose mains were blocking
  functions pin the port to the bit (event counts, finish times,
  per-rank steal counters);
* no shipped main starts an OS thread;
* Figure 4's MPI barrier series, which a call left without
  ``yield from`` would silently turn into zeros.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np
import pytest

from repro.apps.matmul import run_matmul
from repro.apps.scf.parallel import run_scf_scioto
from repro.apps.scf.problem import SCFProblem
from repro.apps.tce.parallel import run_tce_scioto
from repro.apps.tce.problem import TCEProblem
from repro.apps.uts import run_uts_mpi, run_uts_scioto
from repro.apps.uts.presets import preset
from repro.bench import ablations, figure4, table1
from repro.sim.machines import heterogeneous_cluster, uniform_cluster


def uts_mpi_digest(res) -> str:
    """Digest of everything the MPI-WS run decided, to the last bit."""
    ranks = [(ws.processed, ws.steals, ws.steal_attempts) for _, _, ws in res.sim.returns]
    blob = json.dumps([
        [t.hex() for t in res.sim.finish_times],
        res.elapsed.hex(),
        ranks,
        [res.stats.nodes, res.stats.leaves, res.stats.max_depth],
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: (tree, nprocs, seed, heterogeneous machine?) -> (events, digest) at the
#: parent commit (blocking mains).
UTS_MPI_GOLDEN = {
    ("small", 8, 41, False): (21_802, "608f807faff64c9f"),
    ("small", 8, 7, False): (21_383, "879ff2143b8530b7"),
    ("tiny", 3, 1, False): (1_638, "f1d171d6fd61bdec"),
    ("small", 16, 2, True): (31_692, "76ef6a5a701539fd"),
    ("tiny", 1, 0, False): (5, "96d680ac1000ca02"),
    ("small", 2, 5, False): (16_041, "59f43b4af5d26b80"),
}


@pytest.mark.parametrize("case", sorted(UTS_MPI_GOLDEN))
def test_uts_mpi_matches_blocking_parent(case):
    tree, nprocs, seed, hetero = case
    machine = heterogeneous_cluster(nprocs) if hetero else None
    res = run_uts_mpi(nprocs, preset(tree), machine=machine, seed=seed)
    assert (res.sim.events, uts_mpi_digest(res)) == UTS_MPI_GOLDEN[case]


# --------------------------------------------------------------------- #
# No shipped main starts a thread
# --------------------------------------------------------------------- #
_SCF = SCFProblem(nblocks=4, blocksize=2, decay=0.9)
_TCE = TCEProblem(nblocks=3, blocksize=4, density=0.5, seed=3)
_HET2 = heterogeneous_cluster(2)

SHIPPED_MAINS = {
    "uts_mpi": lambda: run_uts_mpi(2, preset("tiny"), seed=0),
    "uts_scioto": lambda: run_uts_scioto(2, preset("tiny"), seed=0),
    "matmul": lambda: run_matmul(2, np.eye(4), np.eye(4), num_blocks=2),
    "scf_scioto": lambda: run_scf_scioto(2, _SCF, iterations=1),
    "tce_scioto": lambda: run_tce_scioto(2, _TCE),
    "table1_microbench": lambda: table1._microbench(uniform_cluster(2)),
    "figure4_termination": lambda: figure4._termination_time(2),
    "figure4_barrier": lambda: figure4._barrier_time(2, "mpi"),
    "ablations_uts_frontier": lambda: run_uts_scioto(
        2, ablations._TREE, machine=_HET2, seed=1, frontier=True
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_MAINS))
def test_shipped_main_starts_no_thread(name, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{name}: a rank main started a thread ({self.name})")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    SHIPPED_MAINS[name]()


# --------------------------------------------------------------------- #
# Values a forgotten ``yield from`` would change without failing anything
# --------------------------------------------------------------------- #
#: nprocs -> _barrier_time(nprocs, "mpi").hex() at the parent commit.
MPI_BARRIER_GOLDEN = {
    1: "0x1.ad7f29abcaf48p-22",
    2: "0x1.c8571c4687a3cp-19",
    4: "0x1.c8571c4687a3cp-18",
    8: "0x1.56415534e5bb0p-17",
    16: "0x1.c8571c4687a3ep-17",
}


@pytest.mark.parametrize("nprocs", sorted(MPI_BARRIER_GOLDEN))
def test_figure4_mpi_barrier_matches_parent(nprocs):
    t = figure4._barrier_time(nprocs, "mpi")
    assert t.hex() == MPI_BARRIER_GOLDEN[nprocs]
    assert t > 0


def test_matmul_matches_parent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    r = run_matmul(4, a, b, num_blocks=4, seed=0)
    assert r.elapsed.hex() == "0x1.101abb7e5703ep-12"
    assert r.sim.events == 576
    assert hashlib.sha256(r.c.tobytes()).hexdigest()[:16] == "056b48d5b844d05c"
    np.testing.assert_allclose(r.c, a @ b)

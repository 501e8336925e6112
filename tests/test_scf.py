"""Tests for the SCF application: problem structure and schedule-invariance."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.scf import (
    SCFProblem,
    run_scf_original,
    run_scf_scioto,
    run_scf_sequential,
)
from repro.apps.scf import parallel
from repro.apps.scf.problem import stable_hash
from repro.apps.scf.reference import build_fock_sequential
from repro.apps.tce import TCEProblem
from repro.core import SciotoConfig
from repro.sim.machines import heterogeneous_cluster

# decay high enough that distant pairs actually screen out at this size
PROB = SCFProblem(nblocks=8, blocksize=4, decay=0.9)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(1, "x", (2, 3)) == stable_hash(1, "x", (2, 3))

    def test_distinct_keys(self):
        assert stable_hash(1, 2) != stable_hash(2, 1)

    def test_nonnegative_63bit(self):
        h = stable_hash("anything")
        assert 0 <= h < (1 << 63)


class TestProblem:
    def test_hamiltonian_symmetric(self):
        h = PROB.core_hamiltonian()
        assert np.allclose(h, h.T)
        assert h.shape == (32, 32)

    def test_screening_monotone_in_distance(self):
        # far-apart blocks should (on average) have smaller magnitudes
        near = np.mean([PROB.pair_magnitude(i, i) for i in range(8)])
        far = np.mean([PROB.pair_magnitude(i, (i + 7) % 8) for i in range(8)])
        assert far < near

    def test_significant_pairs_subset_of_all(self):
        sig = set(PROB.significant_pairs())
        assert sig <= set(PROB.all_pairs())
        assert 0 < len(sig) < len(PROB.all_pairs())

    def test_task_flops_irregular(self):
        sig = PROB.significant_pairs()
        costs = {PROB.task_flops(i, j) for (i, j) in sig}
        assert len(costs) > len(sig) // 2, "costs should vary across pairs"

    def test_fock_linear_in_density(self):
        d1 = np.random.default_rng(0).random((4, 4))
        d2 = np.random.default_rng(1).random((4, 4))
        f1 = PROB.fock_block(1, 2, d1, d2)
        f2 = PROB.fock_block(1, 2, 2 * d1, 2 * d2)
        h = PROB.core_hamiltonian()[PROB.block_slice(1), PROB.block_slice(2)]
        assert np.allclose(f2 - h, 2 * (f1 - h))

    def test_density_trace_preserved(self):
        d = PROB.initial_density()
        f = build_fock_sequential(PROB, d)
        d2 = PROB.next_density(f, d, damping=0.0)
        assert np.trace(d2) == pytest.approx(2.0 * PROB.occupied())


class TestSequential:
    def test_energies_deterministic(self):
        assert run_scf_sequential(PROB, 3) == run_scf_sequential(PROB, 3)

    def test_energy_decreases_initially(self):
        e = run_scf_sequential(PROB, 4)
        assert e[1] < e[0]


class TestParallelSCF:
    @pytest.mark.parametrize("nprocs", [1, 3, 6])
    def test_scioto_matches_sequential(self, nprocs):
        seq = run_scf_sequential(PROB, 2)
        r = run_scf_scioto(nprocs, PROB, iterations=2, max_events=10_000_000)
        assert np.allclose(r.energies, seq, atol=1e-10)

    @pytest.mark.parametrize("nprocs", [1, 3, 6])
    def test_original_matches_sequential(self, nprocs):
        seq = run_scf_sequential(PROB, 2)
        r = run_scf_original(nprocs, PROB, iterations=2, max_events=10_000_000)
        assert np.allclose(r.energies, seq, atol=1e-10)

    def test_schedule_invariance_across_seeds(self):
        a = run_scf_scioto(4, PROB, iterations=2, seed=1, max_events=10_000_000)
        b = run_scf_scioto(4, PROB, iterations=2, seed=99, max_events=10_000_000)
        assert np.allclose(a.energies, b.energies, atol=1e-10)

    def test_heterogeneous_machine_correct(self):
        seq = run_scf_sequential(PROB, 2)
        r = run_scf_scioto(
            4, PROB, iterations=2, machine=heterogeneous_cluster(4),
            max_events=10_000_000,
        )
        assert np.allclose(r.energies, seq, atol=1e-10)

    def test_no_split_correct(self):
        seq = run_scf_sequential(PROB, 2)
        r = run_scf_scioto(
            3, PROB, iterations=2, config=SciotoConfig(split_queues=False),
            max_events=10_000_000,
        )
        assert np.allclose(r.energies, seq, atol=1e-10)

    def test_result_metadata(self):
        r = run_scf_scioto(2, PROB, iterations=3, max_events=10_000_000)
        assert r.mode == "scioto"
        assert r.iterations == 3
        assert len(r.energies) == 3
        assert 0 < r.fock_time <= r.elapsed


class TestConvergence:
    def test_sequential_early_stop(self):
        full = run_scf_sequential(PROB, iterations=20)
        conv = run_scf_sequential(PROB, iterations=20, convergence=1e-2)
        assert len(conv) < 20
        assert abs(conv[-1] - conv[-2]) < 1e-2
        assert conv == full[: len(conv)]

    def test_parallel_matches_sequential_under_convergence(self):
        seq = run_scf_sequential(PROB, iterations=20, convergence=1e-2)
        r = run_scf_scioto(3, PROB, iterations=20, convergence=1e-2,
                           max_events=20_000_000)
        o = run_scf_original(2, PROB, iterations=20, convergence=1e-2,
                             max_events=20_000_000)
        assert np.allclose(r.energies, seq, atol=1e-10)
        assert np.allclose(o.energies, seq, atol=1e-10)
        assert r.iterations == len(seq)


def _count_next_density(monkeypatch) -> list[int]:
    calls = [0]
    solve = SCFProblem.next_density

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SCFProblem, "next_density", counted)
    return calls


class TestSharedEigensolve:
    """The replicated density update is solved once per iteration."""

    @pytest.mark.parametrize("convergence", [None, 1e-2])
    def test_one_solve_per_iteration_and_no_slot_left(self, monkeypatch, convergence):
        calls = _count_next_density(monkeypatch)
        engines = []
        r = run_scf_scioto(4, PROB, iterations=20 if convergence else 3,
                           convergence=convergence, engine_hook=engines.append,
                           max_events=20_000_000)
        seq = run_scf_sequential(PROB, iterations=20 if convergence else 3,
                                 convergence=convergence)
        assert len(r.energies) == len(seq)
        assert np.allclose(r.energies, seq, atol=1e-10)
        # the last iteration of a converged run stops before the update
        solves = len(seq) - 1 if convergence else len(seq)
        assert calls[0] == 2 * solves  # parallel + sequential
        assert not engines[0].state.get(parallel._DENSITY_SLOTS)

    def test_differing_inputs_solve_separately(self, monkeypatch):
        calls = _count_next_density(monkeypatch)
        nprocs = 3
        proc = SimpleNamespace(engine=SimpleNamespace(state={}), nprocs=nprocs)
        d = PROB.initial_density()
        focks = [build_fock_sequential(PROB, d * (1.0 + 0.1 * r)) for r in range(nprocs)]
        outs = [parallel._replicated_density(proc, PROB, 0, f, d) for f in focks]
        assert calls[0] == nprocs
        for f, out in zip(focks, outs):
            assert np.array_equal(out, PROB.next_density(f, d))
        assert not proc.engine.state[parallel._DENSITY_SLOTS]


def test_shared_and_cached_arrays_are_read_only():
    """An in-place update by one caller must not corrupt later runs."""
    scf = SCFProblem(nblocks=4, blocksize=3)
    tce = TCEProblem(nblocks=3, blocksize=4)
    proc = SimpleNamespace(engine=SimpleNamespace(state={}), nprocs=2)
    d = scf.initial_density()
    shared = parallel._replicated_density(proc, scf, 0, build_fock_sequential(scf, d), d)
    for arr in [scf.core_hamiltonian(), *scf.coupling(0, 1), tce.dense_a(), tce.dense_b(), shared]:
        with pytest.raises(ValueError):
            arr += 1.0

"""Tests for the TCE block-sparse contraction kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.tce import (
    TCEProblem,
    contract_sequential,
    run_tce_original,
    run_tce_scioto,
)
from repro.core import SciotoConfig
from repro.sim.machines import heterogeneous_cluster

PROB = TCEProblem(nblocks=6, blocksize=8, density=0.4, seed=3)


class TestProblem:
    def test_masks_deterministic(self):
        a = TCEProblem(nblocks=6, blocksize=8, density=0.4, seed=3)
        assert PROB.nonzero_triples() == a.nonzero_triples()

    def test_density_validation(self):
        with pytest.raises(ValueError):
            TCEProblem(density=0.0)
        with pytest.raises(ValueError):
            TCEProblem(density=1.5)

    def test_nonzero_triples_subset(self):
        nz = PROB.nonzero_triples()
        assert 0 < len(nz) < len(PROB.all_triples())
        for i, j, k in nz:
            assert PROB.nonzero_a(i, k) and PROB.nonzero_b(k, j)

    def test_masked_blocks_are_zero(self):
        found_zero = found_nonzero = False
        for i in range(PROB.nblocks):
            for k in range(PROB.nblocks):
                blk = PROB.block_a(i, k)
                if PROB.nonzero_a(i, k):
                    assert np.any(blk != 0)
                    found_nonzero = True
                else:
                    assert np.all(blk == 0)
                    found_zero = True
        assert found_zero and found_nonzero

    def test_dense_assembly_shape(self):
        assert PROB.dense_a().shape == (48, 48)

    def test_full_density_gives_dense_product(self):
        p = TCEProblem(nblocks=3, blocksize=4, density=1.0, seed=1)
        assert len(p.nonzero_triples()) == 27


class TestParallelTCE:
    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_scioto_matches_reference(self, nprocs):
        ref = contract_sequential(PROB)
        r = run_tce_scioto(nprocs, PROB, max_events=10_000_000)
        assert np.allclose(r.result, ref, atol=1e-10)

    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_original_matches_reference(self, nprocs):
        ref = contract_sequential(PROB)
        r = run_tce_original(nprocs, PROB, max_events=10_000_000)
        assert np.allclose(r.result, ref, atol=1e-10)

    def test_schedule_invariance(self):
        a = run_tce_scioto(4, PROB, seed=1, max_events=10_000_000)
        b = run_tce_scioto(4, PROB, seed=42, max_events=10_000_000)
        assert np.allclose(a.result, b.result, atol=1e-12)

    def test_heterogeneous_correct(self):
        ref = contract_sequential(PROB)
        r = run_tce_scioto(4, PROB, machine=heterogeneous_cluster(4),
                           max_events=10_000_000)
        assert np.allclose(r.result, ref, atol=1e-10)

    def test_no_split_correct(self):
        ref = contract_sequential(PROB)
        r = run_tce_scioto(3, PROB, config=SciotoConfig(split_queues=False),
                           max_events=10_000_000)
        assert np.allclose(r.result, ref, atol=1e-10)

    def test_counter_claims_exceed_real_tasks(self):
        """The original scheme's defining overhead: claims for zero blocks.

        Every triple — zero or not — costs one atomic counter claim, so
        the rmw count must reach the full triple count even though only a
        fraction of triples carry real work.
        """
        r = run_tce_original(3, PROB, max_events=10_000_000)
        assert r.tasks_real < len(PROB.all_triples())


class TestMatmulExample:
    def test_matmul_matches_numpy(self):
        import numpy as np
        from repro.apps.matmul import run_matmul

        rng = np.random.default_rng(5)
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        r = run_matmul(4, a, b, num_blocks=4, max_events=5_000_000)
        assert np.allclose(r.c, a @ b, atol=1e-10)

    def test_matmul_validation(self):
        import numpy as np
        from repro.apps.matmul import run_matmul

        a = np.ones((10, 10))
        with pytest.raises(ValueError, match="divisible"):
            run_matmul(2, a, a, num_blocks=3)
        with pytest.raises(ValueError, match="square"):
            run_matmul(2, np.ones((4, 6)), np.ones((4, 6)))
        for bad in (0, -1, -2):
            with pytest.raises(ValueError, match="num_blocks"):
                run_matmul(2, a, a, num_blocks=bad)

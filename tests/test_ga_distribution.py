"""Tests for block distributions, including property-based coverage."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import distribution
from repro.ga.distribution import BlockDistribution, factor_grid


class TestFactorGrid:
    def test_examples(self):
        assert factor_grid(12, 2) == (4, 3)
        assert factor_grid(8, 3) == (2, 2, 2)
        assert factor_grid(1, 2) == (1, 1)
        assert factor_grid(7, 2) == (7, 1)

    @given(st.integers(1, 256), st.integers(1, 4))
    def test_product_equals_nprocs(self, nprocs, ndims):
        grid = factor_grid(nprocs, ndims)
        assert len(grid) == ndims
        assert int(np.prod(grid)) == nprocs


class TestBlockDistribution:
    def test_patches_partition_the_array(self):
        dist = BlockDistribution((10, 7), 6)
        covered = np.zeros((10, 7), dtype=int)
        for rank in range(6):
            lo, hi = dist.patch(rank)
            covered[lo[0] : hi[0], lo[1] : hi[1]] += 1
        assert (covered == 1).all()

    def test_locate_matches_patch(self):
        dist = BlockDistribution((9, 9), 4)
        for i in range(9):
            for j in range(9):
                rank = dist.locate((i, j))
                lo, hi = dist.patch(rank)
                assert lo[0] <= i < hi[0] and lo[1] <= j < hi[1]

    def test_locate_out_of_bounds(self):
        dist = BlockDistribution((4, 4), 2)
        with pytest.raises(IndexError):
            dist.locate((4, 0))
        with pytest.raises(IndexError):
            dist.locate((0, -1))

    def test_patches_intersecting_covers_box_exactly(self):
        dist = BlockDistribution((8, 8), 4)
        covered = np.zeros((8, 8), dtype=int)
        for rank, (plo, phi) in dist.patches_intersecting((1, 2), (7, 8)):
            lo, hi = dist.patch(rank)
            assert all(l <= p for l, p in zip(lo, plo))
            assert all(p <= h for p, h in zip(phi, hi))
            covered[plo[0] : phi[0], plo[1] : phi[1]] += 1
        expect = np.zeros((8, 8), dtype=int)
        expect[1:7, 2:8] = 1
        assert (covered == expect).all()

    def test_patches_intersecting_rejects_bad_box(self):
        dist = BlockDistribution((4, 4), 2)
        with pytest.raises(IndexError):
            list(dist.patches_intersecting((0, 0), (5, 4)))
        with pytest.raises(IndexError):
            list(dist.patches_intersecting((2, 0), (2, 4)))  # empty box

    def test_wrong_length_index_rejected(self):
        dist = BlockDistribution((4, 4), 2)
        for bad in [(3,), (0, 0, 0)]:
            with pytest.raises(IndexError, match=r"\(4, 4\)") as info:
                dist.locate(bad)
            assert str(bad) in str(info.value)

    def test_wrong_length_box_rejected(self):
        dist = BlockDistribution((4, 4), 2)
        with pytest.raises(IndexError, match=r"\(0, 0, 0\).*\(4, 4\)"):
            dist.patches_intersecting((0, 0, 0), (2, 2, 2))
        with pytest.raises(IndexError, match=r"\(2,\).*\(4, 4\)"):
            dist.patches_intersecting((0, 0), (2,))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            BlockDistribution((0, 4), 2)

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        nprocs=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    def test_property_partition_and_locate_consistent(self, shape, nprocs, seed):
        """Patches tile the array; locate agrees with the tiling; every
        intersect query returns exactly the requested box."""
        dist = BlockDistribution(shape, nprocs)
        covered = np.full(shape, -1, dtype=int)
        for rank in range(nprocs):
            lo, hi = dist.patch(rank)
            sl = tuple(slice(l, h) for l, h in zip(lo, hi))
            assert (covered[sl] == -1).all()
            covered[sl] = rank
        assert (covered >= 0).all()
        rng = np.random.default_rng(seed)
        idx = tuple(int(rng.integers(0, s)) for s in shape)
        assert dist.locate(idx) == covered[idx]
        # random sub-box is covered exactly once by intersections
        lo = tuple(int(rng.integers(0, s)) for s in shape)
        hi = tuple(int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, shape))
        hits = np.zeros(shape, dtype=int)
        for _rank, (plo, phi) in dist.patches_intersecting(lo, hi):
            hits[tuple(slice(a, b) for a, b in zip(plo, phi))] += 1
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        assert (hits[box] == 1).all()
        hits[box] = 0
        assert (hits == 0).all()


def _brute_owners(shape: tuple[int, ...], nprocs: int) -> np.ndarray:
    """Owner of every element, from np.array_split chunks of each dimension."""
    grid = factor_grid(nprocs, len(shape))
    coords = []
    for extent, g in zip(shape, grid):
        chunk_of = np.empty(extent, dtype=int)
        for c, part in enumerate(np.array_split(np.arange(extent), g)):
            chunk_of[part] = c
        coords.append(chunk_of)
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.ravel_multi_index(tuple(mesh), grid)


@st.composite
def _layouts(draw):
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    # up to twice the element count, so some layouts have empty patches
    nprocs = draw(st.integers(1, min(2 * int(np.prod(shape)), 40)))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = tuple(draw(st.integers(0, s - 1)) for s in shape)
        hi = tuple(draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
        boxes.append((lo, hi))
    return shape, nprocs, boxes


@settings(max_examples=120, deadline=None)
@given(_layouts())
def test_property_matches_brute_force_owner_map(layout):
    """Pieces partition each box and lie in their owner's patch, and
    locate agrees with a brute-force owner map, also across memo resets."""
    shape, nprocs, boxes = layout
    owners = _brute_owners(shape, nprocs)
    with mock.patch.object(distribution, "BOX_MEMO_CAP", 2):
        dist = BlockDistribution(shape, nprocs)
        for idx in np.ndindex(*shape):
            assert dist.locate(idx) == owners[idx]
        # every box twice: the second pass reads the memo, or recomputes
        # after the memo was emptied at its cap
        for lo, hi in boxes + boxes:
            hits = np.zeros(shape, dtype=int)
            for rank, (plo, phi) in dist.patches_intersecting(lo, hi):
                piece = tuple(slice(a, b) for a, b in zip(plo, phi))
                assert (owners[piece] == rank).all()
                olo, ohi = dist.patch(rank)
                assert all(o <= a and b <= p for o, a, b, p in zip(olo, plo, phi, ohi))
                hits[piece] += 1
            expect = np.zeros(shape, dtype=int)
            expect[tuple(slice(a, b) for a, b in zip(lo, hi))] = 1
            assert (hits == expect).all()
            assert len(dist._boxes) <= 2

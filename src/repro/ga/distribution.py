"""Block distribution of dense N-d arrays over a process grid.

Follows GA's default strategy: factor the process count into a grid as
square as possible, split each dimension into contiguous near-equal
chunks, and give each rank one rectangular patch.

Ownership lookups are plain-int arithmetic: each dimension keeps its
chunk bounds as an int tuple, an index's grid coordinate is a
``bisect`` into them, and the owning rank is the row-major stride sum
of the coordinates.  Patches are a per-rank table built once, and the
owner pieces of a box are memoized per distinct ``(lo, hi)``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence

__all__ = ["BlockDistribution", "factor_grid"]

#: Distinct boxes whose owner pieces one distribution remembers; the
#: memo is emptied when it reaches this size, so programs that touch
#: many different boxes stay bounded in memory.
BOX_MEMO_CAP = 4096

Box = tuple[tuple[int, ...], tuple[int, ...]]


def factor_grid(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nprocs`` into an ``ndims``-dimensional grid, most-square first.

    Example:
        >>> factor_grid(12, 2)
        (4, 3)
        >>> factor_grid(8, 3)
        (2, 2, 2)
    """
    grid = [1] * ndims
    # Peel prime factors largest-first onto the currently-smallest grid dim.
    factors: list[int] = []
    n = nprocs
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        grid[grid.index(min(grid))] *= f
    return tuple(sorted(grid, reverse=True))


class BlockDistribution:
    """Maps array indices to owning ranks and back.

    Attributes:
        shape: Global array shape.
        nprocs: Number of ranks sharing the array.
        grid: Process grid (one extent per array dimension).
    """

    def __init__(self, shape: Sequence[int], nprocs: int) -> None:
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"invalid shape {shape!r}")
        self.nprocs = nprocs
        self.grid = factor_grid(nprocs, len(self.shape))
        # Per-dimension chunk boundaries, e.g. (0, 3, 6, 8) for extent 8 / grid 3,
        # with np.array_split semantics: the first chunks are one element larger.
        bounds = []
        for extent, g in zip(self.shape, self.grid):
            base, rem = divmod(extent, g)
            bounds.append(tuple(itertools.accumulate(
                (base + (1 if i < rem else 0) for i in range(g)), initial=0
            )))
        self._bounds = tuple(bounds)
        # Row-major strides of the process grid: rank = sum(coord * stride).
        strides = [1] * len(self.grid)
        for d in range(len(self.grid) - 2, -1, -1):
            strides[d] = strides[d + 1] * self.grid[d + 1]
        self._strides = tuple(strides)
        # itertools.product enumerates grid coordinates in row-major
        # (rank) order, so the table is indexed by rank.
        self._patches: tuple[Box, ...] = tuple(
            (
                tuple(b[c] for b, c in zip(self._bounds, coords)),
                tuple(b[c + 1] for b, c in zip(self._bounds, coords)),
            )
            for coords in itertools.product(*(range(g) for g in self.grid))
        )
        self._boxes: dict[Box, tuple[tuple[int, Box], ...]] = {}

    # ------------------------------------------------------------------ #
    def _check_ndim(self, what: str, index: Sequence[int]) -> None:
        if len(index) != len(self.shape):
            raise IndexError(
                f"{what} {tuple(index)} has {len(index)} coordinates; "
                f"the array has shape {self.shape}"
            )

    def patch(self, rank: int) -> Box:
        """Return the ``(lo, hi)`` patch owned by ``rank`` (hi exclusive).

        When ranks outnumber the elements of a dimension, the trailing
        ranks along it own empty patches (``lo == hi``).
        """
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range for {self.nprocs} ranks")
        return self._patches[rank]

    def locate(self, index: Sequence[int]) -> int:
        """Rank owning element ``index``."""
        self._check_ndim("index", index)
        rank = 0
        for i, extent, bounds, stride in zip(index, self.shape, self._bounds, self._strides):
            if not 0 <= i < extent:
                raise IndexError(f"index {tuple(index)} out of bounds for {self.shape}")
            rank += (bisect_right(bounds, i) - 1) * stride
        return rank

    def patches_intersecting(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> tuple[tuple[int, Box], ...]:
        """The ``(rank, (plo, phi))`` owner pieces of the box [lo, hi).

        ``(plo, phi)`` is the overlapping sub-box in global coordinates;
        pieces come in row-major rank order.
        """
        key = (tuple(lo), tuple(hi))
        pieces = self._boxes.get(key)
        if pieces is None:
            pieces = self._pieces(*key)
            if len(self._boxes) >= BOX_MEMO_CAP:
                self._boxes.clear()
            self._boxes[key] = pieces
        return pieces

    def _pieces(self, lo: tuple, hi: tuple) -> tuple[tuple[int, Box], ...]:
        self._check_ndim("box lo", lo)
        self._check_ndim("box hi", hi)
        lo = tuple(int(x) for x in lo)
        hi = tuple(int(x) for x in hi)
        # per-dim range of grid coordinates touched
        coord_ranges = []
        for l, h, extent, bounds in zip(lo, hi, self.shape, self._bounds):
            if not 0 <= l < h <= extent:
                raise IndexError(f"patch [{lo}, {hi}) out of bounds for {self.shape}")
            coord_ranges.append(range(bisect_right(bounds, l) - 1, bisect_right(bounds, h - 1)))
        pieces = []
        for coords in itertools.product(*coord_ranges):
            rank = sum(c * s for c, s in zip(coords, self._strides))
            plo = tuple(max(l, b[c]) for l, b, c in zip(lo, self._bounds, coords))
            phi = tuple(min(h, b[c + 1]) for h, b, c in zip(hi, self._bounds, coords))
            pieces.append((rank, (plo, phi)))
        return tuple(pieces)

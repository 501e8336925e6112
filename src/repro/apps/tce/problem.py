"""Block-sparse tensor contraction problem definition.

A deterministic instance of ``C = A @ B`` where A and B are block
matrices over an ``nblocks x nblocks`` grid of ``blocksize``-square
blocks, and each block is nonzero with probability ``density``
(independently, from a seeded RNG).  The nonzero masks are replicated
metadata — exactly how block-sparse tensor runtimes store them — so any
rank can test a block for zero locally, but the block *data* lives in
Global Arrays.

The contraction work list is the set of triples ``(i, j, k)`` with
``A[i,k]`` and ``B[k,j]`` both nonzero; its size concentrates around
``nblocks^3 * density^2``, a small fraction of the ``nblocks^3`` triples
the original counter scheme enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.scf.problem import stable_hash
from repro.util.errors import check_domain

__all__ = ["TCEProblem"]


@dataclass
class TCEProblem:
    """A deterministic block-sparse contraction instance.

    Attributes:
        nblocks: Blocks per matrix dimension.
        blocksize: Edge length of one square block.
        density: Probability that a block of A (or B) is nonzero.
        seed: Seed for masks and block contents.
    """

    nblocks: int = 12
    blocksize: int = 16
    density: float = 0.25
    seed: int = 11
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_domain(0.0 < self.density <= 1.0, "density", "in (0, 1]", self.density)

    @property
    def n(self) -> int:
        """Full matrix dimension."""
        return self.nblocks * self.blocksize

    # ------------------------------------------------------------------ #
    # Replicated sparsity metadata
    # ------------------------------------------------------------------ #
    def _mask(self, which: str) -> np.ndarray:
        key = ("mask", which)
        if key not in self._cache:
            rng = np.random.default_rng(stable_hash(self.seed, "mask", which))
            self._cache[key] = rng.random((self.nblocks, self.nblocks)) < self.density
        return self._cache[key]

    def nonzero_a(self, i: int, k: int) -> bool:
        return bool(self._mask("A")[i, k])

    def nonzero_b(self, k: int, j: int) -> bool:
        return bool(self._mask("B")[k, j])

    def all_triples(self) -> list[tuple[int, int, int]]:
        """Every (i, j, k) triple — the original code's counter domain."""
        nb = self.nblocks
        return [(i, j, k) for i in range(nb) for j in range(nb) for k in range(nb)]

    def nonzero_triples(self) -> tuple[tuple[int, int, int], ...]:
        """Triples with real work, in deterministic order."""
        if "triples" not in self._cache:
            a, b = self._mask("A"), self._mask("B")
            self._cache["triples"] = tuple(
                (i, j, k) for i, j, k in self.all_triples() if a[i, k] and b[k, j]
            )
        return self._cache["triples"]

    # ------------------------------------------------------------------ #
    # Deterministic block data
    # ------------------------------------------------------------------ #
    def block_a(self, i: int, k: int) -> np.ndarray:
        """Contents of A's block (i, k); zeros when masked out."""
        b = self.blocksize
        if not self.nonzero_a(i, k):
            return np.zeros((b, b))
        rng = np.random.default_rng(stable_hash(self.seed, "A", i, k))
        return rng.standard_normal((b, b)) / np.sqrt(self.n)

    def block_b(self, k: int, j: int) -> np.ndarray:
        """Contents of B's block (k, j); zeros when masked out."""
        b = self.blocksize
        if not self.nonzero_b(k, j):
            return np.zeros((b, b))
        rng = np.random.default_rng(stable_hash(self.seed, "B", k, j))
        return rng.standard_normal((b, b)) / np.sqrt(self.n)

    def dense_a(self) -> np.ndarray:
        """A assembled densely (reference / GA initialization); read-only."""
        return self._assemble("A", self.block_a)

    def dense_b(self) -> np.ndarray:
        """B assembled densely; read-only."""
        return self._assemble("B", self.block_b)

    def _assemble(self, which: str, block_fn) -> np.ndarray:
        key = ("dense", which)
        if key not in self._cache:
            n, b = self.n, self.blocksize
            out = np.zeros((n, n))
            for i in range(self.nblocks):
                for j in range(self.nblocks):
                    out[i * b : (i + 1) * b, j * b : (j + 1) * b] = block_fn(i, j)
            out.setflags(write=False)
            self._cache[key] = out
        return self._cache[key]

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def gemm_flops(self) -> float:
        """Flops of one block GEMM (C block += A block @ B block)."""
        return 2.0 * self.blocksize**3

    def triple_scan_flops(self) -> float:
        """Flops spent discovering that a claimed triple is zero."""
        return 40.0

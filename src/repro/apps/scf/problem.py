"""Synthetic SCF problem definition: blocks, screening, and block kernels.

Models a chain "molecule": ``nblocks`` atom blocks of ``blocksize``
basis functions each.  Pair magnitudes decay exponentially with chain
distance, so distant block pairs fall below the Schwarz-style screening
threshold and contribute nothing — the sparsity + irregularity source
the paper's SCF exhibits.

The two-electron contribution is modelled by a *linear-in-D* block
kernel (Fock matrices are linear in the density): for the block pair
``(i, j)``::

    F_ij = H_ij + M_ij * D_ij + N_ij * D_ji^T        (elementwise)

with deterministic coupling matrices ``M``/``N`` scaled by the pair
magnitude.  This preserves everything the runtime sees — which D blocks
a task reads, which F block it writes, how much it computes — while
keeping the arithmetic verifiable against a sequential reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SCFProblem", "stable_hash"]


def stable_hash(*key: object) -> int:
    """A process-independent 63-bit hash (builtin ``hash`` is salted)."""
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1

#: Flops charged per matrix element of a significant Fock block task.
#: This stands in for contracted Gaussian integral evaluation, which in a
#: real SCF costs thousands of flops per Fock element (quartic in the
#: primitive count) and dominates the runtime; the pair weight makes it
#: irregular across blocks.
FLOPS_PER_ELEMENT = 15_000.0

#: Flops charged for screening out an insignificant pair.
SCREEN_FLOPS = 2_000.0


@dataclass
class SCFProblem:
    """A deterministic synthetic closed-shell SCF instance.

    Attributes:
        nblocks: Number of atom blocks along each matrix dimension.
        blocksize: Basis functions per block (``nbf = nblocks * blocksize``).
        screen_threshold: Pairs with magnitude below this are skipped.
        decay: Exponential decay rate of pair magnitude with distance.
        nocc: Occupied orbitals; defaults to ``nbf // 4``.
        seed: Seed for all deterministic synthetic data.
    """

    nblocks: int = 16
    blocksize: int = 6
    screen_threshold: float = 0.02
    decay: float = 0.45
    nocc: int | None = None
    seed: int = 7
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def nbf(self) -> int:
        return self.nblocks * self.blocksize

    def occupied(self) -> int:
        return self.nocc if self.nocc is not None else max(1, self.nbf // 4)

    # ------------------------------------------------------------------ #
    # Deterministic data
    # ------------------------------------------------------------------ #
    def _rng(self, *key) -> np.random.Generator:
        return np.random.default_rng(stable_hash(self.seed, *key))

    def core_hamiltonian(self) -> np.ndarray:
        """Symmetric, diagonally dominant core Hamiltonian (replicated)."""
        if "H" not in self._cache:
            rng = self._rng("H")
            a = rng.standard_normal((self.nbf, self.nbf))
            h = -0.5 * (a + a.T) / np.sqrt(self.nbf)
            h -= np.diag(1.0 + rng.random(self.nbf))
            h.setflags(write=False)
            self._cache["H"] = h
        return self._cache["H"]

    def _magnitudes(self) -> list[list[float]]:
        """The ``nblocks x nblocks`` table of pair magnitudes, built once."""
        if "mag" not in self._cache:
            nb = self.nblocks
            table = [[0.0] * nb for _ in range(nb)]
            for i in range(nb):
                for j in range(i, nb):
                    base = float(np.exp(-self.decay * abs(i - j)))
                    jitter = 0.5 + (stable_hash(self.seed, "mag", i, j) % 1000) / 1000.0
                    table[i][j] = table[j][i] = base * jitter
            self._cache["mag"] = table
        return self._cache["mag"]

    def pair_magnitude(self, i: int, j: int) -> float:
        """Schwarz-style magnitude of block pair ``(i, j)``."""
        return self._magnitudes()[i][j]

    def significant(self, i: int, j: int) -> bool:
        """Whether the pair survives screening."""
        return self._magnitudes()[i][j] >= self.screen_threshold

    def significant_pairs(self) -> list[tuple[int, int]]:
        """All ordered significant block pairs, in deterministic order."""
        return [
            (i, j)
            for i in range(self.nblocks)
            for j in range(self.nblocks)
            if self.significant(i, j)
        ]

    def all_pairs(self) -> list[tuple[int, int]]:
        """Every ordered block pair — the original code's replicated task list."""
        return [(i, j) for i in range(self.nblocks) for j in range(self.nblocks)]

    def coupling(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic coupling matrices ``(M_ij, N_ij)`` for a block pair."""
        key = ("C", i, j)
        if key not in self._cache:
            rng = self._rng("coupling", i, j)
            mag = self.pair_magnitude(i, j)
            b = self.blocksize
            m = mag * 0.2 * rng.standard_normal((b, b)) / np.sqrt(self.nbf)
            n = mag * 0.2 * rng.standard_normal((b, b)) / np.sqrt(self.nbf)
            m.setflags(write=False)
            n.setflags(write=False)
            self._cache[key] = (m, n)
        return self._cache[key]

    # ------------------------------------------------------------------ #
    # Block kernels (single source of truth for parallel + sequential)
    # ------------------------------------------------------------------ #
    def block_slice(self, i: int) -> slice:
        return slice(i * self.blocksize, (i + 1) * self.blocksize)

    def fock_block(self, i: int, j: int, d_ij: np.ndarray, d_ji: np.ndarray) -> np.ndarray:
        """Compute the Fock block ``F_ij`` from the density blocks it reads."""
        h = self.core_hamiltonian()[self.block_slice(i), self.block_slice(j)]
        m, n = self.coupling(i, j)
        return h + m * d_ij + n * d_ji.T

    def task_flops(self, i: int, j: int) -> float:
        """Cost model of one Fock-block task (irregular across pairs)."""
        mag = self._magnitudes()[i][j]
        if mag < self.screen_threshold:
            return SCREEN_FLOPS
        weight = 0.25 + 2.0 * mag
        return FLOPS_PER_ELEMENT * weight * self.blocksize * self.blocksize

    # ------------------------------------------------------------------ #
    # Iteration-level math (shared by all drivers)
    # ------------------------------------------------------------------ #
    def initial_density(self) -> np.ndarray:
        """Superposition-of-atoms style diagonal guess."""
        occ = self.occupied()
        return np.eye(self.nbf) * (2.0 * occ / self.nbf)

    def next_density(self, fock: np.ndarray, d_old: np.ndarray, damping: float = 0.5) -> np.ndarray:
        """Diagonalize the (symmetrized) Fock matrix, rebuild and damp D."""
        f = 0.5 * (fock + fock.T)
        _, vecs = np.linalg.eigh(f)
        c_occ = vecs[:, : self.occupied()]
        d_new = 2.0 * c_occ @ c_occ.T
        return damping * d_old + (1.0 - damping) * d_new

    def energy(self, fock: np.ndarray, density: np.ndarray) -> float:
        """Electronic energy ``0.5 * sum(D * (H + F))``."""
        return 0.5 * float(np.sum(density * (self.core_hamiltonian() + fock)))

    #: Flops charged for the (replicated) diagonalization step.
    def diag_flops(self) -> float:
        return 10.0 * self.nbf**3

"""Distributed dense arrays with one-sided patch access (GA core).

A :class:`GlobalArray` is created collectively; each rank owns one
rectangular patch stored as a NumPy array.  ``get``/``put``/``acc`` move
arbitrary rectangular patches, touching every owning rank and charging
the machine-model cost of each transfer.  ``acc`` is atomic with respect
to other accumulates, matching GA semantics for Fock-matrix style
accumulation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.analyze import hooks
from repro.armci.runtime import Armci
from repro.ga.distribution import BlockDistribution
from repro.sim.engine import Engine, Proc
from repro.util.errors import CommError

__all__ = ["GaRuntime", "GlobalArray"]


class GaRuntime:
    """Engine-wide registry of global arrays (collective creation order)."""

    _KEY = "ga"

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.armci = Armci.attach(engine)
        self.arrays: list["GlobalArray"] = []
        # Per-rank count of create() calls: the n-th collective create on
        # every rank refers to the same array (SPMD programs create arrays
        # in the same order on all ranks).
        self._create_counts = [0] * engine.nprocs

    @classmethod
    def attach(cls, engine: Engine) -> "GaRuntime":
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine)
            engine.state[cls._KEY] = inst
        return inst


class GlobalArray:
    """A block-distributed dense array (the GA programming model).

    Use :meth:`create` collectively from every rank; all GA operations
    take the calling rank's :class:`Proc` so costs land on the right
    clock.
    """

    def __init__(
        self,
        runtime: GaRuntime,
        gid: int,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> None:
        self._runtime = runtime
        self.gid = gid
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.dist = BlockDistribution(shape, runtime.engine.nprocs)
        self._patches: list[np.ndarray] = []
        for rank in range(runtime.engine.nprocs):
            lo, hi = self.dist.patch(rank)
            self._patches.append(
                np.zeros([h - l for l, h in zip(lo, hi)], dtype=dtype)
            )

    # ------------------------------------------------------------------ #
    # Creation
    # ------------------------------------------------------------------ #
    @classmethod
    def co_create(
        cls,
        proc: Proc,
        name: str,
        shape: Sequence[int],
        dtype: Any = np.float64,
    ):
        """Collectively create a global array (call from every rank)."""
        rt = GaRuntime.attach(proc.engine)
        idx = rt._create_counts[proc.rank]
        rt._create_counts[proc.rank] += 1
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        yield from proc.co_sync()
        if idx == len(rt.arrays):
            rt.arrays.append(cls(rt, idx, name, shape, dtype))
        ga = rt.arrays[idx]
        if ga.shape != shape or ga.dtype != dtype:
            raise CommError(
                f"collective create mismatch on rank {proc.rank}: "
                f"{name}{shape} vs existing {ga.name}{ga.shape}"
            )
        yield from rt.armci.co_barrier(proc)
        return ga

    # ------------------------------------------------------------------ #
    # Ownership queries (no communication)
    # ------------------------------------------------------------------ #
    def locate(self, index: Sequence[int]) -> int:
        """Rank owning ``index`` (NGA_Locate)."""
        return self.dist.locate(index)

    def distribution(self, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ``(lo, hi)`` patch owned by ``rank`` (NGA_Distribution)."""
        return self.dist.patch(rank)

    def access(self, proc: Proc) -> np.ndarray:
        """Direct view of the calling rank's own patch (NGA_Access)."""
        # The view is writable, so model it as a write by the owner.
        hooks.shared_write(proc, ("ga", self.gid, proc.rank))
        return self._patches[proc.rank]

    # ------------------------------------------------------------------ #
    # One-sided patch operations
    # ------------------------------------------------------------------ #
    def _check_box(self, lo: Sequence[int], hi: Sequence[int]) -> tuple[tuple, tuple]:
        lo = tuple(int(x) for x in lo)
        hi = tuple(int(x) for x in hi)
        if len(lo) != len(self.shape) or len(hi) != len(self.shape):
            raise IndexError(f"box rank mismatch for array of shape {self.shape}")
        return lo, hi

    @staticmethod
    def _box_chunks(plo: tuple, phi: tuple) -> tuple[int, int]:
        """(elements, contiguous chunks) of a sub-box: rows are strided."""
        dims = [h - l for l, h in zip(plo, phi)]
        return math.prod(dims), max(1, math.prod(dims[:-1]))

    def co_get(self, proc: Proc, lo: Sequence[int], hi: Sequence[int]):
        """Fetch the patch ``[lo, hi)`` into a private buffer (NGA_Get).

        Transfers from distinct owners are issued as non-blocking strided
        gets and overlapped, as the real GA/ARMCI implementation does.
        """
        lo, hi = self._check_box(lo, hi)
        out = np.empty([h - l for l, h in zip(lo, hi)], dtype=self.dtype)
        armci = self._runtime.armci
        pending = []
        for rank, (plo, phi) in self.dist.patches_intersecting(lo, hi):
            elements, nchunks = self._box_chunks(plo, phi)
            handle = yield from armci.co_nbget(
                proc,
                rank,
                elements * self.dtype.itemsize,
                lambda r=rank, a=plo, b=phi: self._read(r, a, b),
                nchunks=nchunks,
            )
            pending.append((handle, plo, phi))
        for handle, plo, phi in pending:
            out[self._rel(lo, plo, phi)] = armci.wait(proc, handle)
        return out

    def co_put(self, proc: Proc, lo: Sequence[int], hi: Sequence[int], data: np.ndarray):
        """Store ``data`` into the patch ``[lo, hi)`` (NGA_Put); multi-owner
        transfers overlap like :meth:`get`."""
        lo, hi = self._check_box(lo, hi)
        data = np.ascontiguousarray(data, dtype=self.dtype).reshape(
            [h - l for l, h in zip(lo, hi)]
        )
        armci = self._runtime.armci
        pending = []
        for rank, (plo, phi) in self.dist.patches_intersecting(lo, hi):
            elements, nchunks = self._box_chunks(plo, phi)
            chunk = data[self._rel(lo, plo, phi)].copy()
            handle = yield from armci.co_nbput(
                proc,
                rank,
                elements * self.dtype.itemsize,
                lambda r=rank, a=plo, b=phi, c=chunk: self._write(r, a, b, c),
                nchunks=nchunks,
            )
            pending.append(handle)
        armci.wait_all(proc, pending)

    def co_acc(
        self,
        proc: Proc,
        lo: Sequence[int],
        hi: Sequence[int],
        data: np.ndarray,
        alpha: float = 1.0,
    ):
        """Atomically add ``alpha * data`` into the patch ``[lo, hi)`` (NGA_Acc)."""
        lo, hi = self._check_box(lo, hi)
        data = np.ascontiguousarray(data, dtype=self.dtype).reshape(
            [h - l for l, h in zip(lo, hi)]
        )
        for rank, (plo, phi) in self.dist.patches_intersecting(lo, hi):
            nbytes = math.prod(h - l for l, h in zip(plo, phi)) * self.dtype.itemsize
            chunk = data[self._rel(lo, plo, phi)].copy()
            yield from self._runtime.armci.co_acc(
                proc,
                rank,
                nbytes,
                lambda r=rank, a=plo, b=phi, c=chunk: self._accumulate(r, a, b, c, alpha),
            )

    def co_read_full(self, proc: Proc):
        """Fetch the whole array into a private buffer (charged get)."""
        return (yield from self.co_get(proc, [0] * len(self.shape), list(self.shape)))

    def co_sync(self, proc: Proc):
        """GA_Sync: fence + barrier."""
        yield from self._runtime.armci.co_barrier(proc)

    # ------------------------------------------------------------------ #
    # Test/debug access (no cost; safe only outside timed regions)
    # ------------------------------------------------------------------ #
    def unsafe_snapshot(self) -> np.ndarray:
        """Assemble the full array without charging costs (for assertions)."""
        out = np.empty(self.shape, dtype=self.dtype)
        for rank in range(self._runtime.engine.nprocs):
            lo, hi = self.dist.patch(rank)
            if all(h > l for l, h in zip(lo, hi)):
                out[tuple(slice(l, h) for l, h in zip(lo, hi))] = self._patches[rank]
        return out

    # ------------------------------------------------------------------ #
    # Patch index helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rel(base: tuple, plo: tuple, phi: tuple) -> tuple[slice, ...]:
        """Slices of the user buffer corresponding to global box [plo, phi)."""
        return tuple(slice(l - b, h - b) for b, l, h in zip(base, plo, phi))

    def _local_slices(self, rank: int, plo: tuple, phi: tuple) -> tuple[slice, ...]:
        lo, _ = self.dist.patch(rank)
        return tuple(slice(l - o, h - o) for o, l, h in zip(lo, plo, phi))

    # Race-detector granularity: block ops are keyed by the target
    # patch's box origin, so independent blocks landing on one owner's
    # patch do not alias.  Whole-patch ops (access/fill) keep the
    # coarser (gid, rank) region; they are barrier-bracketed by API
    # contract, so block-vs-patch overlap needs no conflict edge.
    def _read(self, rank: int, plo: tuple, phi: tuple) -> np.ndarray:
        hooks.shared_read(self._runtime.engine.current, ("ga", self.gid, rank, plo))
        return self._patches[rank][self._local_slices(rank, plo, phi)].copy()

    def _write(self, rank: int, plo: tuple, phi: tuple, chunk: np.ndarray) -> None:
        hooks.shared_write(self._runtime.engine.current, ("ga", self.gid, rank, plo))
        self._patches[rank][self._local_slices(rank, plo, phi)] = chunk

    def _accumulate(
        self, rank: int, plo: tuple, phi: tuple, chunk: np.ndarray, alpha: float
    ) -> None:
        hooks.shared_atomic(self._runtime.engine.current, ("ga", self.gid, rank, plo))
        self._patches[rank][self._local_slices(rank, plo, phi)] += alpha * chunk

"""Distributed dense arrays with one-sided patch access (GA core).

A :class:`GlobalArray` is created collectively; each rank owns one
rectangular patch stored as a NumPy array.  ``get``/``put``/``acc`` move
arbitrary rectangular patches, touching every owning rank and charging
the machine-model cost of each transfer.  ``acc`` is atomic with respect
to other accumulates, matching GA semantics for Fock-matrix style
accumulation.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from typing import Any

import numpy as np

from repro.armci.runtime import Armci
from repro.ga.distribution import BlockDistribution, Piece, Plan
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
        det = proc.engine.detector
        if det is not None:
            det.record(proc, ("ga", self.gid, proc.rank), "w")
        return self._patches[proc.rank]

    # ------------------------------------------------------------------ #
    # One-sided patch operations
    # ------------------------------------------------------------------ #
    def _plan(self, lo: Sequence[int], hi: Sequence[int]) -> Plan:
        lo, hi = tuple(lo), tuple(hi)
        if len(lo) != len(self.shape) or len(hi) != len(self.shape):
            raise IndexError(f"box rank mismatch for array of shape {self.shape}")
        return self.dist.plan(lo, hi)

    def _box_data(self, plan: Plan, data: Any) -> np.ndarray:
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != plan.shape:
            raise ValueError(
                f"data of shape {data.shape} does not match box of shape {plan.shape}"
            )
        return data

    def co_get(self, proc: Proc, lo: Sequence[int], hi: Sequence[int]):
        """Fetch the patch ``[lo, hi)`` into a private buffer (NGA_Get).

        Transfers from distinct owners are issued as non-blocking strided
        gets and overlapped, as the real GA/ARMCI implementation does.
        """
        plan = self._plan(lo, hi)
        armci = self._runtime.armci
        itemsize = self.dtype.itemsize
        pending = []
        for piece in plan.pieces:
            handle = yield from armci.co_nbget(
                proc,
                piece.rank,
                piece.elements * itemsize,
                partial(self._read, piece),
                nchunks=piece.nchunks,
            )
            pending.append(handle)
        if len(pending) == 1:
            # One owner: its copy of the block is the caller's buffer.
            return armci.wait(proc, pending[0])
        out = np.empty(plan.shape, dtype=self.dtype)
        for piece, handle in zip(plan.pieces, pending):
            out[piece.rel] = armci.wait(proc, handle)
        return out

    def co_put(self, proc: Proc, lo: Sequence[int], hi: Sequence[int], data: np.ndarray):
        """Store ``data`` into the patch ``[lo, hi)`` (NGA_Put); multi-owner
        transfers overlap like :meth:`get`."""
        plan = self._plan(lo, hi)
        data = self._box_data(plan, data)
        armci = self._runtime.armci
        itemsize = self.dtype.itemsize
        pending = []
        for piece in plan.pieces:
            handle = yield from armci.co_nbput(
                proc,
                piece.rank,
                piece.elements * itemsize,
                partial(self._write, piece, data[piece.rel].copy()),
                nchunks=piece.nchunks,
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
        plan = self._plan(lo, hi)
        data = self._box_data(plan, data)
        itemsize = self.dtype.itemsize
        for piece in plan.pieces:
            yield from self._runtime.armci.co_acc(
                proc,
                piece.rank,
                piece.elements * itemsize,
                partial(self._accumulate, piece, alpha * data[piece.rel]),
            )

    def co_read_full(self, proc: Proc):
        """Fetch the whole array into a private buffer (charged get)."""
        return (yield from self.co_get(proc, (0,) * len(self.shape), self.shape))

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
    # Owner-side effects (run by ARMCI when a transfer takes effect)
    # ------------------------------------------------------------------ #
    # Race-detector granularity: block ops are keyed by the target
    # patch's box origin, so independent blocks landing on one owner's
    # patch do not alias.  Whole-patch ops (access/fill) keep the
    # coarser (gid, rank) region; they are barrier-bracketed by API
    # contract, so block-vs-patch overlap needs no conflict edge.
    def _read(self, piece: Piece) -> np.ndarray:
        engine = self._runtime.engine
        det = engine.detector
        if det is not None:
            det.record(engine.current, ("ga", self.gid, piece.rank, piece.lo), "r")
        return self._patches[piece.rank][piece.local].copy()

    def _write(self, piece: Piece, chunk: np.ndarray) -> None:
        engine = self._runtime.engine
        det = engine.detector
        if det is not None:
            det.record(engine.current, ("ga", self.gid, piece.rank, piece.lo), "w")
        self._patches[piece.rank][piece.local] = chunk

    def _accumulate(self, piece: Piece, scaled: np.ndarray) -> None:
        engine = self._runtime.engine
        det = engine.detector
        if det is not None:
            det.record(engine.current, ("ga", self.gid, piece.rank, piece.lo), "a")
        self._patches[piece.rank][piece.local] += scaled

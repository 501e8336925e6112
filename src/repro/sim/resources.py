"""Virtual-time synchronization resources: mutexes and barriers.

These model the synchronization objects the communication layers are
built from.  A :class:`SimMutex` is held for *virtual* time — the
interval between the holder's acquire and release events — so lock
contention (e.g. a process stalled behind a thief manipulating its
queue, §5 of the paper) shows up in the measured timings exactly as it
would on the real machine.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.obs.record import causal_edge
from repro.obs.tracing import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc

__all__ = ["SimMutex", "SimBarrier"]


class SimMutex:
    """A mutex hosted on ``host_rank``, lockable from any rank.

    Acquiring from the host rank costs a local atomic
    (``local_lock_overhead``); acquiring from a remote rank costs a
    network round trip (``lock_time``).  Waiters queue FIFO and are
    granted the lock at the releaser's time plus a grant latency.
    """

    def __init__(self, engine: Engine, host_rank: int, name: str = "mutex") -> None:
        self.engine = engine
        self.host_rank = host_rank
        self.name = name
        self.holder: Proc | None = None
        self._waiters: deque[Proc] = deque()
        self.acquires = 0
        self.contended_acquires = 0
        self._acquired_at = 0.0  # holder's virtual acquire time (obs only)
        self._grant_src: tuple[int, float] | None = None  # releaser point (obs only)

    def _request_cost(self, proc: Proc) -> float:
        m = self.engine.machine
        return m.local_lock_overhead if proc.rank == self.host_rank else m.lock_time()

    def _release_cost(self, proc: Proc) -> float:
        m = self.engine.machine
        return m.local_lock_overhead if proc.rank == self.host_rank else m.unlock_time()

    def co_acquire(self, proc: Proc):
        """Block (in virtual time) until ``proc`` holds the mutex."""
        # Every observer sets Engine.observed when it attaches, so an
        # unobserved acquire/release skips the hook calls.
        engine = self.engine
        rec = engine.recorder
        t_req = proc.now
        proc.advance(self._request_cost(proc))
        yield from proc.co_sync()
        det = engine.detector
        if det is not None:
            # Pre-grant request: no yield happens between here and the
            # holder check below, so the detector's wait-for graph sees
            # exactly the park this call is about to commit to.
            det.on_mutex_request(proc, self)
        if self.holder is None:
            self.holder = proc
        else:
            self.contended_acquires += 1
            self._waiters.append(proc)
            yield from proc.co_park(f"mutex {self.name}@{self.host_rank}")
            assert self.holder is proc
            if rec is not None:
                rec.complete_span(
                    proc, f"lock-wait {self.name}", "lock", t_req, detail=self.name
                )
            # Only the proc the releaser just granted to runs here, so the
            # grant source written in release() is ours to consume.
            if self._grant_src is not None:
                causal_edge(proc, "lock", *self._grant_src, detail=self.name)
                self._grant_src = None
        if engine.observed:
            if det is not None:
                det.on_mutex_acquire(proc, self)
            trace(proc, "mutex-acq", self.name)
        self.acquires += 1
        if rec is not None:
            rec.metrics.observe("lock_wait", proc.now - t_req, rank=proc.rank)
            self._acquired_at = proc.now

    def co_release(self, proc: Proc):
        """Release the mutex and grant it to the next FIFO waiter, if any."""
        if self.holder is not proc:
            raise RuntimeError(f"rank {proc.rank} released {self.name} it does not hold")
        proc.advance(self._release_cost(proc))
        yield from proc.co_sync()
        engine = self.engine
        observed = engine.observed
        if observed:
            det = engine.detector
            if det is not None:
                det.on_mutex_release(proc, self)
            trace(proc, "mutex-rel", self.name)
            rec = engine.recorder
            if rec is not None:
                rec.metrics.observe(
                    "lock_hold", proc.now - self._acquired_at, rank=proc.rank
                )
        if self._waiters:
            nxt = self._waiters.popleft()
            self.holder = nxt
            if observed:
                self._grant_src = (proc.rank, proc.now)
            grant_latency = (
                engine.machine.local_lock_overhead
                if nxt.rank == self.host_rank
                else engine.machine.latency
            )
            engine.wake(nxt, proc.now + grant_latency)
        else:
            self.holder = None

    def locked(self) -> bool:
        return self.holder is not None


class SimBarrier:
    """A reusable (cyclic) barrier with an analytic completion-cost model.

    All ranks park until the last arrives; everyone is then released at
    ``t_last_arrival + cost_fn(nprocs)``.  The cost function encodes the
    algorithm being modelled (dissemination for MPI, tree gather/release
    for ARMCI) — Figure 4 compares these against Scioto's fully
    message-level termination detector.
    """

    def __init__(self, engine: Engine, nprocs: int, cost_fn) -> None:
        self.engine = engine
        self.nprocs = nprocs
        self.cost_fn = cost_fn
        self._arrived: list[Proc] = []
        self._generation = 0
        self.waits = 0

    def co_wait(self, proc: Proc):
        """Arrive at the barrier; returns when all ranks have arrived."""
        self.waits += 1
        yield from proc.co_sync()
        if self.nprocs == 1:
            proc.advance(self.cost_fn(1))
            return
        self._arrived.append(proc)
        if len(self._arrived) < self.nprocs:
            gen = self._generation
            yield from proc.co_park(f"barrier(gen={gen})")
            return
        # Last arrival: release everyone at the modelled completion time.
        release_at = proc.now + self.cost_fn(self.nprocs)
        waiters, self._arrived = self._arrived[:-1], []
        self._generation += 1
        det = self.engine.detector
        if det is not None:
            det.on_collective(waiters + [proc])
        for w in waiters:
            self.engine.wake(w, release_at)
        proc.advance(release_at - proc.now)
        yield from proc.co_sync()

"""The ARMCI runtime: one-sided operations, atomics, mutexes, messages.

One instance is attached per :class:`~repro.sim.engine.Engine`
(:meth:`Armci.attach`).  Data owned by each rank lives in ordinary
Python objects; the runtime's job is to (a) charge the machine-model
cost of each access, (b) serialize all shared accesses in virtual-time
order (via :meth:`Proc.co_sync`), and (c) model target-side effects such
as NIC atomic serialization and mutex contention.

The mutation/read of remote state is expressed as a closure passed to
:meth:`co_put` / :meth:`co_get` / :meth:`co_acc`, which runs exactly at the
virtual time the operation takes effect.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable
from typing import Any

from repro.obs.record import _NULL_SPAN, edge_recv, edge_send, span
from repro.sim.engine import Engine, Proc
from repro.sim.resources import SimBarrier, SimMutex
from repro.sim.counters import Counters
from repro.armci.collectives import armci_barrier_cost

__all__ = ["Armci", "NbHandle"]

#: Cost of checking the local mailbox for pending one-sided messages.
#: This is a local memory probe (a flag read), far cheaper than the
#: explicit network poll the MPI baseline needs.
MAILBOX_CHECK_COST = 0.05e-6

#: Wire size of a small control message (termination tokens, dirty marks).
CONTROL_MSG_BYTES = 64


class NbHandle:
    """Handle of an in-flight non-blocking one-sided operation.

    Created by :meth:`Armci.co_nbput` / :meth:`Armci.co_nbget`; pass it to
    :meth:`Armci.wait` to block (in virtual time) until the transfer
    completes.  ``value`` carries an nbget's result after completion.
    """

    __slots__ = ("complete_at", "value", "done")

    def __init__(self, complete_at: float, value: Any = None) -> None:
        self.complete_at = complete_at
        self.value = value
        self.done = False


class Armci:
    """Engine-wide ARMCI runtime state plus per-operation cost charging."""

    _KEY = "armci"

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.counters = Counters()
        # per-rank mailboxes: rank -> tag -> deque of (src, payload)
        self._mailboxes: list[dict[str, deque[tuple[int, Any]]]] = [
            defaultdict(deque) for _ in range(engine.nprocs)
        ]
        # (rank, tag) -> proc parked in wait_mailbox on that tag
        self._mail_waiters: dict[tuple[int, str], Proc] = {}
        # target-side serialization point for remote atomics (per rank)
        self._rmw_free_at = [0.0] * engine.nprocs
        self._barrier = SimBarrier(
            engine, engine.nprocs, lambda n: armci_barrier_cost(engine.machine, n)
        )
        self._collective_slot: list[Any] = []
        self._collective_parked: list[Proc] = []

    def _span(self, proc: Proc, name: str, arrow: str, target: int, nbytes: int | None):
        """A ``comm`` span of a remote op; unobserved, no detail is built."""
        if not self.engine.observed:
            return _NULL_SPAN
        detail = f"{arrow}{target}" if nbytes is None else f"{arrow}{target} {nbytes}B"
        return span(proc, name, "comm", detail=detail)

    @classmethod
    def attach(cls, engine: Engine) -> "Armci":
        """Return the engine's ARMCI runtime, creating it on first use."""
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine)
            engine.state[cls._KEY] = inst
        return inst

    # ------------------------------------------------------------------ #
    # One-sided data movement
    # ------------------------------------------------------------------ #
    def co_put(
        self,
        proc: Proc,
        target: int,
        nbytes: int,
        apply_fn: Callable[[], None] | None = None,
    ):
        """One-sided put of ``nbytes`` to ``target``; ``apply_fn`` mutates
        the target's state at the moment the data lands."""
        m = self.engine.machine
        if target == proc.rank:
            proc.advance(m.local_copy_time(nbytes))
            yield from proc.co_sync()
            if apply_fn is not None:
                apply_fn()
        else:
            with self._span(proc, "put", "->", target, nbytes):
                proc.advance(m.put_time(nbytes))
                self.counters.add(proc.rank, "put_remote")
                self.counters.add(proc.rank, "bytes_put", nbytes)
                yield from proc.co_sync()
                if apply_fn is not None:
                    apply_fn()
        det = self.engine.detector
        if det is not None:
            det.on_put(proc, target)

    def co_get(
        self,
        proc: Proc,
        target: int,
        nbytes: int,
        read_fn: Callable[[], Any] | None = None,
    ):
        """One-sided get of ``nbytes`` from ``target``; ``read_fn`` reads the
        target's state at request-arrival time and its result is returned
        once the response lands."""
        m = self.engine.machine
        if target == proc.rank:
            proc.advance(m.local_copy_time(nbytes))
            yield from proc.co_sync()
            return read_fn() if read_fn is not None else None
        with self._span(proc, "get", "<-", target, nbytes):
            proc.advance(m.latency)  # request travels to the target
            yield from proc.co_sync()
            value = read_fn() if read_fn is not None else None
            proc.advance(m.latency + nbytes / m.net_bandwidth)  # response + payload
            self.counters.add(proc.rank, "get_remote")
            self.counters.add(proc.rank, "bytes_get", nbytes)
        return value

    def co_acc(
        self,
        proc: Proc,
        target: int,
        nbytes: int,
        apply_fn: Callable[[], None],
    ):
        """Atomic accumulate (e.g. ``+=``) into ``target``'s memory.

        Charged like a put plus target-side combining time; consecutive
        accumulates to the same target serialize at the target, which is
        how accumulate hot spots behave on real NICs.
        """
        m = self.engine.machine
        if target == proc.rank:
            proc.advance(2.0 * m.local_copy_time(nbytes))  # read-modify-write locally
            yield from proc.co_sync()
            apply_fn()
            return
        with self._span(proc, "acc", "->", target, nbytes):
            proc.advance(m.put_time(nbytes))
            yield from proc.co_sync()
            service = max(proc.now, self._rmw_free_at[target])
            combine = nbytes / m.local_mem_bandwidth + m.rmw_overhead
            self._rmw_free_at[target] = service + combine
            apply_fn()
            proc.advance((service + combine) - proc.now)
            self.counters.add(proc.rank, "acc_remote")
            self.counters.add(proc.rank, "bytes_acc", nbytes)
        det = self.engine.detector
        if det is not None:
            det.on_put(proc, target)

    # ------------------------------------------------------------------ #
    # Non-blocking one-sided operations (ARMCI_NbPut / NbGet / Wait)
    # ------------------------------------------------------------------ #
    def co_nbput(
        self,
        proc: Proc,
        target: int,
        nbytes: int,
        apply_fn: Callable[[], None] | None = None,
        nchunks: int = 1,
    ):
        """Issue a non-blocking put; the initiator pays only the issue cost.

        The mutation is applied at issue-sync time (our serialization
        point); the transfer is complete — and the source buffer reusable
        — once :meth:`wait` returns.  Issuing several operations before
        waiting overlaps their network time, which is how GA moves
        multi-owner patches concurrently.
        """
        m = self.engine.machine
        if target == proc.rank:
            proc.advance(m.local_copy_time(nbytes))
            yield from proc.co_sync()
            if apply_fn is not None:
                apply_fn()
            return NbHandle(proc.now)
        proc.advance(m.nb_issue_overhead)
        yield from proc.co_sync()
        if apply_fn is not None:
            apply_fn()
        self.counters.add(proc.rank, "put_remote")
        self.counters.add(proc.rank, "bytes_put", nbytes)
        det = self.engine.detector
        if det is not None:
            det.on_put(proc, target)
        return NbHandle(proc.now + m.put_time(nbytes, nchunks))

    def co_nbget(
        self,
        proc: Proc,
        target: int,
        nbytes: int,
        read_fn: Callable[[], Any] | None = None,
        nchunks: int = 1,
    ):
        """Issue a non-blocking get; the value is valid after :meth:`wait`."""
        m = self.engine.machine
        if target == proc.rank:
            proc.advance(m.local_copy_time(nbytes))
            yield from proc.co_sync()
            value = read_fn() if read_fn is not None else None
            return NbHandle(proc.now, value)
        proc.advance(m.nb_issue_overhead + m.latency)  # issue + request travel
        yield from proc.co_sync()
        value = read_fn() if read_fn is not None else None
        self.counters.add(proc.rank, "get_remote")
        self.counters.add(proc.rank, "bytes_get", nbytes)
        complete = proc.now + m.latency + nbytes / m.net_bandwidth
        complete += (nchunks - 1) * m.stride_chunk_overhead
        return NbHandle(complete, value)

    def wait(self, proc: Proc, handle: NbHandle) -> Any:
        """Block (in virtual time) until ``handle``'s transfer completes."""
        handle.done = True
        if handle.complete_at > proc.now:
            proc.advance(handle.complete_at - proc.now)
        return handle.value

    def wait_all(self, proc: Proc, handles: list[NbHandle]) -> list[Any]:
        """Wait for a batch of non-blocking operations; returns their values."""
        return [self.wait(proc, h) for h in handles]

    # ------------------------------------------------------------------ #
    # Remote atomics
    # ------------------------------------------------------------------ #
    def co_rmw(
        self,
        proc: Proc,
        target: int,
        fn: Callable[[], Any],
    ):
        """Remote atomic read-modify-write (fetch-and-add, swap, cas).

        ``fn`` performs the atomic update on the target's state and
        returns the fetched value.  Requests serialize at the target: a
        hot shared counter (the original SCF/TCE load balancer) becomes a
        contention point exactly as on the real machine.
        """
        m = self.engine.machine
        self.counters.add(proc.rank, "rmw")
        det = self.engine.detector
        if target == proc.rank:
            # local CAS: cheap, but still serializes with remote atomics
            # being serviced at this rank
            proc.advance(m.local_lock_overhead)
            yield from proc.co_sync()
            start = max(proc.now, self._rmw_free_at[target])
            end = start + m.local_lock_overhead
            self._rmw_free_at[target] = end
            if det is not None:
                det.on_rmw(proc, target)
            value = fn()
            if det is not None:
                det.on_rmw_done(proc, target)
            proc.advance(end - proc.now)
            return value
        with self._span(proc, "rmw", "@", target, None):
            proc.advance(m.latency)  # request travels
            yield from proc.co_sync()
            service_start = max(proc.now, self._rmw_free_at[target])
            service_end = service_start + m.rmw_overhead
            self._rmw_free_at[target] = service_end
            if det is not None:
                det.on_rmw(proc, target)
            value = fn()
            if det is not None:
                det.on_rmw_done(proc, target)
            # response departs when serviced; initiator resumes a latency later
            proc.advance((service_end + m.latency) - proc.now)
        return value

    # ------------------------------------------------------------------ #
    # Mutexes
    # ------------------------------------------------------------------ #
    def create_mutex(self, host_rank: int, name: str = "mutex") -> SimMutex:
        """Create a mutex hosted on ``host_rank`` (collective in spirit;
        deterministic creation order makes explicit exchange unnecessary)."""
        return SimMutex(self.engine, host_rank, name)

    # ------------------------------------------------------------------ #
    # One-sided messages (mailboxes)
    # ------------------------------------------------------------------ #
    def co_post(
        self,
        proc: Proc,
        target: int,
        tag: str,
        payload: Any,
        nbytes: int = CONTROL_MSG_BYTES,
    ):
        """Deposit a small control message into ``target``'s mailbox.

        Implemented as a one-sided put into a remotely accessible buffer
        (how Scioto's termination tokens travel under ARMCI); the target
        discovers it on its next :meth:`co_poll_mailbox`.
        """
        m = self.engine.machine
        cost = m.local_copy_time(nbytes) if target == proc.rank else m.put_time(nbytes)
        proc.advance(cost)
        yield from proc.co_sync()
        self._mailboxes[target][tag].append((proc.rank, payload))
        # Causal edge source: the mailbox is FIFO per (target, tag), so the
        # matching edge_recv in poll_mailbox pairs sends and receives in
        # exactly the deposit order (metadata-only; no cost, no RNG).
        edge_send(proc, ("mail", target, tag), detail=tag)
        det = self.engine.detector
        if det is not None:
            det.on_post(proc, target, tag)
        self.counters.add(proc.rank, "msg_posted")
        waiter = self._mail_waiters.pop((target, tag), None)
        if waiter is not None:
            self.engine.wake(waiter, proc.now)

    def co_poll_mailbox(self, proc: Proc, tag: str):
        """Check own mailbox for a message with ``tag``; local-cost probe."""
        proc.advance(MAILBOX_CHECK_COST)
        yield from proc.co_sync()
        q = self._mailboxes[proc.rank][tag]
        if q:
            det = self.engine.detector
            if det is not None:
                det.on_poll(proc, tag)
            edge_recv(proc, ("mail", proc.rank, tag), "msg", detail=tag)
            return q.popleft()
        return None

    def mailbox_empty(self, proc: Proc, tag: str) -> bool:
        """Whether any message with ``tag`` is pending (no cost charge)."""
        return not self._mailboxes[proc.rank][tag]

    def co_wait_mailbox(self, proc: Proc, tag: str, timeout: float):
        """Wait up to ``timeout`` for a message with ``tag`` to arrive.

        Models a tight polling loop without charging one event per poll:
        the process parks and is woken the instant a matching
        :meth:`post` lands (or at the timeout).  Returns True if a
        message is now pending.
        """
        proc.advance(MAILBOX_CHECK_COST)
        if self._mailboxes[proc.rank][tag]:
            yield from proc.co_sync()
            return True
        key = (proc.rank, tag)
        self._mail_waiters[key] = proc
        yield from proc.co_park_until(proc.now + timeout, f"wait_mailbox({tag})")
        self._mail_waiters.pop(key, None)
        return bool(self._mailboxes[proc.rank][tag])

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def co_barrier(self, proc: Proc):
        """ARMCI_Barrier: fence all one-sided traffic, then synchronize."""
        self.counters.add(proc.rank, "barrier")
        yield from self._barrier.co_wait(proc)

    def co_fence(self, proc: Proc, target: int | None = None):
        """Wait for completion of this rank's outstanding one-sided ops.

        Ops are initiator-blocking in this model, so the charge is a
        flush only — but the *ordering* the fence provides (earlier
        one-sided ops complete at the target before anything after it)
        is what the race detector's §5.3 fence discipline tracks.
        """
        with span(proc, "fence", "comm", detail=target):
            proc.advance(self.engine.machine.latency)
            yield from proc.co_sync()
        det = self.engine.detector
        if det is not None:
            det.on_fence(proc, target)

    def co_allreduce(self, proc: Proc, value: Any, op: Callable[[Any, Any], Any]):
        """Combine ``value`` across all ranks with ``op``; all ranks get the result.

        Modelled as arrive-at-barrier + reduction critical path; used by
        applications for convergence checks and timing.
        """
        yield from proc.co_sync()
        n = self.engine.nprocs
        if n == 1:
            return value
        self._collective_slot.append(value)
        if len(self._collective_slot) < n:
            self._collective_parked.append(proc)
            return (yield from proc.co_park("allreduce"))
        result = self._collective_slot[0]
        for v in self._collective_slot[1:]:
            result = op(result, v)
        self._collective_slot = []
        release_at = proc.now + armci_barrier_cost(self.engine.machine, n)
        parked, self._collective_parked = self._collective_parked, []
        det = self.engine.detector
        if det is not None:
            det.on_collective(parked + [proc])
        for w in parked:
            self.engine.wake(w, release_at, result)
        proc.advance(release_at - proc.now)
        yield from proc.co_sync()
        return result

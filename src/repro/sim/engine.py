"""Deterministic discrete-event engine on a generator trampoline.

The engine runs ``nprocs`` simulated processes.  Each rank's main is a
generator function driven as a coroutine on one stack: :meth:`Engine.run`
resumes one process per event with a single ``send()`` and, between
sends, picks the process whose virtual clock is smallest.  Only one
process ever runs; there are no threads and no locks.  A plain main that
never suspends is allowed too: it runs to completion when first resumed.
Events are ordered by ``(virtual time, insertion sequence)``, so a given
seed always produces the same interleaving, steals and timings.

Time model
----------

Each process carries a local virtual clock (``proc.now``, in seconds).
Pure computation is charged lazily with :meth:`Proc.advance`, without
suspending.  Any access to state shared between processes must first
``yield from proc.co_sync()``, which re-enqueues the process at its
clock and lets every earlier process run first: shared-state accesses
happen in global virtual-time order, the guarantee a sequentially
consistent PGAS machine provides.  Blocking primitives (mutex acquire,
message receive) use :meth:`Proc.co_park`, and another process later
calls :meth:`Engine.wake`.  If every remaining process is parked the
engine raises :class:`~repro.util.errors.SimDeadlockError` naming them;
a process that suspended with a bare ``yield`` instead of a ``co_*``
primitive is named as such.

Two fast paths avoid suspending at all:

* **Sync elision**: when no other live event is at or before the
  syncing process's clock, :meth:`Proc.co_sync` counts the event and
  yields nothing.  Off under exploring strategies, whose decision points
  must see every event.
* **Self-resume**: when the picked event belongs to the process that
  just suspended (a lone :meth:`Proc.co_park_until` timeout), the
  trampoline resumes it again at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Generator, Iterable
from inspect import GEN_CREATED, GEN_SUSPENDED, getgeneratorstate
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from types import GeneratorType
from typing import Any

import numpy as np

from repro.sim.machines import MachineSpec, uniform_cluster
from repro.util.errors import SimDeadlockError, SimError, SimLimitError, SimShutdown
from repro.util.errors import check_count, check_seed

__all__ = [
    "Engine",
    "Proc",
    "SchedulingStrategy",
    "SimResult",
    "run_spmd",
]


class SchedulingStrategy:
    """Pluggable policy for the engine's scheduling decision points.

    The engine consults its strategy at four points: every :meth:`Proc.co_sync`
    and :meth:`Engine.wake` (latency injection via :meth:`delay`), every
    :meth:`Proc.co_park` (:meth:`on_park`, bookkeeping only), and — when
    :attr:`explores` is True — every resume decision (:meth:`choose`).

    The base class is the **deterministic** strategy: no delay, resume
    order from the ``(virtual time, insertion sequence)`` heap.
    Schedule-exploration strategies (``repro.check``) set ``explores =
    True`` and override :meth:`choose` to steer adversarial interleavings.
    """

    #: When True the engine materializes the full runnable set each event
    #: and asks :meth:`choose`; when False it uses the fast heap-pop path
    #: (and elides switches for immediately-resumable syncs).
    explores: bool = False

    def begin(self, engine: "Engine") -> None:
        """Called once at the start of :meth:`Engine.run`."""
        self.engine = engine

    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        """Pick the next event among ``candidates`` (one per runnable rank).

        ``candidates`` holds ``(time, seq, rank, gen)`` entries sorted in
        the engine's default order; return the index to resume next.
        Only called when ``explores`` is True and at least two processes
        are runnable.
        """
        return 0

    def delay(self, proc: "Proc", site: str) -> float:
        """Extra virtual latency (seconds) to inject at ``site``.

        ``site`` is ``"sync"`` (a process yielding at a shared-state
        access) or ``"wake"`` (a wake-up being delivered).  The default
        injects nothing.  The engine validates the resulting schedule
        time: a delay that produces a negative or NaN time raises
        ``ValueError`` naming the site.
        """
        return 0.0

    def on_park(self, proc: "Proc", where: str) -> None:
        """Called when a process parks (blocking primitive)."""


@dataclass
class SimResult:
    """Outcome of a completed simulation run.

    Attributes:
        elapsed: Virtual time at which the last process finished (seconds).
        finish_times: Per-rank virtual finish times.
        events: Number of engine scheduling events processed.
        returns: Per-rank return values of the main functions.
    """

    elapsed: float
    finish_times: list[float]
    events: int
    returns: list[Any]


class Proc:
    """One simulated process (rank) inside an :class:`Engine`.

    Application and runtime code receives a ``Proc`` as its handle to the
    simulated machine: it exposes the rank, the virtual clock, the
    per-rank RNG stream, and the suspending primitives the communication
    layers are built from.  User code normally only touches ``rank``,
    ``nprocs``, ``now``, ``rng`` and :meth:`compute`.
    """

    __slots__ = (
        "engine",
        "rank",
        "rng",
        "finished",
        "blocked_at",
        "state",
        "_gen",
        "_entry",
        "_clock",
        "_cpu_factor",
        "_wake_payload",
        "_exc",
        "_result",
        "_coro",
        "_switch",
    )

    def __init__(self, engine: Engine, rank: int, rng: np.random.Generator) -> None:
        self.engine = engine
        self.rank = rank
        self.rng = rng
        self.finished = False
        self.blocked_at: str | None = None  # description of park site, for deadlock msgs
        self._gen = 0  # resume generation; stale heap entries are skipped
        # Exploring path only: this rank's earliest entry since it last
        # resumed (None when it has none) — the engine keeps no heap there.
        self._entry: tuple[float, int, int, int] | None = None
        self._clock = 0.0
        # The machine model is fixed at engine construction, so this
        # rank's relative CPU speed is a constant: cache it out of the
        # per-task :meth:`compute` path.
        self._cpu_factor = engine.machine.cpu_factor(rank)
        self._wake_payload: Any = None
        self._exc: BaseException | None = None
        self._result: Any = None
        # The trampoline's handle on this rank: the running _proc_coro.
        self._coro: Generator[Proc, None, None] | None = None
        # Reusable one-element tuple for co_sync's suspend path: lets the
        # non-elided fast path return without allocating.
        self._switch = (self,)
        # Free-form per-process scratch used by the comm layers to attach
        # per-rank state (mailboxes, registered regions, ...).
        self.state: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nprocs(self) -> int:
        """Total number of simulated processes."""
        return self.engine.nprocs

    @property
    def now(self) -> float:
        """Current virtual time of this process, in seconds."""
        return self._clock

    @property
    def machine(self) -> MachineSpec:
        """The machine model this simulation runs on."""
        return self.engine.machine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Proc rank={self.rank} now={self._clock:.9f} finished={self.finished}>"

    # ------------------------------------------------------------------ #
    # Time primitives
    # ------------------------------------------------------------------ #
    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of local activity to this process's clock.

        Lazy: does not yield to the engine.  Must be followed by
        :meth:`co_sync` before the next shared-state access.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time {seconds!r}")
        self._clock += seconds

    def compute(self, reference_seconds: float) -> None:
        """Charge CPU work expressed in *reference-machine* seconds.

        The machine model scales the cost by this rank's relative speed,
        which is how heterogeneous (Opteron/Xeon) clusters are modelled.
        """
        seconds = reference_seconds * self._cpu_factor
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time {seconds!r}")
        self._clock += seconds

    def co_sync(self) -> Iterable["Proc"]:
        """Yield to the engine; resume when this process is globally earliest.

        Use as ``yield from proc.co_sync()``.  Every operation that reads
        or writes state shared with another process must do this first
        so that all such operations happen in virtual-time order.  (Under
        an exploring strategy, "earliest" becomes "whichever runnable
        process the strategy picks".)

        Returns an *empty* iterable when the sync elides (no other live
        event at or before this clock: the event is counted, nothing is
        yielded), else one that yields this process exactly once.
        """
        engine = self.engine
        delay_fn = engine._delay_fn
        if delay_fn is not None:
            d = delay_fn(self, "sync")
            if d:
                clock = self._clock + d
                if not clock >= 0.0:  # negative or NaN
                    raise ValueError(
                        f"strategy delay {d!r} at site 'sync' produced invalid "
                        f"time {clock!r} for rank {self.rank}"
                    )
                self._clock = clock
        if engine._elide:
            heap = engine._heap
            procs = engine.procs
            clock = self._clock
            while heap:
                entry = heap[0]
                proc = procs[entry[2]]
                if proc.finished or entry[3] != proc._gen:
                    heappop(heap)
                    continue
                if entry[0] > clock:
                    break  # earliest live event is later: we'd run next
                # Another process must run first: full handoff
                # (Engine._schedule's heap branch, inlined — one frame
                # per event).  ``entry`` is what _pick would pop once
                # ours is pushed (ours is later: same time means a
                # larger seq), so one heapreplace does the push and the
                # pop, and _pick takes ``entry`` from ``_next``.
                self._wake_payload = None
                engine._next = heapreplace(
                    heap, (clock, next(engine._seq), self.rank, self._gen)
                )
                return self._switch
            # Heap empty or earliest live event strictly later — an
            # elided event: counted, limit-checked, but never switched.
            if engine._tick is not None:
                engine._tick(clock)
            engine.events += 1
            if engine._limits:
                engine._check_limits(clock)
            return ()
        engine._schedule(self, self._clock, None)
        return self._switch

    def co_sleep(self, seconds: float) -> Iterable["Proc"]:
        """Advance the clock by ``seconds`` and yield to the engine
        (``yield from proc.co_sleep(s)``)."""
        self.advance(seconds)
        return self.co_sync()

    def co_park(self, where: str = "park") -> Generator["Proc", None, Any]:
        """Suspend until another process calls :meth:`Engine.wake` on us.

        Use as ``payload = yield from proc.co_park(where)``.

        Args:
            where: Human-readable description of the blocking site,
                reported if the simulation deadlocks.

        Returns:
            The payload passed to :meth:`Engine.wake`.
        """
        engine = self.engine
        self.blocked_at = where
        if engine._on_park is not None:
            engine._on_park(self, where)
        yield self
        return self._wake_payload

    def co_park_until(
        self, wake_time: float, where: str = "park_until"
    ) -> Generator["Proc", None, Any]:
        """Suspend until ``wake_time`` or an earlier :meth:`Engine.wake`.

        Models a polling loop without per-poll event cost: the process
        resumes the moment something wakes it (e.g. a mailbox post) or at
        the timeout, whichever comes first.  Returns the wake payload, or
        None on timeout.
        """
        engine = self.engine
        self.blocked_at = where
        if engine._on_park is not None:
            engine._on_park(self, where)
        engine._schedule(self, wake_time, None)
        yield self
        return self._wake_payload


class Engine:
    """Deterministic virtual-time scheduler for simulated processes.

    Typical use goes through :func:`run_spmd`; construct an ``Engine``
    directly only when ranks need distinct main functions or when the
    caller wants to inspect the engine after the run.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineSpec | None = None,
        seed: int = 0,
        max_events: int | None = None,
        max_time: float | None = None,
        strategy: SchedulingStrategy | None = None,
    ) -> None:
        """Create an engine.

        Args:
            nprocs: Number of simulated processes (ranks ``0..nprocs-1``).
            machine: Machine model; defaults to a homogeneous cluster.
            seed: Root seed; each rank gets an independent child stream.
            max_events: Abort with :class:`SimLimitError` after this many
                scheduling events (livelock guard for tests).
            max_time: Abort once virtual time exceeds this many seconds.
            strategy: Scheduling strategy consulted at the decision
                points; None keeps the deterministic ``(time, seq)`` order.
        """
        self.nprocs = check_count("nprocs", nprocs)
        self.strategy = strategy
        self.machine = machine if machine is not None else uniform_cluster(nprocs)
        self.machine.validate(nprocs)
        self.seed = check_seed("seed", seed)
        self.max_events = max_events
        self.max_time = max_time
        self.events = 0
        # Resumes the trampoline handed to send(), set when run() ends.
        # Not part of the result: events count elided syncs, this does not.
        self.switches = 0
        streams = np.random.SeedSequence(seed).spawn(nprocs)
        self.procs = [Proc(self, r, np.random.default_rng(streams[r])) for r in range(nprocs)]
        self._heap: list[tuple[float, int, int, int]] = []  # (time, seq, rank, gen)
        self._seq = itertools.count()
        self._started = False
        self._active = 0
        self._failure: BaseException | None = None
        self._finish_times: list[float] = [0.0] * nprocs
        self._current: Proc | None = None
        # The live entry a co_sync handoff took off the heap top for the
        # next _pick, else None.
        self._next: tuple[float, int, int, int] | None = None
        # Hot-path caches, finalized at the top of run().
        self._delay_fn: Callable[[Proc, str], float] | None = None
        self._on_park: Callable[[Proc, str], None] | None = None
        self._explores = False
        self._elide = True
        self._limits = max_events is not None or max_time is not None
        # True once any observer has attached (:meth:`note_observer`);
        # hot paths gate their observability hooks on it.
        self.observed = False
        # Global shared-state namespace used by comm layers (keyed by layer).
        self.state: dict[str, Any] = {}
        # Per-event telemetry tick: called with the event's virtual time
        # from both accounting sites (_pick and the co_sync elision
        # path).  None when no live telemetry bus is attached, so an
        # unobserved run pays one attribute read per event.
        self._tick: Callable[[float], None] | None = None
        self._mains: list[tuple[Callable[..., Any], tuple[Any, ...]] | None] = [None] * nprocs

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def spawn(self, rank: int, fn: Callable[..., Any], *args: Any) -> None:
        """Assign the main function for ``rank``; called before :meth:`run`."""
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        self._mains[rank] = (fn, args)

    def spawn_all(self, fn: Callable[..., Any], *args: Any) -> None:
        """Assign the same main function to every rank (SPMD style)."""
        for r in range(self.nprocs):
            self.spawn(r, fn, *args)

    def note_observer(self) -> None:
        """Record that an observer attached (tracer, recorder, detector).

        Flips :attr:`observed`, which hot paths consult before calling
        the observability hooks.  Never cleared: a detached observer
        leaves them calling no-op hooks, which costs time, not correctness.
        """
        self.observed = True

    # ------------------------------------------------------------------ #
    # Scheduling internals
    # ------------------------------------------------------------------ #
    def _schedule(self, proc: Proc, time: float, payload: Any) -> None:
        proc._wake_payload = payload
        entry = (time, next(self._seq), proc.rank, proc._gen)
        if not self._explores:
            heappush(self._heap, entry)
        elif proc._entry is None or time < proc._entry[0]:
            # Only a rank's earliest entry can be a candidate, and its
            # later ones go stale at its next resume: keep the minimum
            # (seq only grows, so a time tie keeps the older entry).
            proc._entry = entry

    def wake(self, proc: Proc, time: float, payload: Any = None) -> None:
        """Wake a parked process at virtual ``time`` with ``payload``.

        The waker's clock is typically ``time`` or earlier; the wakee's
        clock is advanced to at least ``time`` when it resumes.  If the
        process was parked with a timeout (:meth:`Proc.co_park_until`), the
        pending timeout entry becomes stale and is skipped.

        Raises:
            ValueError: If the strategy's injected delay produces a
                negative or NaN wake time.
        """
        if proc.blocked_at is None:
            raise RuntimeError(f"wake() on non-parked {proc!r}")
        if self.strategy is not None:
            time += self.strategy.delay(proc, "wake")
            if not time >= 0.0:  # negative or NaN
                raise ValueError(
                    f"strategy delay at site 'wake' produced invalid wake "
                    f"time {time!r} for rank {proc.rank}"
                )
        self._schedule(proc, time, payload)

    @property
    def current(self) -> Proc:
        """The process currently executing (valid only during :meth:`run`)."""
        return self._current

    def _check_limits(self, time: float) -> None:
        """Raise :class:`SimLimitError` if an event limit is exceeded."""
        if self.max_events is not None and self.events > self.max_events:
            raise SimLimitError(f"exceeded max_events={self.max_events}")
        if self.max_time is not None and time > self.max_time:
            raise SimLimitError(
                f"virtual time {time:.6f}s exceeded max_time={self.max_time}s"
            )

    def _next_event(self) -> tuple[float, int, int, int] | None:
        """Let the exploring strategy pick the next entry to resume, or None.

        The strategy sees every runnable rank's earliest entry (its
        ``Proc._entry`` slot) in ``(time, seq)`` order; choosing consumes
        that slot.  O(nprocs) per decision.
        """
        candidates = sorted([e for p in self.procs if (e := p._entry) is not None])
        if not candidates:
            return None
        idx = self.strategy.choose(candidates) if len(candidates) > 1 else 0
        if not 0 <= idx < len(candidates):
            raise RuntimeError(
                f"strategy chose index {idx} among {len(candidates)} candidates"
            )
        entry = candidates[idx]
        self.procs[entry[2]]._entry = None
        return entry

    def _pick(self) -> Proc | None:
        """Choose, account, and return the next process to resume.

        Selects the next live event, bumps the chosen process's
        generation, counts the event, checks limits and advances its
        clock.  Returns ``None`` on completion or failure (deadlock,
        limit, strategy error — recorded in ``self._failure`` for
        :meth:`run` to re-raise).
        """
        if not self._active:
            return None
        try:
            entry = self._next
            if entry is not None:  # popped by co_sync's handoff
                self._next = None
            elif self._explores:
                entry = self._next_event()
            else:
                # Fast path: pop the heap minimum, skipping entries whose
                # process has resumed since they were scheduled.
                heap = self._heap
                procs = self.procs
                entry = None
                while heap:
                    head = heappop(heap)
                    proc = procs[head[2]]
                    if proc.finished or head[3] != proc._gen:
                        continue
                    entry = head
                    break
            if entry is None:
                for p in self.procs:
                    if not p.finished and p.blocked_at is None:
                        # Neither scheduled nor parked: it yielded to the
                        # trampoline without a co_* primitive.
                        raise SimError(
                            f"rank {p.rank} suspended without a co_* primitive "
                            f"(t={p.now * 1e6:.3f}us): a bare `yield` in a rank "
                            f"main or task callback? Suspend with `yield from "
                            f"proc.co_sync()` or another co_* call"
                        )
                parked = [
                    (p.rank, p.blocked_at) for p in self.procs if not p.finished
                ]
                blocked = ", ".join(
                    f"rank {p.rank} at {p.blocked_at!r} (t={p.now * 1e6:.3f}us)"
                    for p in self.procs
                    if not p.finished
                )
                raise SimDeadlockError(
                    f"no runnable process; {self._active} still active: {blocked}",
                    parked=parked,
                )
            time = entry[0]
            proc = self.procs[entry[2]]
            # Any same-generation heap siblings go stale now.
            proc._gen += 1
            proc.blocked_at = None
            if self._tick is not None:
                self._tick(time)
            self.events += 1
            if self._limits:
                self._check_limits(time)
            if time > proc._clock:
                proc._clock = time
            self._current = proc
            return proc
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            if self._failure is None:
                self._failure = exc
            return None

    def _finish(self, proc: Proc) -> None:
        """Per-process epilogue: account the finish, record any failure."""
        proc.finished = True
        self._active -= 1
        self._finish_times[proc.rank] = proc._clock
        proc._entry = None
        if proc._exc is not None and self._failure is None:
            self._failure = proc._exc

    def _proc_coro(self, proc: Proc) -> Generator[Proc, None, None]:
        """Coroutine body of one process, resumed by :meth:`run`.

        Yields every time ``proc`` suspends; a plain main that returns a
        non-generator has run inline.  The epilogue runs inside the
        generator so a teardown ``throw(SimShutdown)`` still accounts
        the process.
        """
        fn, args = self._mains[proc.rank]
        try:
            res = fn(proc, *args)
            if isinstance(res, GeneratorType):
                res = yield from res
            proc._result = res
        except SimShutdown:
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced by Engine.run
            proc._exc = exc
        self._finish(proc)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimResult:
        """Run the simulation to completion and return a :class:`SimResult`.

        Raises:
            SimDeadlockError: If all unfinished processes are parked.
            SimLimitError: If ``max_events``/``max_time`` is exceeded.
            Exception: Any exception raised inside a simulated process is
                re-raised here (after shutting the other contexts down).
        """
        if self._started:
            raise RuntimeError("Engine.run() may only be called once")
        self._started = True
        strat = self.strategy
        if strat is not None:
            strat.begin(self)
        self._delay_fn = strat.delay if strat is not None else None
        self._on_park = strat.on_park if strat is not None else None
        self._explores = strat is not None and strat.explores
        self._elide = not self._explores
        for rank, main in enumerate(self._mains):
            if main is None:
                raise RuntimeError(f"rank {rank} has no main function; call spawn()")
        self._active = self.nprocs
        switches = 0
        try:
            for proc in self.procs:
                proc._coro = self._proc_coro(proc)
                self._schedule(proc, 0.0, None)
            # The trampoline: one send() per event, then ask _pick which
            # process runs next; None means completion or failure.
            pick = self._pick
            dst = pick()
            while dst is not None:
                switches += 1
                try:
                    dst._coro.send(None)
                except StopIteration:  # epilogue ran inside _proc_coro
                    if self._failure is not None:
                        break
                dst = pick()
            if self._failure is not None:
                raise self._failure
        finally:
            self.switches = switches
            self._teardown()
        return SimResult(
            elapsed=max(self._finish_times),
            finish_times=list(self._finish_times),
            events=self.events,
            returns=[p._result for p in self.procs],
        )

    def _teardown(self) -> None:
        """Unwind every unfinished process via :class:`SimShutdown`.

        A generator that never ran is closed; a suspended one gets
        ``SimShutdown`` thrown in at its ``yield`` (running the main's
        ``finally`` blocks and the :meth:`_proc_coro` epilogue), again
        if it catches the shutdown and yields.  Idempotent.
        """
        for proc in self.procs:
            coro = proc._coro
            if coro is None or proc.finished:
                continue
            state = getgeneratorstate(coro)
            if state == GEN_CREATED:
                coro.close()
                continue
            while state == GEN_SUSPENDED and not proc.finished:
                try:
                    coro.throw(SimShutdown)
                except (StopIteration, SimShutdown):
                    break
                state = getgeneratorstate(coro)


def run_spmd(
    nprocs: int,
    main: Callable[..., Any],
    *args: Any,
    machine: MachineSpec | None = None,
    seed: int = 0,
    max_events: int | None = None,
    max_time: float | None = None,
    strategy: SchedulingStrategy | None = None,
) -> SimResult:
    """Run ``main(proc, *args)`` on every rank and return the result.

    This is the standard entry point: it mirrors launching an SPMD job
    with ``mpirun -np nprocs``.  ``main`` is normally a generator
    function; a plain function that never suspends works too.

    Example:
        >>> def hello(proc):
        ...     proc.compute(1e-6)
        ...     return proc.rank
        >>> result = run_spmd(4, hello)
        >>> result.returns
        [0, 1, 2, 3]
    """
    eng = Engine(
        nprocs,
        machine=machine,
        seed=seed,
        max_events=max_events,
        max_time=max_time,
        strategy=strategy,
    )
    eng.spawn_all(main, *args)
    return eng.run()

"""Deterministic discrete-event engine with direct-handoff processes.

The engine runs ``nprocs`` simulated processes.  Each process executes
either a plain (blocking-style) Python function in its own execution
context — an OS thread or a greenlet, depending on the switch backend —
or a *generator* function driven as a coroutine on the engine's single
stack (the ``coro`` backend's trampoline).  Either way the engine only
ever lets **one** context run at a time: the process whose virtual
clock is smallest.  This gives us the best of both worlds:

* Runtime and application code reads exactly like the paper's C API —
  ordinary function calls — or, on the coroutine path, the same calls
  threaded through ``yield from``.
* Execution is fully deterministic: events are ordered by
  ``(virtual time, insertion sequence)``, so a given seed always produces
  the same interleaving, the same steal pattern, and the same timings —
  on every backend (see :mod:`repro.sim.backends`).

Time model
----------

Each process carries a local virtual clock (``proc.now``, in seconds).
Pure computation is charged *lazily* with :meth:`Proc.advance` — no
context switch.  Any access to state shared between processes must first
call :meth:`Proc.sync`, which re-enqueues the process at its current
clock and hands control to whichever process is earliest.  This
serializes all shared-state accesses in global virtual-time order, which
is exactly the guarantee a sequentially-consistent PGAS machine provides.

Blocking primitives (mutex acquire, message receive) use
:meth:`Proc.park`: the process suspends without scheduling a wake-up and
another process later calls :meth:`Engine.wake` on it.  If every
remaining process is parked, the engine raises
:class:`~repro.util.errors.SimDeadlockError` naming the blocked
processes — protocol bugs fail loudly instead of hanging.

Coroutine protocol
------------------

Every blocking primitive has a ``co_``-prefixed twin (:meth:`Proc.co_sync`,
:meth:`Proc.co_park`, :meth:`Proc.co_park_until`) that **yields** the
process instead of switching execution contexts.  The runtime layers
thread these through ``yield from``, so a generator main function
suspends all the way down to its driver — the ``coro`` backend's
trampoline, where resuming a process is a single ``send()`` call — with
one frame hop per level and no OS involvement.  The classic blocking
forms are thin wrappers that :func:`drive` the coroutine forms with
inline dispatches, so both calling conventions execute the *same*
scheduling code and stay bit-for-bit equivalent on every backend.

Switching costs
---------------

The scheduling decision runs in the *yielding* context and control
passes directly to the chosen successor — the engine context only runs
at startup, shutdown, and failure.  Two further fast paths avoid the
switch entirely:

* **Sync elision**: when a syncing process would be resumed immediately
  anyway (no other live event at or before its clock), :meth:`Proc.sync`
  just counts the event and returns.  Disabled under exploring
  strategies, whose decision points must see every event.
* **Self-resume**: when the dispatched event belongs to the yielding
  process itself (e.g. a lone :meth:`Proc.park_until` timeout), the
  dispatch returns inline.

See ``docs/performance.md`` for backend selection and measured costs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any

import numpy as np

from repro.sim.backends import SwitchBackend, make_backend
from repro.sim.machines import MachineSpec, uniform_cluster
from repro.util.errors import SimDeadlockError, SimLimitError, SimShutdown

__all__ = [
    "Engine",
    "Proc",
    "SchedulingStrategy",
    "SimResult",
    "blocking",
    "blocking_method",
    "drive",
    "run_spmd",
]


def drive(gen: Generator) -> Any:
    """Run a runtime coroutine to completion with blocking dispatches.

    The adapter between the two calling conventions: a ``co_``-style
    generator yields each process that must suspend, and on backends
    where the caller owns a real execution context (thread, greenlet,
    thread-sem) the suspension is simply a blocking dispatch performed
    inline.  Returns the generator's return value.  Because the
    coroutine itself runs the exact same scheduling code either way,
    blocking and coroutine callers are bit-for-bit equivalent.
    """
    try:
        send = gen.send
        while True:
            proc = send(None)
            proc.engine._dispatch(proc)
    except StopIteration as stop:
        return stop.value
    except BaseException:
        # Unwind the suspended frames deterministically (finally blocks,
        # span context managers) before propagating — e.g. SimShutdown
        # raised out of a dispatch during teardown.
        gen.close()
        raise


def blocking(co_fn: Callable[..., Generator]) -> Callable[..., Any]:
    """Blocking wrapper for a module-level coroutine function."""
    name = co_fn.__name__
    public = name[3:] if name.startswith("co_") else name

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return drive(co_fn(*args, **kwargs))

    wrapper.__name__ = public
    wrapper.__qualname__ = co_fn.__qualname__.replace(name, public)
    wrapper.__doc__ = f"Blocking form of :func:`{name}` (see that function)."
    return wrapper


def blocking_method(co_name: str) -> Callable[..., Any]:
    """Blocking wrapper that resolves method ``co_name`` at call time.

    Late binding keeps monkey-patched coroutine methods (the model
    checker's mutations) visible through the blocking API as well.
    Works for classmethods too: ``create =
    classmethod(blocking_method("co_create"))``.
    """
    public = co_name[3:] if co_name.startswith("co_") else co_name

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        return drive(getattr(self, co_name)(*args, **kwargs))

    wrapper.__name__ = public
    wrapper.__doc__ = f"Blocking form of :meth:`{co_name}` (see that method)."
    return wrapper


class SchedulingStrategy:
    """Pluggable policy for the engine's scheduling decision points.

    The engine consults its strategy at four points: every :meth:`Proc.sync`
    and :meth:`Engine.wake` (latency injection via :meth:`delay`), every
    :meth:`Proc.park` (:meth:`on_park`, bookkeeping only), and — when
    :attr:`explores` is True — every resume decision (:meth:`choose`).

    The base class is the **deterministic** strategy: it injects no delay
    and leaves resume selection to the engine's ``(virtual time, insertion
    sequence)`` heap order, reproducing the engine's historical behaviour
    bit-for-bit.  Schedule-exploration strategies (``repro.check``) set
    ``explores = True`` and override :meth:`choose` to steer the simulation
    through adversarial interleavings.
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
    per-rank RNG stream, and the blocking primitives the communication
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
        "_lock",
        "_thread",
        "_glet",
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
        # Backend execution context (whichever the backend uses).
        self._lock = None
        self._thread = None
        self._glet = None
        self._coro = None
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
        :meth:`sync` before the next shared-state access.
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

    def sync(self) -> None:
        """Yield to the engine; resume when this process is globally earliest.

        Every operation that reads or writes state shared with another
        process must call this first so that all such operations happen
        in virtual-time order.  (Under an exploring strategy, "earliest"
        becomes "whichever runnable process the strategy picks".)

        When no other live event is scheduled at or before this
        process's clock, the process would be resumed immediately — the
        engine counts the scheduling event but skips the context switch
        entirely (sync elision).
        """
        for _ in self.co_sync():
            self.engine._dispatch(self)

    def co_sync(self) -> Iterable["Proc"]:
        """Coroutine twin of :meth:`sync`: use as ``yield from proc.co_sync()``.

        Returns an iterable that is *empty* when the sync elides —
        nothing is yielded, nothing is allocated — and yields this
        process exactly once when another process must run first.  The
        driver (the ``coro`` backend's trampoline, or :func:`drive` on
        thread-style backends) performs one dispatch per yielded
        process, so both calling conventions run identical scheduling
        code.
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
                # per event).
                self._wake_payload = None
                heappush(heap, (clock, next(engine._seq), self.rank, self._gen))
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

    def sleep(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` and yield to the engine."""
        self.advance(seconds)
        self.sync()

    def co_sleep(self, seconds: float) -> Iterable["Proc"]:
        """Coroutine twin of :meth:`sleep` (``yield from proc.co_sleep(s)``)."""
        self.advance(seconds)
        return self.co_sync()

    def park(self, where: str = "park") -> Any:
        """Suspend until another process calls :meth:`Engine.wake` on us.

        Args:
            where: Human-readable description of the blocking site,
                reported if the simulation deadlocks.

        Returns:
            The payload passed to :meth:`Engine.wake`.
        """
        return drive(self.co_park(where))

    def co_park(self, where: str = "park") -> Generator["Proc", None, Any]:
        """Coroutine twin of :meth:`park`; returns the wake payload."""
        engine = self.engine
        self.blocked_at = where
        engine._parked += 1
        if engine._on_park is not None:
            engine._on_park(self, where)
        yield self
        return self._wake_payload

    def park_until(self, wake_time: float, where: str = "park_until") -> Any:
        """Suspend until ``wake_time`` or an earlier :meth:`Engine.wake`.

        Models a polling loop without per-poll event cost: the process
        resumes the moment something wakes it (e.g. a mailbox post) or at
        the timeout, whichever comes first.  Returns the wake payload, or
        None on timeout.
        """
        return drive(self.co_park_until(wake_time, where))

    def co_park_until(
        self, wake_time: float, where: str = "park_until"
    ) -> Generator["Proc", None, Any]:
        """Coroutine twin of :meth:`park_until`."""
        engine = self.engine
        self.blocked_at = where
        engine._parked += 1
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
        backend: str = "auto",
    ) -> None:
        """Create an engine.

        Args:
            nprocs: Number of simulated processes (ranks ``0..nprocs-1``).
            machine: Machine model; defaults to a homogeneous cluster.
            seed: Root seed; each rank gets an independent child stream.
            max_events: Abort with :class:`SimLimitError` after this many
                scheduling events (livelock guard for tests).
            max_time: Abort once virtual time exceeds this many seconds.
            strategy: Scheduling strategy consulted at the engine's
                decision points; None (default) and any strategy with
                ``explores = False`` reproduce the historical
                deterministic ``(time, seq)`` order bit-for-bit.
            backend: Context-switch backend: ``"coro"``, ``"thread"``,
                ``"greenlet"``, ``"thread-sem"``, or ``"auto"`` (the
                default — honours ``$REPRO_SIM_BACKEND``, then picks
                ``coro``, the generator trampoline).  All backends
                produce identical results.
        """
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.strategy = strategy
        self.machine = machine if machine is not None else uniform_cluster(nprocs)
        self.machine.validate(nprocs)
        self.seed = seed
        self.max_events = max_events
        self.max_time = max_time
        self.events = 0
        streams = np.random.SeedSequence(seed).spawn(nprocs)
        self.procs = [Proc(self, r, np.random.default_rng(streams[r])) for r in range(nprocs)]
        self.backend: SwitchBackend = make_backend(backend, self)
        self._heap: list[tuple[float, int, int, int]] = []  # (time, seq, rank, gen)
        self._seq = itertools.count()
        self._shutdown = False
        self._started = False
        self._parked = 0
        self._active = 0
        self._failure: BaseException | None = None
        self._finish_times: list[float] = [0.0] * nprocs
        self._current: Proc | None = None
        # Hot-path caches, finalized at the top of run().
        self._delay_fn: Callable[[Proc, str], float] | None = None
        self._on_park: Callable[[Proc, str], None] | None = None
        self._explores = False
        self._elide = True
        self._limits = max_events is not None or max_time is not None
        # True once any observer (tracer, recorder, race detector) has
        # attached — see :meth:`note_observer`.  Hot paths gate their
        # observability hook calls on this flag so an unobserved run
        # pays one attribute read per site instead of a function call
        # plus a dict probe.
        self.observed = False
        # Global shared-state namespace used by comm layers (keyed by layer).
        self.state: dict[str, Any] = {}
        # Called with the failure just before run() re-raises it —
        # observers (e.g. the obs flight recorder) dump state here.
        self.failure_hooks: list[Callable[[BaseException], None]] = []
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

        Flips :attr:`observed`, the flag hot paths consult before calling
        the observability hooks.  The hooks still probe their own
        ``state`` key, so setting this spuriously costs time, never
        correctness — and it is never cleared: a detached observer just
        returns the hot paths to calling no-op hooks.
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
        process was parked with a timeout (:meth:`Proc.park_until`), the
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
        """Let the exploring strategy select the next (time, seq, rank,
        gen) entry to resume, or None.

        The strategy sees the full runnable set — the earliest entry of
        every runnable process, which :meth:`_schedule` keeps in its
        ``Proc._entry`` slot — in the default ``(time, seq)`` order, and
        picks one; this is the decision point schedule exploration
        drives.  Choosing consumes the chosen rank's slot; a finishing
        rank's slot is cleared by :meth:`_finish`.  O(nprocs) per
        decision.  (Without an exploring strategy :meth:`_pick` pops the
        heap minimum itself.)
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

        This *is* the scheduling decision: select the next live event,
        bump the chosen process's generation, count the event, check
        limits, and advance its clock.  Returns ``None`` when the engine
        context should resume instead (completion, deadlock, limit
        violation, or a strategy error — failures are recorded in
        ``self._failure`` for :meth:`run` to re-raise).  Called from
        whichever context is yielding: a blocking dispatch or the coro
        backend's trampoline.
        """
        if not self._active:
            return None
        try:
            if self._explores:
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
            if proc.blocked_at is not None:
                proc.blocked_at = None
                self._parked -= 1
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

    def _dispatch(self, src: Proc | None, dying: bool = False) -> None:
        """Resume the next event's process, switching out of ``src``.

        Runs in ``src``'s context (``None`` = the engine context).  On
        deadlock, limit violation, or a strategy error the failure is
        recorded and control returns to the engine context, which
        re-raises from :meth:`run`.  Returns without switching when the
        chosen process is ``src`` itself.
        """
        dst = self._pick()
        if dst is src:
            return  # self-resume (or the engine context staying put)
        if dying:
            self.backend.exit_to(dst)
            return
        self.backend.switch(src, dst)
        if self._shutdown and src is not None:
            raise SimShutdown()

    def _finish(self, proc: Proc) -> None:
        """Per-process epilogue shared by thread-style and coroutine mains."""
        proc.finished = True
        self._active -= 1
        self._finish_times[proc.rank] = proc._clock
        proc._entry = None
        if proc._exc is not None and self._failure is None:
            self._failure = proc._exc

    def _proc_main(self, proc: Proc, fn: Callable[..., Any], args: tuple[Any, ...]) -> None:
        """Body of one process context: run ``fn``, then hand off.

        Generator main functions work on every backend: here (thread,
        greenlet, thread-sem) the returned generator is simply driven
        with blocking dispatches.
        """
        if not self._shutdown:
            try:
                res = fn(proc, *args)
                if isinstance(res, GeneratorType):
                    res = drive(res)
                proc._result = res
            except SimShutdown:
                pass
            except BaseException as exc:  # noqa: BLE001 - surfaced by Engine.run
                proc._exc = exc
        self._finish(proc)
        if self._shutdown or self._failure is not None:
            self.backend.exit_to(None)
        else:
            self._dispatch(proc, dying=True)

    def _proc_coro(self, proc: Proc) -> Generator[Proc, None, None]:
        """Coroutine body of one process: the coro backend's unit of work.

        A generator the trampoline resumes with ``send()``; it yields
        every time ``proc`` suspends and returns when the main function
        finishes.  The epilogue runs *inside* the generator so a
        teardown ``throw(SimShutdown)`` still accounts the process.
        """
        fn, args = self._mains[proc.rank]
        if not self._shutdown:
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
        self.backend.prepare()
        try:
            for proc, (fn, args) in zip(self.procs, self._mains):
                def main(p=proc, f=fn, a=args) -> None:
                    self._proc_main(p, f, a)

                self.backend.spawn(proc, main)
                self._schedule(proc, 0.0, None)
            # Hand control to the earliest process; it returns to the
            # engine context only on completion or failure.
            self._dispatch(None)
            if self._failure is not None:
                for hook in self.failure_hooks:
                    try:
                        hook(self._failure)
                    except Exception:  # noqa: BLE001 - a dump must never mask the failure
                        pass
                raise self._failure
        finally:
            self._teardown()
        elapsed = max(self._finish_times) if self._finish_times else 0.0
        return SimResult(
            elapsed=elapsed,
            finish_times=list(self._finish_times),
            events=self.events,
            returns=[p._result for p in self.procs],
        )

    def _teardown(self) -> None:
        """Unwind any still-running process contexts via :class:`SimShutdown`."""
        self._shutdown = True
        for proc in self.procs:
            self.backend.kill(proc)
        self.backend.finalize()


def run_spmd(
    nprocs: int,
    main: Callable[..., Any],
    *args: Any,
    machine: MachineSpec | None = None,
    seed: int = 0,
    max_events: int | None = None,
    max_time: float | None = None,
    strategy: SchedulingStrategy | None = None,
    backend: str = "auto",
) -> SimResult:
    """Run ``main(proc, *args)`` on every rank and return the result.

    This is the standard entry point: it mirrors launching an SPMD job
    with ``mpirun -np nprocs``.

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
        backend=backend,
    )
    eng.spawn_all(main, *args)
    return eng.run()

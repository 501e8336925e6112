"""Happens-before data-race detection for the simulated PGAS machine.

A :class:`RaceDetector` attaches to an :class:`~repro.sim.engine.Engine`
(like the tracer: ``RaceDetector.attach(engine)``) and is the one
analysis observer: every hook in the runtime layers — synchronization
(mutexes, collectives, post → poll, remote atomics, fences) and every
access to ARMCI shared state — appends one
:class:`~repro.analyze.capture.TraceEvent` to :attr:`RaceDetector.events`
and does nothing else, bar the wait-for monitor that fails a run fast
when a lock cycle closes.

Every happens-before result is computed after the run from that list by
one walker, :func:`happens_before`, over one of two edge sets: the full
set feeds :func:`race_pass` (:attr:`RaceDetector.races`), the must-only
set the predictive passes (:mod:`repro.analyze.predict`).

Two accesses to the same region race when they conflict (different
ranks, at least one write, not both atomic) and neither happens-before
the other — the PGAS analogue of a ThreadSanitizer report, so it fires
on *every* schedule that executes the unsynchronized path.  Flags are
synchronization objects, not data: they never race, a load joins every
earlier store, and a *release* store (a thief's dirty mark) with an
unfenced one-sided op to its target pending is an
``unfenced-flag-store`` race — the §5.3 window a fence closes (see
``docs/analyze.md``).
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

from repro.analyze.capture import PredictedDeadlockError, TraceEvent
from repro.analyze.vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc

__all__ = [
    "Access", "Race", "RaceDetector", "RaceGroup", "dedupe_races",
    "happens_before", "race_pass", "region_class", "unordered_conflicts",
]

#: Hook-call frames skipped when attributing an access to a call site.
_SITE_SKIP = (
    "analyze/race.py",
    "armci/runtime.py",
    "sim/resources.py",
)


def _call_site() -> str:
    """The first stack frame outside the detector/runtime plumbing."""
    frame = sys._getframe(1)
    for _ in range(30):
        if frame is None:
            break
        filename = frame.f_code.co_filename.replace(os.sep, "/")
        if not filename.endswith(_SITE_SKIP):
            short = filename.rsplit("src/", 1)[-1] if "src/" in filename else (
                os.path.basename(filename)
            )
            return f"{short}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return "<unknown>"


@dataclass(frozen=True)
class Access:
    """One recorded shared-region access."""

    rank: int
    op: str  # "r", "w", "rw", "a" (atomic), "fw" (flag store)
    region: Hashable
    time: float
    site: str
    vc: tuple[int, ...]

    def describe(self) -> str:
        kind = {"r": "read", "w": "write", "rw": "update", "a": "atomic",
                "fw": "flag store"}.get(self.op, self.op)
        return (
            f"rank {self.rank} {kind} at t={self.time * 1e6:.3f}us "
            f"vc={list(self.vc)} [{self.site}]"
        )


@dataclass(frozen=True)
class Race:
    """A conflicting, happens-before-unordered access pair."""

    kind: str  # "data-race" or "unfenced-flag-store"
    region: Hashable
    first: Access
    second: Access

    def describe(self) -> str:
        head = f"{self.kind} on {self.region!r}:"
        if self.kind == "unfenced-flag-store":
            head = (
                f"{self.kind} on {self.region!r} (flag store not fence-ordered "
                "after an earlier one-sided op to the same target):"
            )
        return f"{head}\n    {self.first.describe()}\n    {self.second.describe()}"


# ---------------------------------------------------------------------- #
# The one happens-before walker
# ---------------------------------------------------------------------- #
def happens_before(
    events: list[TraceEvent], nprocs: int, must_only: bool = False
) -> Iterator[tuple[TraceEvent, VectorClock]]:
    """Yield every event with its rank's vector clock at that event.

    The clock is live: copy it (``snapshot()``) to keep it.  An access
    has ticked its own epoch first; a store or message is stamped
    before it publishes.  The full edge set is program order plus:
    mutex release → next acquire of the same lock, every flag store →
    every later load of that region, all-to-all within a collective,
    FIFO post → poll per (target, tag), and rmw-done → next rmw at the
    same target.  ``must_only`` drops the two edges a scheduler can
    reverse — mutex hand-over and flag-cell joins — leaving the
    must-order relation of the predictive passes.
    """
    vc = [VectorClock(nprocs) for _ in range(nprocs)]
    for rank, clock in enumerate(vc):
        clock.tick(rank)
    # ("mutex", key) / ("rmw", target) / ("flag", region) -> published clock
    cells: dict[tuple, VectorClock] = {}
    boxes: dict[tuple[int, str], deque[VectorClock]] = {}
    groups: dict[tuple[int, ...], list[int]] = {}
    for ev in events:
        r, kind, data = ev.rank, ev.kind, ev.data
        clock = vc[r]
        # acquire side: join what the sync object published
        if kind == "access":
            clock.tick(r)
        elif kind == "acquire":
            cell = None if must_only else cells.get(("mutex", data["mutex"]))
            if cell is not None:
                clock.join(cell)
            clock.tick(r)
        elif kind == "rmw":
            cell = cells.get(("rmw", data["target"]))
            if cell is not None:
                clock.join(cell)
            clock.tick(r)
        elif kind == "flag-read":
            cell = None if must_only else cells.get(("flag", data["region"]))
            if cell is not None:
                clock.join(cell)
        elif kind == "poll":
            box = boxes.get((r, data["tag"]))
            if box:
                clock.join(box.popleft())
                clock.tick(r)
        elif kind == "collective":
            ranks = data["ranks"]
            group = groups.setdefault(ranks, [])
            group.append(r)
            if len(group) == len(ranks):
                del groups[ranks]
                joined = VectorClock(nprocs)
                for p in ranks:
                    joined.join(vc[p])
                for p in ranks:
                    vc[p].join(joined)
                    vc[p].tick(p)
        yield ev, clock
        # release side: publish, then start a new epoch
        if kind == "release":
            if not must_only:
                cells[("mutex", data["mutex"])] = clock.copy()
            clock.tick(r)
        elif kind == "rmw-done":
            cells[("rmw", data["target"])] = clock.copy()
            clock.tick(r)
        elif kind == "flag-write":
            if not must_only:
                cells.setdefault(("flag", data["region"]), VectorClock(nprocs)).join(clock)
            clock.tick(r)
        elif kind == "post":
            boxes.setdefault((data["target"], data["tag"]), deque()).append(clock.copy())
            clock.tick(r)


def unordered_conflicts(
    tables: dict[Hashable, tuple[dict, dict, dict]], region: Hashable, op: str,
    rank: int, stamp, item: Any,
) -> list:
    """The conflict scanner both happens-before passes share.

    ``tables`` keeps, per region, the last read, write and atomic of
    each rank as ``(stamp, item)``.  Returns the items of earlier
    conflicting accesses by other ranks that ``stamp`` has not observed
    (epoch test), then records this access.  A write conflicts with
    reads, writes and atomics; a read with writes and atomics; an
    atomic only with plain reads/writes.
    """
    reads, writes, atomics = tables.setdefault(region, ({}, {}, {}))
    if op == "a":
        against = (reads, writes)
    elif op == "r":
        against = (writes, atomics)
    else:
        against = (reads, writes, atomics)
    found = [
        prior
        for table in against
        for prior_rank, (prior_stamp, prior) in table.items()
        if prior_rank != rank and prior_stamp[prior_rank] > stamp[prior_rank]
    ]
    entry = (stamp, item)
    if op == "a":
        atomics[rank] = entry
    else:
        if op != "r":
            writes[rank] = entry
        if op != "w":
            reads[rank] = entry
    return found


def race_pass(events: list[TraceEvent], nprocs: int) -> list[Race]:
    """Every race of a captured trace, under the full edge set.

    Also applies the fence discipline: a release flag store with an
    unfenced one-sided write to the same target pending is reported as
    an ``unfenced-flag-store`` race against the latest such write.
    """
    races: list[Race] = []
    seen: set[tuple] = set()
    tables: dict[Hashable, tuple[dict, dict, dict]] = {}
    # (initiator, target) -> latest unfenced one-sided write
    pending: dict[tuple[int, int], Access] = {}

    def report(kind: str, region: Hashable, first: Access, second: Access) -> None:
        key = (kind, region, first.rank, first.site, second.rank, second.site)
        if key not in seen:
            seen.add(key)
            races.append(Race(kind=kind, region=region, first=first, second=second))

    for ev, clock in happens_before(events, nprocs):
        kind, rank, data = ev.kind, ev.rank, ev.data
        if kind == "access":
            region, op = data["region"], data["op"]
            access = Access(rank, op, region, ev.time, data["site"], tuple(clock.c))
            for prior in unordered_conflicts(tables, region, op, rank, access.vc, access):
                report("data-race", region, prior, access)
        elif kind == "put":
            target = data["target"]
            pending[(rank, target)] = Access(
                rank, "w", ("one-sided", rank, target), ev.time, data["site"],
                tuple(clock.c),
            )
        elif kind == "fence":
            if data["target"] is not None:
                pending.pop((rank, data["target"]), None)
            else:
                for key in [k for k in pending if k[0] == rank]:
                    del pending[key]
        elif kind == "flag-write" and data["release"] and data["target"] is not None:
            prior = pending.get((rank, data["target"]))
            if prior is not None:
                region = data["region"]
                store = Access(rank, "fw", region, ev.time, data["site"], tuple(clock.c))
                report("unfenced-flag-store", region, prior, store)
    return races


# ---------------------------------------------------------------------- #
# The one analysis observer
# ---------------------------------------------------------------------- #
class RaceDetector:
    """Engine-wide event capture; races are a pass over what it captured.

    Attach before :meth:`Engine.run` (it sets ``engine.detector``); read
    :attr:`races` (or :meth:`report`) after the run.  Costs nothing when
    not attached — every hook site reads ``engine.detector``, the same
    pattern as the tracer.  Capture is strictly observational: it
    performs no ``sync``/``advance`` and draws no randomness, so an
    observed run is bit-for-bit the run it observes.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.events: list[TraceEvent] = []
        #: Live observers (witness strategies); called with each event.
        self.listeners: list[Callable[[TraceEvent], None]] = []
        n = engine.nprocs
        self._idx = [0] * n
        self._held: list[list[str]] = [[] for _ in range(n)]
        self._locks: dict[Any, str] = {}  # mutex object -> lock key
        # wait-for monitor: rank -> lock key it is blocked on, and lock
        # key -> rank currently holding it
        self._waiting_on: dict[int, str] = {}
        self._holder_of: dict[str, int] = {}
        self._races: tuple[int, list[Race]] = (-1, [])

    @classmethod
    def attach(cls, engine: "Engine") -> "RaceDetector":
        """Enable race detection on ``engine`` (idempotent)."""
        inst = engine.detector
        if inst is None:
            inst = engine.detector = cls(engine)
            engine.note_observer()
        return inst

    def _emit(self, proc: "Proc", kind: str, data: dict[str, Any]) -> None:
        """Append one event (and notify live listeners)."""
        rank = proc.rank
        ev = TraceEvent(
            kind=kind,
            rank=rank,
            idx=self._idx[rank],
            seq=len(self.events),
            time=proc.now,
            held=tuple(self._held[rank]),
            data=data,
        )
        self._idx[rank] += 1
        self.events.append(ev)
        for fn in self.listeners:
            fn(ev)

    def _lock(self, mutex: Any) -> str:
        """The lock key of ``mutex``: its name, made unique per object.

        A second mutex with an already-taken name gets ``name#n``, so
        two objects never share a key in the monitor, the held sets or
        the walker's release clocks.
        """
        key = self._locks.get(mutex)
        if key is None:
            key, n = mutex.name, len(self._locks)
            while key in self._locks.values():
                key, n = f"{mutex.name}#{n}", n + 1
            self._locks[mutex] = key
        return key

    def on_mutex_request(self, proc: "Proc", mutex: Any) -> None:
        """A mutex was requested (pre-grant).

        A park that closes a wait-for cycle raises
        :class:`~repro.analyze.capture.PredictedDeadlockError` here:
        mutex waiters never time out, so the cycle *is* a deadlock, and
        raising early turns a hang into a replayable failure.
        """
        key = self._lock(mutex)
        holder = mutex.holder
        blocking = holder.rank if holder is not None else None
        self._emit(
            proc, "request", {"mutex": key, "host": mutex.host_rank, "blocking": blocking}
        )
        if blocking is None or blocking == proc.rank:
            return
        self._waiting_on[proc.rank] = key
        cycle = self._find_cycle(proc.rank)
        if cycle is not None:
            self._waiting_on.pop(proc.rank, None)
            raise PredictedDeadlockError(
                "lock-order cycle closed: "
                + " -> ".join(f"rank {r} waits {m}" for r, m in cycle)
            )

    def _find_cycle(self, start: int) -> list[tuple[int, str]] | None:
        """Walk rank-waits-lock-held-by-rank links from ``start``."""
        chain: list[tuple[int, str]] = []
        rank = start
        while rank in self._waiting_on and len(chain) <= self.engine.nprocs:
            key = self._waiting_on[rank]
            chain.append((rank, key))
            rank = self._holder_of.get(key)
            if rank == start:
                return chain
        return None

    def on_mutex_acquire(self, proc: "Proc", mutex: Any) -> None:
        key = self._lock(mutex)
        self._waiting_on.pop(proc.rank, None)
        self._holder_of[key] = proc.rank
        self._held[proc.rank].append(key)
        self._emit(proc, "acquire", {"mutex": key, "host": mutex.host_rank})

    def on_mutex_release(self, proc: "Proc", mutex: Any) -> None:
        key = self._lock(mutex)
        if key in self._held[proc.rank]:
            self._held[proc.rank].remove(key)
        if self._holder_of.get(key) == proc.rank:
            del self._holder_of[key]
        self._emit(proc, "release", {"mutex": key, "host": mutex.host_rank})

    def on_collective(self, procs: list["Proc"]) -> None:
        """Barrier/allreduce completion; a collective also fences."""
        for p in procs:
            self._emit(p, "fence", {"target": None})
        ranks = tuple(sorted(p.rank for p in procs))
        for p in procs:
            self._emit(p, "collective", {"ranks": ranks})

    def on_post(self, proc: "Proc", target: int, tag: str) -> None:
        self._emit(proc, "post", {"target": target, "tag": tag})

    def on_poll(self, proc: "Proc", tag: str) -> None:
        self._emit(proc, "poll", {"tag": tag})

    def on_rmw(self, proc: "Proc", target: int) -> None:
        """Open a remote-atomic bracket: the rank's lockset gains the
        pseudo-lock ``rmw[target]`` until the matching ``rmw-done``."""
        self._emit(proc, "rmw", {"target": target})
        self._held[proc.rank].append(f"rmw[{target}]")

    def on_rmw_done(self, proc: "Proc", target: int) -> None:
        pseudo = f"rmw[{target}]"
        if pseudo in self._held[proc.rank]:
            self._held[proc.rank].remove(pseudo)
        self._emit(proc, "rmw-done", {"target": target})

    def on_put(self, proc: "Proc", target: int) -> None:
        """An unfenced one-sided write, for the §5.3 fence discipline."""
        if target != proc.rank:
            self._emit(proc, "put", {"target": target, "site": _call_site()})

    def on_fence(self, proc: "Proc", target: int | None) -> None:
        """A fence completes this rank's one-sided ops (to ``target`` or all)."""
        self._emit(proc, "fence", {"target": target})

    def record(
        self, proc: "Proc", region: Hashable, op: str, site: str | None = None
    ) -> None:
        """Record a shared-region access.

        ``op`` is ``"r"``, ``"w"``, ``"rw"`` or ``"a"`` (atomic: races
        with plain accesses but not with other atomics).
        """
        self._emit(
            proc,
            "access",
            {"region": region, "op": op, "site": site if site is not None else _call_site()},
        )

    def flag_write(
        self, proc: "Proc", region: Hashable, target: int | None = None,
        release: bool = False,
    ) -> None:
        """A store to a termination/steal flag (a sync object).

        A *release* store (``release=True``, a remote dirty mark) must
        be fenced after the writer's earlier one-sided ops to
        ``target``, so it records its call site for that report.
        """
        data = {"region": region, "target": target, "release": release}
        if release and target is not None:
            data["site"] = _call_site()
        self._emit(proc, "flag-write", data)

    def flag_read(self, proc: "Proc", region: Hashable) -> None:
        """A load of a flag joins the stored clocks (acquire)."""
        self._emit(proc, "flag-read", {"region": region})

    def on_protocol(self, proc: "Proc", kind: str, data: dict) -> None:
        """A runtime-layer protocol event (steal transfer, vote, wave...).

        No happens-before effect; captured verbatim for the predictive
        passes and for witness-strategy gates.
        """
        self._emit(proc, "protocol", {"what": kind, **data})

    @property
    def races(self) -> list[Race]:
        """Every race in the events captured so far (:func:`race_pass`)."""
        seen, races = self._races
        if seen != len(self.events):
            races = race_pass(self.events, self.engine.nprocs)
            self._races = (len(self.events), races)
        return races

    @property
    def accesses(self) -> int:
        """Shared-region accesses captured so far."""
        return sum(1 for ev in self.events if ev.kind == "access")

    def report(self) -> str:
        """Human-readable summary of every race found."""
        races, accesses = self.races, self.accesses
        if not races:
            return f"no races ({accesses} shared accesses checked)"
        lines = [f"{len(races)} race(s) in {accesses} shared accesses:"]
        for i, race in enumerate(races):
            lines.append(f"  #{i + 1} {race.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Report deduplication
# ---------------------------------------------------------------------- #
def region_class(region: Hashable) -> tuple:
    """Collapse a region instance to its defect class.

    Region tuples carry instance coordinates (queue owner rank, flag
    owner rank, ...) as integers; one racy code path shows up once per
    instance.  Dropping the integer components groups those instances:
    ``("queue", "chk", 0)`` and ``("queue", "chk", 2)`` are the same
    defect at different owners.  Integer tuples (GA block origins) are
    instance coordinates too.
    """

    def coordinate(x) -> bool:
        return isinstance(x, int) or (
            isinstance(x, tuple) and all(isinstance(y, int) for y in x)
        )

    if isinstance(region, tuple):
        return tuple(x for x in region if not coordinate(x))
    return (region,)


@dataclass(frozen=True)
class RaceGroup:
    """All race instances sharing one (kind, region class, site pair)."""

    kind: str
    region_cls: tuple
    sites: tuple[str, str]
    count: int
    exemplar: Race

    def describe(self) -> str:
        suffix = f"  [x{self.count} instance(s)]" if self.count > 1 else ""
        return f"{self.exemplar.describe()}{suffix}"


def dedupe_races(races: list[Race]) -> list[RaceGroup]:
    """Group race reports by (site pair, region class) with counts.

    The site pair is order-insensitive so A-then-B and B-then-A
    observations of the same unordered pair collapse.  The first
    instance seen is kept as the exemplar; groups preserve first-seen
    order.
    """
    groups: dict[tuple, list[Race]] = {}
    for race in races:
        sites = tuple(sorted((race.first.site, race.second.site)))
        key = (race.kind, region_class(race.region), sites)
        groups.setdefault(key, []).append(race)
    return [
        RaceGroup(
            kind=key[0],
            region_cls=key[1],
            sites=key[2],
            count=len(members),
            exemplar=members[0],
        )
        for key, members in groups.items()
    ]

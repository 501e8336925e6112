"""The span recorder: nested virtual-time spans plus the metrics registry.

A :class:`Recorder` attaches to an engine exactly like the tracer and
the race detector: ``Recorder.attach(engine)`` before ``engine.run()``
sets ``engine.recorder`` (``None`` while recording is off).  The
runtime layers call the free functions in this module (:func:`span`,
:func:`observe`, :func:`count`, :func:`sample`, :func:`instant`) at
their interesting points; when no recorder is attached each call reads
one attribute and records nothing, so instrumented code stays safe on
hot paths.  The four hottest sites (task add, queue push and pop, task
exec) skip the free functions: behind ``engine.observed`` they read
``engine.tracer`` and ``engine.recorder`` once and call them directly,
and the task-exec site's spawn edge and span are one
:meth:`Recorder.open_task`.

Recording is an *observer* of virtual time: hooks only ever read
``proc.now`` — they never advance a clock, yield to the engine, or touch
an RNG — so enabling it leaves the deterministic schedule, all virtual
timings, and all `Counters` totals bit-for-bit unchanged (tested, and
checkable with ``python -m repro.obs verify``).

Span nesting is per rank: spans opened while another span of the same
rank is still open become its children (``depth``/``parent``), which is
what lets the Chrome-trace exporter draw one stacked track per rank.

Causal edges
------------

Besides per-rank spans, the recorder keeps the *cross-rank* causal
edges that turn the span stream into a happens-before DAG
(:mod:`repro.obs.critpath`).  Each :class:`EdgeRecord` connects a
source point ``(src_rank, src_time)`` to a destination point
``(dst_rank, dst_time)`` and carries a stable id (emission order,
deterministic because the schedule is).  The runtime layers emit them
at the five synchronization sites where one rank's progress causally
depends on another's:

* ``steal`` — a successful steal back to the victim-side release that
  made the tasks stealable (``core/queue.py``);
* ``msg`` — a mailbox message (termination token) from its post to the
  poll that consumed it (``armci/runtime.py``);
* ``lock`` — a contended mutex grant from the releaser to the woken
  waiter (``sim/resources.py``);
* ``spawn`` — a task's queue insertion to its execution
  (``core/queue.py`` → ``core/scheduler.py``);
* ``dirty`` — a §5.3 dirty mark landing in the victim's memory
  (``core/termination.py``).

Edges are metadata-only: emission reads ``proc.now`` and appends to a
list, exactly like spans, so a recorded run keeps the schedule of an
unrecorded one — ``repro.obs verify`` checks this.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc

__all__ = [
    "Recorder",
    "SpanRecord",
    "InstantRecord",
    "EdgeRecord",
    "span",
    "observe",
    "count",
    "sample",
    "instant",
    "causal_edge",
    "edge_mark",
    "edge_here",
    "edge_send",
    "edge_recv",
]


@dataclass(slots=True)
class SpanRecord:
    """One (possibly still open) recorded span."""

    rank: int
    name: str
    category: str
    start: float
    end: float | None = None
    depth: int = 0
    parent: int | None = None  #: sid of the enclosing span, or None
    detail: Any = None
    #: stable id (allocation order; equals the list index under the
    #: default in-memory sink — dropped spans never consume a sid).
    sid: int = -1

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


class InstantRecord(NamedTuple):
    """A zero-duration marker event (e.g. a dirty mark landing)."""

    time: float
    rank: int
    name: str
    category: str
    detail: Any = None


class EdgeRecord(NamedTuple):
    """One cross-rank happens-before edge (source point → destination)."""

    eid: int  #: stable id (emission order; deterministic per run)
    kind: str  #: steal | msg | lock | spawn | dirty
    src_rank: int
    src_time: float
    dst_rank: int
    dst_time: float
    detail: Any = None

    @property
    def latency(self) -> float:
        """The edge's measured causal delay (clamped to be non-negative)."""
        return max(self.dst_time - self.src_time, 0.0)


class _NullSpan:
    """Shared no-op context manager returned when recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager that closes its span at the rank's current time."""

    __slots__ = ("_rec", "_proc", "_span")

    def __init__(
        self, rec: "Recorder", proc: "Proc", span: "SpanRecord | None"
    ) -> None:
        self._rec = rec
        self._proc = proc
        self._span = span

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._rec.close(self._proc, self._span)
        return False


class Recorder:
    """Engine-wide span + metrics recorder (attach-based, off by default).

    Storage is delegated to a :class:`repro.obs.stream.SpanSink`: the
    default :class:`~repro.obs.stream.MemorySink` keeps the historical
    in-memory lists (``recorder.spans`` et al. stay list-like views of
    it) up to its ``capacity`` per record kind, while
    :class:`~repro.obs.stream.SpillSink` streams completed records to
    binary shards in constant memory.  The optional ``live``
    side-tap (a :class:`repro.obs.live.TelemetryBus`) publishes windowed
    metric frames at a virtual-time interval.
    """

    def __init__(
        self,
        engine: "Engine",
        sink: "Any | None" = None,
        live: "Any | None" = None,
    ) -> None:
        from repro.obs.stream import MemorySink  # sibling; cycle-free at call time

        self.engine = engine
        self.sink = sink if sink is not None else MemorySink()
        # The sink's capacity is the one loss rule; a sink that keeps all
        # (None) gets a bound no run reaches, so each hook makes one compare.
        cap = self.sink.capacity
        self._limit = sys.maxsize if cap is None else cap
        # Per-kind drop accounting; ``dropped`` is the aggregate.
        self.dropped_spans = 0
        self.dropped_instants = 0
        self.dropped_edges = 0
        self.metrics = MetricsRegistry()
        # Live telemetry bus: binds to the engine's per-event tick and
        # publishes interval frames to its feed (repro-obs-live/1).
        self.live = live
        if live is not None:
            live.bind(self)
        # Incremental tallies so exports never need the full span stream.
        self.span_count = 0
        self.instant_count = 0
        self.edge_count = 0
        self.category_counts: dict[str, int] = {}
        self._finished = False
        # per-rank stacks of open span records (None = dropped placeholder)
        self._stacks: list[list[SpanRecord | None]] = [
            [] for _ in range(engine.nprocs)
        ]
        # task uid -> (rank, time) of the queue insertion that made it
        # runnable: the source of its ``spawn`` edge.  The queue's insert
        # sites write it, :meth:`open_task` consumes it.
        self.spawn_sources: dict[int, tuple[int, float]] = {}
        # the ``task_time`` histogram, fetched on the first task
        self.task_time: Histogram | None = None
        # single-slot edge sources: key -> (rank, time, detail)
        self._edge_marks: dict[Any, tuple[int, float, Any]] = {}
        # FIFO edge sources mirroring message queues: key -> deque of sources
        self._edge_pending: dict[Any, deque[tuple[int, float, Any]]] = {}

    @classmethod
    def attach(
        cls,
        engine: "Engine",
        sink: "Any | None" = None,
        live: "Any | None" = None,
    ) -> "Recorder":
        """Enable recording on ``engine`` (idempotent)."""
        inst = engine.recorder
        if inst is None:
            inst = engine.recorder = cls(engine, sink=sink, live=live)
            engine.note_observer()
        return inst

    # ------------------------------------------------------------------ #
    # Storage views (delegate to the sink)
    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> list[SpanRecord]:
        """Every recorded span in allocation (``sid``) order.

        Under the default :class:`~repro.obs.stream.MemorySink` this is
        the sink's live list (``sid`` == list index); a spill sink
        materializes its shards on each access, so prefer the streaming
        readers for large runs.
        """
        return self.sink.span_stream()

    @property
    def instants(self) -> list[InstantRecord]:
        return self.sink.instant_stream()

    @property
    def edges(self) -> list[EdgeRecord]:
        return self.sink.edge_stream()

    @property
    def dropped(self) -> int:
        """Total records refused by the sink (spans + instants + edges)."""
        return self.dropped_spans + self.dropped_instants + self.dropped_edges

    def finish(self) -> None:
        """Finalize the recording (idempotent): emit the last telemetry
        frame and seal the sink's footer index (a no-op for the
        in-memory sink)."""
        if self._finished:
            return
        self._finished = True
        if self.live is not None:
            self.live.finish()
        self.sink.seal(
            {
                "nprocs": self.engine.nprocs,
                "spans": self.span_count,
                "instants": self.instant_count,
                "edges": self.edge_count,
                "dropped": self.dropped,
                "dropped_spans": self.dropped_spans,
                "dropped_instants": self.dropped_instants,
                "dropped_edges": self.dropped_edges,
                "category_counts": dict(sorted(self.category_counts.items())),
            }
        )

    # ------------------------------------------------------------------ #
    # Span API
    # ------------------------------------------------------------------ #
    def span(self, proc: "Proc", name: str, category: str, detail: Any = None) -> _OpenSpan:
        """Open a span on ``proc``'s rank; close it by exiting the context."""
        return _OpenSpan(self, proc, self._open(proc, name, category, detail))

    def open_task(self, proc: "Proc", uid: int) -> SpanRecord | None:
        """The task-exec site: emit task ``uid``'s ``spawn`` edge and open
        its ``task`` span.  The caller closes it with :meth:`close` (in a
        ``finally``, as ``with span(...)`` would) and observes its time
        into :attr:`task_time`."""
        src = self.spawn_sources.pop(uid, None)
        if src is not None:
            self.add_edge("spawn", src[0], src[1], proc.rank, proc._clock, uid)
        if self.task_time is None:
            self.task_time = self.metrics.histogram("task_time")
        return self._open(proc, "task", "task", uid)

    def _open(
        self, proc: "Proc", name: str, category: str, detail: Any
    ) -> SpanRecord | None:
        """Push a new span (or a dropped placeholder, None) on the rank's stack."""
        stack = self._stacks[proc.rank]
        sid = self.span_count
        if sid >= self._limit:
            self.dropped_spans += 1
            stack.append(None)
            return None
        # The capacity is fixed and span_count only grows, so no span opens
        # after a drop: the stack below holds no placeholders.
        parent = stack[-1].sid if stack else None
        rec = SpanRecord(
            proc.rank, name, category, proc._clock, None, len(stack), parent, detail, sid
        )
        self.span_count = sid + 1
        counts = self.category_counts
        counts[category] = counts.get(category, 0) + 1
        self.sink.on_open(rec)
        stack.append(rec)
        return rec

    def close(self, proc: "Proc", span: SpanRecord | None) -> None:
        """Close ``span`` (the top of its rank's stack) at the rank's time."""
        stack = self._stacks[proc.rank]
        if not stack or stack[-1] is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span close out of order on rank {proc.rank}: "
                f"closing {span}, top of stack is {stack[-1] if stack else None}"
            )
        stack.pop()
        if span is not None:
            span.end = proc._clock
            self.sink.on_close(span)

    def complete_span(
        self,
        proc: "Proc",
        name: str,
        category: str,
        start: float,
        detail: Any = None,
    ) -> None:
        """Record an already-finished span from ``start`` to ``proc.now``.

        For protocol intervals that do not nest with the call stack —
        e.g. a termination wave (launched in one scheduler iteration,
        completed in a later one) or a contended lock wait.  Recorded at
        depth 0; it still lands on the rank's track in the exports.
        """
        sid = self.span_count
        if sid >= self._limit:
            self.dropped_spans += 1
            return
        rec = SpanRecord(
            proc.rank, name, category, start, proc.now, 0, None, detail, sid
        )
        self.span_count = sid + 1
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        self.sink.on_complete(rec)

    def instant_event(
        self, proc: "Proc", name: str, category: str, detail: Any = None
    ) -> None:
        """Record a zero-duration marker at the rank's current time."""
        if self.instant_count >= self._limit:
            self.dropped_instants += 1
            return
        rec = InstantRecord(proc.now, proc.rank, name, category, detail)
        self.instant_count += 1
        self.sink.on_instant(rec)

    # ------------------------------------------------------------------ #
    # Causal-edge API (metadata-only; see module docstring)
    # ------------------------------------------------------------------ #
    def add_edge(
        self,
        kind: str,
        src_rank: int,
        src_time: float,
        dst_rank: int,
        dst_time: float,
        detail: Any = None,
    ) -> None:
        """Record one happens-before edge with a stable, monotone id."""
        eid = self.edge_count
        if eid >= self._limit:
            self.dropped_edges += 1
            return
        self.edge_count = eid + 1
        self.sink.on_edge(
            EdgeRecord(eid, kind, src_rank, src_time, dst_rank, dst_time, detail)
        )

    def mark(self, key: Any, proc: "Proc", detail: Any = None) -> None:
        """Remember ``proc``'s current point as the source for ``key``."""
        self._edge_marks[key] = (proc.rank, proc.now, detail)

    def edge_from_mark(
        self, key: Any, proc: "Proc", kind: str, detail: Any = None
    ) -> None:
        """Emit an edge from the remembered source for ``key`` to here."""
        src = self._edge_marks.get(key)
        if src is None:
            return
        self.add_edge(
            kind, src[0], src[1], proc.rank, proc.now,
            detail=detail if detail is not None else src[2],
        )

    def push_pending(self, key: Any, proc: "Proc", detail: Any = None) -> None:
        """FIFO variant of :meth:`mark`, mirroring a message queue."""
        self._edge_pending.setdefault(key, deque()).append(
            (proc.rank, proc.now, detail)
        )

    def edge_from_pending(
        self, key: Any, proc: "Proc", kind: str, detail: Any = None
    ) -> None:
        """Pop the oldest pending source for ``key`` and emit an edge.

        The pending queue is appended on send and popped on receive in
        the same virtual-time order as the underlying mailbox deque, so
        sources and destinations pair up exactly.
        """
        q = self._edge_pending.get(key)
        if not q:
            return
        src = q.popleft()
        self.add_edge(
            kind, src[0], src[1], proc.rank, proc.now,
            detail=detail if detail is not None else src[2],
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def stream_fingerprint(self) -> tuple:
        """The span/instant stream as comparable structure.

        Span ``detail`` is excluded: task uids are allocated from a
        process-wide counter, so two otherwise identical runs in one
        process record different uids.  Everything structural — rank,
        name, category, timing, nesting — is covered, which is what the
        spilled vs. in-memory equality check in ``repro.obs verify``
        needs.
        """
        return (
            tuple(
                (s.rank, s.name, s.category, s.start, s.end, s.depth, s.parent)
                for s in self.spans
            ),
            tuple((i.time, i.rank, i.name, i.category) for i in self.instants),
        )


# ---------------------------------------------------------------------- #
# Free-function hooks (zero-cost when no recorder is attached)
# ---------------------------------------------------------------------- #
def span(proc: "Proc", name: str, category: str = "runtime", detail: Any = None):
    """Context manager recording a span on ``proc``'s rank (no-op when off)."""
    rec = proc.engine.recorder
    if rec is None:
        return _NULL_SPAN
    return rec.span(proc, name, category, detail)


def observe(proc: "Proc", name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.metrics.observe(name, value, rank=proc.rank)


def count(proc: "Proc", name: str, amount: float = 1.0) -> None:
    """Increment obs counter ``name`` for ``proc``'s rank (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.metrics.add(proc.rank, name, amount)


def sample(proc: "Proc", name: str, value: float) -> None:
    """Set gauge ``name`` on ``proc``'s rank to ``value`` (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.metrics.sample(name, proc.rank, value)


def instant(proc: "Proc", name: str, category: str = "runtime", detail: Any = None) -> None:
    """Record a zero-duration marker event (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.instant_event(proc, name, category, detail)


def causal_edge(
    proc: "Proc",
    kind: str,
    src_rank: int,
    src_time: float,
    detail: Any = None,
) -> None:
    """Record an edge from ``(src_rank, src_time)`` to here (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.add_edge(kind, src_rank, src_time, proc.rank, proc.now, detail)


def edge_mark(proc: "Proc", key: Any, detail: Any = None) -> None:
    """Remember this point as the edge source for ``key`` (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.mark(key, proc, detail)


def edge_here(proc: "Proc", key: Any, kind: str, detail: Any = None) -> None:
    """Emit an edge from ``key``'s remembered source to here (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.edge_from_mark(key, proc, kind, detail=detail)


def edge_send(proc: "Proc", key: Any, detail: Any = None) -> None:
    """FIFO-enqueue this point as a pending edge source (no-op when off)."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.push_pending(key, proc, detail)


def edge_recv(proc: "Proc", key: Any, kind: str, detail: Any = None) -> None:
    """Emit an edge from the oldest pending source for ``key`` to here."""
    rec = proc.engine.recorder
    if rec is not None:
        rec.edge_from_pending(key, proc, kind, detail=detail)

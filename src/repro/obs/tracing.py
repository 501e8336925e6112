"""Optional structured event tracing for simulations.

Hook points in every layer (queue operations, steals, termination
tokens, task dispatch) call :func:`trace`.  An engine's :class:`Tracer`
numbers each event and hands it, as it happens, to the event list that
:meth:`Tracer.attach` keeps (read back as :attr:`Tracer.events`) and to
the callbacks of :meth:`Tracer.subscribe` for the kinds they name — the
model checker's invariants, which keep no list.  Every consumer joins
before the first event; a later one would miss events and is refused.
Tracing is off unless something joins, costs nothing when off, and
does not perturb virtual time — it is an observer, not a participant.

Example::

    eng = Engine(4)
    tracer = Tracer.attach(eng)
    ...
    eng.spawn_all(main)
    eng.run()
    steals = [e for e in tracer.events if e.kind == "steal"]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Proc

__all__ = ["Tracer", "TraceEvent", "trace"]

#: A subscriber: ``on_event(i, rank, kind, detail)``.
OnEvent = Callable[[int, int, str, Any], None]


class TraceEvent(NamedTuple):
    """One recorded event (an immutable row)."""

    time: float
    rank: int
    kind: str
    detail: Any = None


class Tracer:
    """Engine-wide event numbering and dispatch (``engine.tracer``)."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Events recorded so far; the next event's index.
        self.count = 0
        self._subscribers: dict[str, list[OnEvent]] = {}
        # One column per field, not one object per event: 10^5 record
        # objects are re-scanned by every full cyclic collection of the
        # run, four lists are not (and take half the memory).
        self._cols: tuple[list, list, list, list] | None = None

    @classmethod
    def _joined(cls, engine: "Engine", what: str) -> "Tracer":
        """The engine's tracer (created on first use), refusing a
        consumer that would miss the events already recorded."""
        inst = engine.tracer
        if inst is None:
            inst = engine.tracer = cls(engine)
            engine.note_observer()
        elif inst.count:
            raise RuntimeError(
                f"{what} joins the tracer after {inst.count} events were "
                "recorded; it would miss them"
            )
        return inst

    @classmethod
    def attach(cls, engine: "Engine") -> "Tracer":
        """Enable tracing on ``engine`` and keep every event (idempotent)."""
        inst = engine.tracer
        if inst is None or inst._cols is None:
            inst = cls._joined(engine, "the event list")
            inst._cols = ([], [], [], [])
        return inst

    @classmethod
    def subscribe(cls, engine: "Engine", kinds: Iterable[str], on_event: OnEvent) -> "Tracer":
        """Call ``on_event(i, rank, kind, detail)`` for each event of
        ``kinds`` recorded on ``engine`` from now on; ``i`` is the
        event's position among all its events.

        Raises:
            RuntimeError: If the engine has already recorded an event.
        """
        inst = cls._joined(engine, "a subscriber")
        for kind in kinds:
            inst._subscribers.setdefault(kind, []).append(on_event)
        return inst

    def record(self, proc: "Proc", kind: str, detail: Any = None) -> None:
        """Record an event at the process's current virtual time."""
        i = self.count
        self.count = i + 1
        cols = self._cols
        if cols is not None:
            times, ranks, kinds, details = cols
            times.append(proc.now)
            ranks.append(proc.rank)
            kinds.append(kind)
            details.append(detail)
        subscribers = self._subscribers.get(kind)
        if subscribers is not None:
            for on_event in subscribers:
                on_event(i, proc.rank, kind, detail)

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event in emission order (a fresh list per access).

        Raises:
            RuntimeError: If the list was not asked for by :meth:`attach`.
        """
        if self._cols is None:
            raise RuntimeError("the tracer keeps its events only after Tracer.attach")
        return list(map(TraceEvent, *self._cols))


def trace(proc: "Proc", kind: str, detail: Any = None) -> None:
    """Record an event if the engine has a tracer attached (else no-op).

    This is the hook the runtime layers call; keep it on hot paths only
    where an event is semantically meaningful (steals, tokens, transfers).
    """
    tracer = proc.engine.tracer
    if tracer is not None:
        tracer.record(proc, kind, detail)

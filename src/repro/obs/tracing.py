"""Optional structured event tracing for simulations.

Attach a :class:`Tracer` to an engine to record timestamped events from
any layer (queue operations, steals, termination tokens, GA transfers),
then render a per-rank timeline or export the raw records.  Tracing is
off unless attached, costs nothing when off, and does not perturb
virtual time — it is an observer, not a participant.

Example::

    eng = Engine(4)
    tracer = Tracer.attach(eng)
    ...
    eng.spawn_all(main)
    eng.run()
    print(tracer.render(limit=50))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Proc

__all__ = ["Tracer", "TraceEvent", "trace"]


class TraceEvent(NamedTuple):
    """One recorded event (an immutable row)."""

    time: float
    rank: int
    kind: str
    detail: Any = None


class Tracer:
    """Engine-wide event recorder."""

    _KEY = "tracer"

    def __init__(self, engine: "Engine", capacity: int = 1_000_000) -> None:
        self.engine = engine
        self.capacity = capacity
        # One column per field, not one object per event: 10^5 record
        # objects are re-scanned by every full cyclic collection of the
        # run, four lists are not (and take half the memory).
        self._cols: tuple[list, list, list, list] = ([], [], [], [])
        self.dropped = 0

    @classmethod
    def attach(cls, engine: "Engine", capacity: int = 1_000_000) -> "Tracer":
        """Enable tracing on ``engine`` (idempotent)."""
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine, capacity)
            engine.state[cls._KEY] = inst
            engine.note_observer()
        return inst

    @classmethod
    def of(cls, engine: "Engine") -> "Tracer | None":
        """The engine's tracer, or None if tracing is off."""
        return engine.state.get(cls._KEY)

    def record(self, proc: "Proc", kind: str, detail: Any = None) -> None:
        """Record an event at the process's current virtual time.

        Events past ``capacity`` are counted in :attr:`dropped` (and
        reported by :meth:`render`) rather than silently discarded.
        """
        times, ranks, kinds, details = self._cols
        if len(times) >= self.capacity:
            self.dropped += 1
            return
        times.append(proc.now)
        ranks.append(proc.rank)
        kinds.append(kind)
        details.append(detail)

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event in emission order (a fresh list per access)."""
        return list(map(TraceEvent, *self._cols))

    # ------------------------------------------------------------------ #
    # Queries and rendering
    # ------------------------------------------------------------------ #
    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_rank(self, rank: int) -> list[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for kind in self._cols[2]:
            out[kind] = out.get(kind, 0) + 1
        return out

    def render(self, limit: int | None = None, kinds: set[str] | None = None) -> str:
        """Render events (time-ordered) as an aligned text timeline."""
        events = sorted(self.events, key=lambda e: (e.time, e.rank))
        if kinds is not None:
            events = [e for e in events if e.kind in kinds]
        if limit is not None:
            events = events[:limit]
        lines = [f"{'time(us)':>10}  {'rank':>4}  {'event':<18}  detail"]
        for e in events:
            detail = "" if e.detail is None else str(e.detail)
            lines.append(f"{e.time * 1e6:10.3f}  {e.rank:4d}  {e.kind:<18}  {detail}")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity {self.capacity})")
        return "\n".join(lines)


def trace(proc: "Proc", kind: str, detail: Any = None) -> None:
    """Record an event if the engine has a tracer attached (else no-op).

    This is the hook the runtime layers call; keep it on hot paths only
    where an event is semantically meaningful (steals, tokens, transfers).
    """
    tracer = proc.engine.state.get(Tracer._KEY)
    if tracer is not None:
        tracer.record(proc, kind, detail)

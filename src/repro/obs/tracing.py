"""Optional structured event tracing for simulations.

Attach a :class:`Tracer` to an engine to record timestamped events from
any layer (queue operations, steals, termination tokens, GA transfers)
and read them back as :attr:`Tracer.events`.  Tracing is off unless
attached, costs nothing when off, and does not perturb virtual time —
it is an observer, not a participant.  The tracer keeps every event:
the model checker replays the whole list, so a bound would turn lost
events into false violations.

Example::

    eng = Engine(4)
    tracer = Tracer.attach(eng)
    ...
    eng.spawn_all(main)
    eng.run()
    steals = [e for e in tracer.events if e.kind == "steal"]
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

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        # One column per field, not one object per event: 10^5 record
        # objects are re-scanned by every full cyclic collection of the
        # run, four lists are not (and take half the memory).
        self._cols: tuple[list, list, list, list] = ([], [], [], [])

    @classmethod
    def attach(cls, engine: "Engine") -> "Tracer":
        """Enable tracing on ``engine`` (idempotent)."""
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine)
            engine.state[cls._KEY] = inst
            engine.note_observer()
        return inst

    @classmethod
    def of(cls, engine: "Engine") -> "Tracer | None":
        """The engine's tracer, or None if tracing is off."""
        return engine.state.get(cls._KEY)

    def record(self, proc: "Proc", kind: str, detail: Any = None) -> None:
        """Record an event at the process's current virtual time."""
        times, ranks, kinds, details = self._cols
        times.append(proc.now)
        ranks.append(proc.rank)
        kinds.append(kind)
        details.append(detail)

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event in emission order (a fresh list per access)."""
        return list(map(TraceEvent, *self._cols))


def trace(proc: "Proc", kind: str, detail: Any = None) -> None:
    """Record an event if the engine has a tracer attached (else no-op).

    This is the hook the runtime layers call; keep it on hot paths only
    where an event is semantically meaningful (steals, tokens, transfers).
    """
    tracer = proc.engine.state.get(Tracer._KEY)
    if tracer is not None:
        tracer.record(proc, kind, detail)

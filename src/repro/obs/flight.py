"""Crash flight recorder: the last moments of a run, always on disk.

A :class:`FlightRecorder` keeps a bounded per-rank ring of the most
recently *completed* spans and instants (``deque(maxlen=...)`` — memory
is constant regardless of run length).  The recorder taps it on every
close, and :meth:`dump` serializes the rings atomically
(:data:`FLIGHT_SCHEMA`) when something goes wrong:

* engine failure — deadlock (``SimDeadlockError``), event-budget
  exhaustion, a predicted deadlock raised by the concurrency predictor
  (``PredictedDeadlockError``), or any exception escaping a proc: the
  engine's ``failure_hooks`` fire before ``run()`` re-raises
  (:meth:`repro.obs.record.Recorder.set_flight` registers the hook);
* invariant failure — the model checker's post-hoc invariant sweep
  (:mod:`repro.check.runner`) dumps when a violation is found;
* fleet worker crash — workers dump *periodically* (every
  ``flush_every`` records), so a SIGKILL'd worker — which gets no
  chance to run failure hooks — still leaves its most recent rings on
  disk; the fleet parent adds a crash report next to it
  (:mod:`repro.fleet.scheduler`).

Attachment is environment-driven so any entry point (CLI runs, check
campaigns, fleet workers) picks it up without plumbing:
:func:`maybe_attach_flight` reads :data:`ENV_FLIGHT_DIR` and attaches a
flight-tapped recorder (storage-free :class:`~repro.obs.stream.NullSink`
when no recorder was requested — the ring is the only retention, so
flight recording never unbounds memory).
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.record import InstantRecord, Recorder, SpanRecord
from repro.util.io import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = [
    "FLIGHT_SCHEMA",
    "ENV_FLIGHT_DIR",
    "ENV_FLIGHT_FLUSH",
    "FlightRecorder",
    "flight_from_env",
    "maybe_attach_flight",
    "load_flight_dump",
]

#: Schema tag stamped into every flight dump.
FLIGHT_SCHEMA = "repro-obs-flight/1"

#: Environment variable naming the directory flight dumps land in.
#: Set by the user (or by fleet workers) to arm the flight recorder in
#: every engine run of the process.
ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"

#: Environment variable overriding the periodic-flush cadence for
#: env-attached recorders.  Fleet workers set it so a SIGKILL mid-run
#: still leaves a recent dump (a killed process runs no failure hooks).
ENV_FLIGHT_FLUSH = "REPRO_FLIGHT_FLUSH_EVERY"


class FlightRecorder:
    """Bounded per-rank ring of recent records, dumped on failure.

    Args:
        path: Dump destination (rewritten atomically on each dump).
        per_rank: Ring capacity per rank — the N most recent completed
            spans/instants of each rank survive.
        flush_every: When > 0, rewrite the dump (reason ``"periodic"``)
            every that-many records, so even a SIGKILL — no hooks, no
            atexit — leaves a recent snapshot on disk.
    """

    def __init__(
        self, path: str | Path, per_rank: int = 256, flush_every: int = 0
    ) -> None:
        self.path = Path(path)
        self.per_rank = per_rank
        self.flush_every = flush_every
        self._rings: dict[int, deque] = {}
        self.records_seen = 0
        self.dumps = 0
        self.context: dict[str, Any] = {}
        #: Most recent live-telemetry frame (set by the telemetry bus);
        #: included in dumps so a post-mortem shows load state at death.
        self.latest_frame: dict | None = None

    def _ring(self, rank: int) -> deque:
        ring = self._rings.get(rank)
        if ring is None:
            ring = deque(maxlen=self.per_rank)
            self._rings[rank] = ring
        return ring

    def record_span(self, span: SpanRecord) -> None:
        """Ring a completed span (called by the recorder on close)."""
        self._record(
            span.rank,
            {
                "kind": "span",
                "name": span.name,
                "cat": span.category,
                "start": span.start,
                "end": span.end,
                "depth": span.depth,
                "detail": None if span.detail is None else str(span.detail),
            },
        )

    def record_instant(self, inst: InstantRecord) -> None:
        self._record(
            inst.rank,
            {
                "kind": "instant",
                "name": inst.name,
                "cat": inst.category,
                "time": inst.time,
                "detail": None if inst.detail is None else str(inst.detail),
            },
        )

    def record_frame(self, frame: dict) -> None:
        """Remember the latest live-telemetry frame (not ring-counted)."""
        self.latest_frame = frame

    def _record(self, rank: int, entry: dict) -> None:
        self._ring(rank).append(entry)
        self.records_seen += 1
        if self.flush_every and self.records_seen % self.flush_every == 0:
            self.dump("periodic")

    def dump(
        self, reason: str, error: str | None = None, context: dict | None = None
    ) -> Path:
        """Write the rings to :attr:`path` atomically; return the path."""
        doc = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "error": error,
            "pid": os.getpid(),
            "records_seen": self.records_seen,
            "per_rank": self.per_rank,
            # Arm-time configuration, so a dump is self-describing even
            # when the invocation that armed it is long gone.
            "config": {
                "path": str(self.path),
                "per_rank": self.per_rank,
                "flush_every": self.flush_every,
            },
            "context": {**self.context, **(context or {})},
            # Load state at death: the last frame the telemetry bus
            # published before the failure (None when the bus is off).
            "telemetry": self.latest_frame,
            "rings": {
                str(rank): list(self._rings[rank])
                for rank in sorted(self._rings)
            },
        }
        atomic_write_text(self.path, json.dumps(doc, indent=2))
        self.dumps += 1
        return self.path


def load_flight_dump(path: str | Path) -> dict:
    """Read and schema-check one flight dump.

    Raises:
        ValueError: Naming ``path``, for torn JSON, a document that is
            not a JSON object, an unsupported schema, or no ``rings``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: torn or garbled flight dump: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: a flight dump is a JSON object, not {type(doc).__name__}"
        )
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported flight schema {doc.get('schema')!r}; "
            f"expected {FLIGHT_SCHEMA}"
        )
    if "rings" not in doc:
        raise ValueError(f"{path}: missing required key rings")
    return doc


def flight_from_env(
    context: str = "run",
    per_rank: int = 256,
    flush_every: int = 0,
    extra: dict | None = None,
) -> FlightRecorder | None:
    """Build a flight recorder from the environment, or ``None``.

    Returns a recorder dumping to ``flight-<context>-pid<pid>.json``
    under :data:`ENV_FLIGHT_DIR` (so concurrent processes — fleet
    workers — never collide), with the flush cadence taken from
    :data:`ENV_FLIGHT_FLUSH` unless ``flush_every`` overrides it.
    """
    flight_dir = os.environ.get(ENV_FLIGHT_DIR)
    if not flight_dir:
        return None
    if flush_every == 0:
        try:
            flush_every = int(os.environ.get(ENV_FLIGHT_FLUSH, "0"))
        except ValueError:
            flush_every = 0
    directory = Path(flight_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in context)
    flight = FlightRecorder(
        directory / f"flight-{safe}-pid{os.getpid()}.json",
        per_rank=per_rank,
        flush_every=flush_every,
    )
    flight.context = {"context": context, **(extra or {})}
    return flight


def maybe_attach_flight(
    engine: "Engine",
    context: str = "run",
    per_rank: int = 256,
    flush_every: int = 0,
    extra: dict | None = None,
) -> FlightRecorder | None:
    """Arm the flight recorder on ``engine`` when :data:`ENV_FLIGHT_DIR` is set.

    Reuses the engine's recorder when one is attached (any sink); when
    none is, attaches one with a :class:`~repro.obs.stream.NullSink` so
    flight recording adds only the ring's constant memory.
    """
    flight = flight_from_env(
        context, per_rank=per_rank, flush_every=flush_every, extra=extra
    )
    if flight is None:
        return None
    rec = Recorder.of(engine)
    if rec is None:
        from repro.obs.stream import NullSink

        rec = Recorder.attach(engine, sink=NullSink(), flight=flight)
    else:
        rec.set_flight(flight)
    return flight

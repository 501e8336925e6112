"""The captured trace: the one event list every analysis reads.

Each runtime hook of the race detector
(:class:`~repro.analyze.race.RaceDetector`, the only analysis observer)
appends one :class:`TraceEvent` to ``detector.events``; race detection
and the predictive passes are computed from that list after the run.

Event kinds
-----------

========================  =============================================
``request``               mutex requested (pre-grant; ``blocking`` names
                          the current holder when the caller will park)
``acquire`` / ``release`` mutex granted / released
``access``                shared-region access (``op`` r/w/rw/a, ``site``)
``flag-write``            termination/steal flag store (``release``,
                          ``target``; a release store with a target
                          carries its ``site``)
``flag-read``             flag load (acquire join)
``post`` / ``poll``       mailbox deposit / receive
``fence`` / ``collective``one-sided fence / barrier-allreduce (each
                          participant's ``collective`` follows its
                          implied ``fence``)
``rmw`` / ``rmw-done``    remote atomic bracket at ``target``
``put``                   unfenced one-sided write issue (``site``)
``protocol``              runtime-layer protocol event (steal-transfer,
                          mark-decision, vote, wave-start, wave-down,
                          wave-complete, td-send, queue-release, ...)
========================  =============================================

Mutexes are identified by object, not by name: an event's ``mutex`` and
the ``held`` locksets carry a *lock key* — the mutex's name, suffixed
``#n`` when another mutex of the same engine already took that name.
While a rank sits inside an ``rmw`` bracket its lockset gains the
pseudo-lock ``rmw[target]`` — reservation atomics serialize exactly
like a lock at the target, which is what lets the lockset pass treat
wait-free queues as disciplined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ReproError

__all__ = ["TraceEvent", "PredictedDeadlockError"]


class PredictedDeadlockError(ReproError):
    """A lock-acquisition cycle closed during a monitored run."""


@dataclass(frozen=True)
class TraceEvent:
    """One captured event of an instrumented run."""

    kind: str
    rank: int
    #: Per-rank local sequence number (program order within the rank).
    idx: int
    #: Global sequence number (execution order across ranks).
    seq: int
    time: float
    #: Lock keys (and rmw pseudo-locks) held by ``rank`` here.
    held: tuple[str, ...]
    data: dict[str, Any] = field(default_factory=dict)

"""Exception hierarchy for the repro package.

All package-specific exceptions derive from :class:`ReproError` so callers
can catch everything from this library with one handler.  Simulator control
flow uses :class:`SimShutdown`, which derives from ``BaseException`` on
purpose: it must not be swallowed by application-level ``except Exception``
blocks inside simulated processes.

The ``check_*`` functions are the value domains that the runtime and the
``python -m repro.*`` command lines share: each returns its value or
raises ``ValueError("<field> must be <domain>, got <value>")``, and nan
fails every one of them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimError(ReproError):
    """Base class for simulator errors."""


class SimDeadlockError(SimError):
    """The simulation cannot make progress.

    Raised by the engine when no process is runnable but at least one
    process has not finished (i.e. every remaining process is parked
    waiting for a wake-up that can never arrive).  The message lists the
    parked processes and where they blocked, which makes protocol bugs
    (lost wake-ups, circular lock waits) easy to diagnose in tests.

    Attributes:
        parked: ``[(rank, blocked_at), ...]`` for every unfinished
            process, in rank order.  Lets tools (``repro.check``) compare
            deadlocks structurally instead of parsing the message.
    """

    def __init__(self, message: str, parked: list[tuple[int, str | None]] | None = None):
        super().__init__(message)
        self.parked = parked if parked is not None else []


class SimLimitError(SimError):
    """A configured simulation limit (events or virtual time) was exceeded.

    Used as a safety net in tests so that a livelocked protocol fails fast
    instead of hanging the test suite.
    """


class SimShutdown(BaseException):
    """Internal signal used to unwind simulated process threads.

    Raised inside a process thread when the engine tears the simulation
    down (either normally or after another process raised).  Never leaks
    out of :meth:`repro.sim.engine.Engine.run`.
    """


class CommError(ReproError):
    """Error in the communication substrate (armci / mpi / ga layers)."""


class TaskCollectionError(ReproError):
    """Misuse of the Scioto task-collection API."""


def check_domain(ok: bool, field: str, domain: str, value):
    """Return ``value`` if ``ok``, else raise ``"<field> must be <domain>"``."""
    if not ok:
        raise ValueError(f"{field} must be {domain}, got {value}")
    return value


def check_count(field: str, value: int) -> int:
    return check_domain(value >= 1, field, ">= 1", value)


def check_seed(field: str, value: int) -> int:
    return check_domain(value >= 0, field, ">= 0", value)  # numpy's SeedSequence domain


def check_positive(field: str, value: float) -> float:
    return check_domain(0.0 < value < float("inf"), field, "a finite number > 0", value)


def check_non_negative(field: str, value: float) -> float:
    return check_domain(0.0 <= value < float("inf"), field, "a finite number >= 0", value)

"""Zero-cost-when-off access hooks for the race detector.

The runtime layers (``repro.core``, ``repro.ga``, ``repro.armci``,
``repro.sim``) call these free functions at every shared-state touch
point.  When no :class:`~repro.analyze.race.RaceDetector` is attached
to the engine the cost is one read of ``engine.detector`` (None) — the
same pattern the structured tracer uses — so instrumented code is safe
on hot paths.

This module deliberately imports nothing, neither the runtime layers
nor the detector, so that any runtime layer can import it without
cycles and without loading the analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Proc

__all__ = [
    "shared_read",
    "shared_write",
    "shared_update",
    "shared_atomic",
    "flag_write",
    "flag_read",
    "protocol",
]


def shared_read(proc: "Proc", region: Hashable, site: str | None = None) -> None:
    """Record a read of an ARMCI shared region."""
    det = proc.engine.detector
    if det is not None:
        det.record(proc, region, "r", site)


def shared_write(proc: "Proc", region: Hashable, site: str | None = None) -> None:
    """Record a write of an ARMCI shared region."""
    det = proc.engine.detector
    if det is not None:
        det.record(proc, region, "w", site)


def shared_update(proc: "Proc", region: Hashable, site: str | None = None) -> None:
    """Record a read-modify-write of an ARMCI shared region."""
    det = proc.engine.detector
    if det is not None:
        det.record(proc, region, "rw", site)


def shared_atomic(proc: "Proc", region: Hashable, site: str | None = None) -> None:
    """Record a target-side-serialized (atomic) access, e.g. a GA acc."""
    det = proc.engine.detector
    if det is not None:
        det.record(proc, region, "a", site)


def flag_write(
    proc: "Proc",
    region: Hashable,
    target: int | None = None,
    release: bool = False,
) -> None:
    """Record a store to a termination/steal flag (a sync object)."""
    det = proc.engine.detector
    if det is not None:
        det.flag_write(proc, region, target, release)


def flag_read(proc: "Proc", region: Hashable) -> None:
    """Record a load of a termination/steal flag (acquire join)."""
    det = proc.engine.detector
    if det is not None:
        det.flag_read(proc, region)


def protocol(proc: "Proc", kind: str, **data) -> None:
    """Record a runtime-protocol event (steal transfer, vote, wave).

    Read by the predictive passes and witness strategies; has no
    happens-before effect and costs one attribute read when analysis is off.
    """
    det = proc.engine.detector
    if det is not None:
        det.on_protocol(proc, kind, data)

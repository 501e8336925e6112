"""Runtime configuration of a Scioto task collection."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SciotoConfig"]


@dataclass(frozen=True)
class SciotoConfig:
    """Knobs controlling queueing, stealing, and termination detection.

    Thieves always pick a victim uniformly at random (§5.1); see
    :mod:`repro.core.stealing`.

    Attributes:
        split_queues: Use the paper's split (private/shared) queues.  When
            False, every queue operation — including the owner's — locks
            the queue (the paper's original implementation, the "No Split"
            line of Figure 7).
        load_balancing: Enable work stealing.  §3 allows disabling dynamic
            load balancing to rely on the initial task placement.
        chunk_size: Maximum tasks transferred by a single steal (§5.1).
        termination_opt: Apply the token-coloring *votes-before*
            optimization of §5.3, which elides dirty-mark messages from
            thief to victim when provably unnecessary.
        wait_free_steals: Use the wait-free steal protocol the paper's
            §8 plans ("wait-free implementations of the distributed task
            collection"): thieves reserve a chunk with a single remote
            atomic on the queue metadata instead of holding the mutex
            across the transfer, so neither the owner nor other thieves
            ever block behind an in-progress steal.
        release_fraction: Fraction of the private queue released to the
            shared portion when the shared portion runs empty.
        reacquire_fraction: Fraction of the shared portion reclaimed when
            the private portion runs empty.
        idle_backoff: Initial virtual-time delay between failed steal
            attempts; doubles per consecutive failure (woken early by
            incoming termination tokens).
        max_idle_backoff: Cap on the exponential idle backoff.
    """

    split_queues: bool = True
    load_balancing: bool = True
    chunk_size: int = 10
    wait_free_steals: bool = False
    termination_opt: bool = True
    release_fraction: float = 0.5
    reacquire_fraction: float = 0.5
    idle_backoff: float = 0.5e-6
    max_idle_backoff: float = 20e-6

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0.0 < self.release_fraction <= 1.0):
            raise ValueError("release_fraction must be in (0, 1]")
        if not (0.0 < self.reacquire_fraction <= 1.0):
            raise ValueError("reacquire_fraction must be in (0, 1]")
        if self.idle_backoff < 0:
            raise ValueError("idle_backoff must be >= 0")
        if self.max_idle_backoff < self.idle_backoff:
            raise ValueError("max_idle_backoff must be >= idle_backoff")

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
    """

    split_queues: bool = True
    load_balancing: bool = True
    chunk_size: int = 10
    wait_free_steals: bool = False
    termination_opt: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

"""Task descriptors: a standard header wrapping an opaque user body (§2.1).

A task descriptor is the unit of transfer between queues.  The header
carries the callback handle, the task's affinity for the process it was
placed on, and size bookkeeping; the body is an arbitrary user payload
(the paper's "contiguous buffer", here any deep-copyable Python object).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Task", "AFFINITY_HIGH", "AFFINITY_LOW", "TASK_HEADER_BYTES", "reset_uids"]

_uid_counter = itertools.count(1)


def reset_uids() -> None:
    """Restart task uids at 1, so a run's uids mean the same in a replay.
    ``Task`` reads the module global on every allocation: rebinding it is
    the one way to reset, and nothing may cache it or its ``__next__``."""
    global _uid_counter
    _uid_counter = itertools.count(1)


#: Exact types whose instances need no copying: immutable all the way
#: down.  Subclasses of an atomic type fall through to ``deepcopy`` — the
#: safe direction, since a subclass may add mutable state.
_ATOMIC_TYPE_SET = frozenset({type(None), bool, int, float, complex, str, bytes, frozenset})


def _is_frozen_dataclass(tp: type) -> bool:
    """A frozen dataclass that keeps every field in the instance
    ``__dict__`` (no ``__slots__`` anywhere in its MRO)?"""
    params = getattr(tp, "__dataclass_params__", None)
    return (
        params is not None
        and bool(params.frozen)
        and not any("__slots__" in vars(c) for c in tp.__mro__[:-1])
    )


#: ``_is_frozen_dataclass`` per body type; a dict lookup costs less than
#: a ``functools.cache`` call on the clone path.
_FROZEN_MEMO: dict[type, bool] = {}


def _copy_body(body: Any) -> Any:
    """Copy-in/out a task body, sharing immutable payloads.

    ``deepcopy`` dominates ``tc_add`` cost for the benchmark apps even
    though their bodies (UTS node digests, SCF index tuples) are
    immutable; atomic values — and tuples or frozen dataclasses holding
    only atomic values — are safe to share since neither side can mutate
    them through the reference.
    """
    tp = type(body)
    atomic = _ATOMIC_TYPE_SET
    if tp in atomic:
        return body
    if tp is tuple:
        values = body
    else:
        frozen = _FROZEN_MEMO.get(tp)
        if frozen is None:
            frozen = _FROZEN_MEMO[tp] = _is_frozen_dataclass(tp)
        if not frozen:
            return copy.deepcopy(body)
        values = body.__dict__.values()
    for v in values:
        if type(v) not in atomic:
            return copy.deepcopy(body)
    return body

#: Bytes of task meta-data (Figure 1's header) charged on every transfer.
TASK_HEADER_BYTES = 64

#: Convenience affinity levels matching the paper's example usage.
AFFINITY_HIGH = 100
AFFINITY_LOW = 0


@dataclass
class Task:
    """A task descriptor.

    Attributes:
        callback: Handle returned by ``TaskCollection.register``; looked
            up in the executing rank's local callback table at dispatch.
        body: User-supplied arguments; any deep-copyable object.  Copied
            on ``tc_add`` (copy-in/out semantics, §3.1) so the caller's
            buffer is immediately reusable.
        affinity: Priority of the task for the process it is placed on.
            High-affinity tasks execute locally first; low-affinity tasks
            are stolen first (§5.1).
        body_size: Wire size of the body in bytes, used by the cost
            model.  Defaults to the collection's ``task_size`` when added.
        created_by: Rank that created the task (set by ``add``).
        uid: Process-wide unique identity of this descriptor instance.
            ``clone`` allocates a fresh uid, so the instance queued by
            ``tc_add`` is distinguishable from the caller's buffer — this
            is what the ``repro.check`` invariants (exactly-once
            execution, queue consistency) track through the event stream.
    """

    callback: int
    body: Any = None
    affinity: int = AFFINITY_LOW
    body_size: int | None = None
    created_by: int = field(default=-1, compare=False)
    uid: int = field(
        default_factory=lambda: next(_uid_counter), compare=False, repr=False
    )

    def wire_size(self, default_body_size: int) -> int:
        """Total bytes moved when this descriptor is transferred."""
        body = self.body_size if self.body_size is not None else default_body_size
        return TASK_HEADER_BYTES + body

    def clone(self) -> "Task":
        """Deep copy, implementing the copy-in/out semantics of ``tc_add``.

        Built via ``__new__`` plus direct attribute stores: ``tc_add``
        clones every descriptor, so the dataclass ``__init__`` (default
        processing, keyword binding) is measurable overhead on the
        scheduler's hot path.
        """
        t = Task.__new__(Task)
        t.callback = self.callback
        body = self.body
        t.body = body if type(body) in _ATOMIC_TYPE_SET else _copy_body(body)
        t.affinity = self.affinity
        t.body_size = self.body_size
        t.created_by = self.created_by
        t.uid = next(_uid_counter)
        return t

"""Wave-based distributed termination detection (§5.2-§5.3).

Implements the Francez-Rodeh style algorithm the paper describes: a
binary spanning tree is mapped onto the process space (children of rank
``r`` are ``2r+1`` and ``2r+2``); a token wave travels down and back up
the tree.  Tokens start white; a process colors its up-token black when
it (or any descendant) performed a load-balancing operation since its
last vote.  The root declares termination only when a wave returns
all-white while it is itself passive; otherwise it launches another
wave.

Dirty marking and the votes-before optimization (§5.3)
------------------------------------------------------

Steals are one-sided, so the victim does not observe them.  To prevent
the scenario where a thief that already cast a white vote becomes active
again with stolen work, the thief writes a *dirty mark* into the victim
that forces the victim's next token black.  The mark piggybacks on the
steal transaction itself (see :meth:`TerminationDetector.steal_mark`):
it must become visible atomically with the transfer, or the victim can
observe its emptied queue and vote white before a separately-sent mark
lands.  The paper's optimization elides the mark when it provably
cannot matter:

    the victim ``pv`` only needs marking if the thief ``pt`` has already
    voted in the current wave AND NOT ``pv votes-before pt`` (i.e. ``pv``
    is not a descendant of ``pt`` in the spanning tree).

Both modes are implemented; ablation A2
(``python -m repro.bench --only ablation-termination``) counts the
messages saved.

Tokens travel as one-sided messages into per-process mailboxes (how an
ARMCI-based implementation delivers them); each scheduler iteration
drains the mailbox, so active processes still forward down-waves
promptly while only *passive* processes vote.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.armci.runtime import MAILBOX_CHECK_COST, Armci
from repro.obs.record import instant
from repro.obs.tracing import trace
from repro.sim.engine import Engine, Proc
from repro.sim.counters import Counters
from repro.util.errors import TaskCollectionError

__all__ = ["TerminationDetector", "is_descendant", "tree_children", "tree_parent"]

WHITE = 0
BLACK = 1


def tree_parent(rank: int) -> int:
    """Parent of ``rank`` in the binary spanning tree (root is 0)."""
    if rank == 0:
        raise ValueError("root has no parent")
    return (rank - 1) // 2


def tree_children(rank: int, nprocs: int) -> list[int]:
    """Children of ``rank`` in the binary spanning tree."""
    return [c for c in (2 * rank + 1, 2 * rank + 2) if c < nprocs]


def is_descendant(a: int, b: int) -> bool:
    """True if ``a`` is a (proper) descendant of ``b`` in the spanning tree.

    In the up-wave, descendants vote before their ancestors, so
    ``is_descendant(a, b)`` is exactly the paper's ``a votes-before b``
    relation for distinct ranks on one root-to-leaf path.
    """
    while a > b:
        a = (a - 1) // 2
        if a == b:
            return True
    return False


class TerminationDetector:
    """Per-rank termination-detection state for one ``tc_process`` phase.

    All ranks' detectors for a phase are created together (see
    ``TaskCollection``); thieves reach their victim's detector through
    one-sided writes, charged through the ARMCI layer.
    """

    def __init__(
        self,
        engine: Engine,
        rank: int,
        tag: str,
        peers: list["TerminationDetector"],
        optimize: bool,
        counters: Counters,
    ) -> None:
        self.engine = engine
        self.armci = Armci.attach(engine)
        self.rank = rank
        self.nprocs = engine.nprocs
        self.tag = tag
        self.peers = peers  # shared list; peers[r] is rank r's detector
        self.optimize = optimize
        self.counters = counters
        self.children = tree_children(rank, self.nprocs)
        self.parent = tree_parent(rank) if rank != 0 else None
        self.dirty = False
        self.voted = False
        self.in_wave = False
        self.wave = 0
        self.child_tokens: dict[int, int] = {}
        self.done = False
        self._wave_started = 0.0  # root's wave launch time (obs only)

    # ------------------------------------------------------------------ #
    # Load-balancing hooks
    # ------------------------------------------------------------------ #
    def _need_mark(self, victim: int) -> bool:
        """§5.3: does stealing from ``victim`` require a dirty mark?"""
        return (not self.optimize) or (
            self.voted and not is_descendant(victim, self.rank)
        )

    def steal_mark(self, proc: Proc, victim: int) -> Callable[[], None] | None:
        """The §5.3 dirty mark, to apply *inside* the steal's locked
        transfer (``SplitQueue.steal_from(on_transfer=...)``), or None
        when the votes-before optimization elides it.

        The mark piggybacks on the steal transaction's metadata update:
        it lands at the same instant the tasks leave the shared portion,
        under the victim's queue mutex, so the victim can never observe
        its queue emptied by this steal without also observing the mark.
        Delivering the mark as a separate message *after* the steal —
        even fenced — leaves a window where the victim observes the
        emptied queue, votes white, and the root completes an all-white
        wave while the stolen work runs on a thief that also voted white
        (the thief's own dirty flag only blackens the *next* wave).  The
        ``no_dirty_mark`` / ``fence_elision`` mutations reinstate the
        message-based variants to demonstrate the failure.
        """
        # Attestation for the predictive analyzer: the correct protocol
        # emits a mark decision for *every* steal it is asked about (even
        # an elided one carries the votes-before justification).  A
        # transfer with no preceding decision event from the same thief
        # means this method was bypassed — the signature of the
        # dirty-mark mutations.
        needed = self._need_mark(victim)
        det = self.engine.detector
        if det is not None:
            det.on_protocol(proc, "mark-decision", {
                "victim": victim, "needed": needed,
                "thief_voted": self.voted, "wave": self.wave,
            })
        if not needed:
            return None
        victim_det = self.peers[victim]

        def _apply() -> None:
            # The steal transaction's queue mutex already orders the mark
            # after the transfer, so no separate fence/release is needed.
            victim_det._mark_dirty(proc)

        return _apply

    def note_steal(self, proc: Proc, victim: int) -> None:
        """Record a successful steal's bookkeeping.  The victim's §5.3
        mark itself is applied by :meth:`steal_mark`'s closure inside the
        transfer; this only marks the thief and records counters/edges."""
        self._mark_dirty(proc)
        if self._need_mark(victim):
            instant(proc, "dirty-mark", "termination", detail=victim)
            rec = self.engine.recorder
            if rec is not None:
                # One-sided write landing in the victim's memory: a
                # zero-latency cross-rank edge (the victim's next vote
                # causally follows the thief's mark).
                rec.add_edge("dirty", proc.rank, proc.now, victim, proc.now,
                             detail=victim)
            self.counters.add(proc.rank, "dirty_msgs")
        else:
            instant(proc, "dirty-mark-skipped", "termination", detail=victim)
            self.counters.add(proc.rank, "dirty_msgs_skipped")

    def note_remote_add(self, proc: Proc, target: int) -> None:
        """Record a remote task insertion; the dirty flag piggybacks on the
        insert message itself (no extra communication)."""
        self._mark_dirty(proc)
        self.peers[target]._mark_dirty(proc)

    def _mark_dirty(self, proc: Proc | None = None, release: bool = False) -> None:
        det = self.engine.detector
        if det is not None and proc is not None:
            det.flag_write(proc, ("td-dirty", self.tag, self.rank), self.rank, release)
        self.dirty = True

    # ------------------------------------------------------------------ #
    # Progress engine
    # ------------------------------------------------------------------ #
    def co_progress(self, proc: Proc, idle: bool):
        """Drain pending tokens; vote / run the root wave logic when idle.

        Called from the scheduler on every iteration (cheap local mailbox
        probe while messages are absent).  Returns True once global
        termination has been detected and propagated to this rank.
        """
        proc.advance(MAILBOX_CHECK_COST)
        return (yield from self._co_progress(proc, idle))

    def progress_busy(self, proc: Proc):
        """Plain-call twin of ``co_progress(idle=False)`` for the
        scheduler's busy loop, where in steady state the mailbox is
        empty and the generator machinery is pure overhead.

        Charges the same mailbox probe and returns the termination
        state, or ``None`` when tokens are pending — the caller must
        then finish the iteration with :meth:`_co_progress` (the probe
        is already charged).
        """
        proc._clock += MAILBOX_CHECK_COST  # advance(): constant, >= 0
        if self.armci.mailbox_empty(proc, self.tag):
            return self.done
        return None

    def _co_progress(self, proc: Proc, idle: bool):
        """Token drain and wave logic; the probe cost is already charged."""
        if not self.armci.mailbox_empty(proc, self.tag):
            while True:
                msg = yield from self.armci.co_poll_mailbox(proc, self.tag)
                if msg is None:
                    break
                yield from self._co_handle(proc, msg[0], msg[1])
        if self.done:
            return True
        if idle:
            if self.rank == 0:
                yield from self._co_root_step(proc)
            else:
                yield from self._co_try_vote(proc)
        return self.done

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _co_handle(self, proc: Proc, src: int, payload: tuple):
        kind = payload[0]
        if kind == "down":
            _, wave = payload
            self.wave = wave
            self.in_wave = True
            self.voted = False
            self.child_tokens = {}
            det = self.engine.detector
            if det is not None:
                det.on_protocol(proc, "wave-down", {"wave": wave})
            for c in self.children:
                yield from self._co_send(proc, c, ("down", wave))
        elif kind == "up":
            _, wave, color = payload
            if wave != self.wave:
                raise TaskCollectionError(
                    f"termination protocol error: rank {self.rank} got up-token "
                    f"for wave {wave} during wave {self.wave}"
                )
            self.child_tokens[src] = color
        elif kind == "done":
            self.done = True
            for c in self.children:
                yield from self._co_send(proc, c, ("done",))
        else:  # pragma: no cover - defensive
            raise TaskCollectionError(f"unknown termination message {payload!r}")

    def _co_send(self, proc: Proc, dest: int, payload: tuple):
        self.counters.add(proc.rank, "td_msgs")
        trace(proc, "td-msg", f"{payload[0]} -> rank {dest}")
        det = self.engine.detector
        if det is not None:
            det.on_protocol(proc, "td-send", {"dest": dest, "token": payload[0]})
        yield from self.armci.co_post(proc, dest, self.tag, payload)

    # ------------------------------------------------------------------ #
    # Voting
    # ------------------------------------------------------------------ #
    def _combined_color(self, proc: Proc) -> int:
        det = self.engine.detector
        if det is not None:
            det.flag_read(proc, ("td-dirty", self.tag, self.rank))
        if self.dirty or any(c == BLACK for c in self.child_tokens.values()):
            return BLACK
        return WHITE

    def _co_try_vote(self, proc: Proc):
        """Non-root: pass the token up once passive with all child tokens."""
        if not self.in_wave or self.voted:
            return
        if len(self.child_tokens) < len(self.children):
            return
        color = self._combined_color(proc)
        det = self.engine.detector
        if det is not None:
            det.on_protocol(proc, "vote", {"wave": self.wave, "color": color})
            det.flag_write(proc, ("td-dirty", self.tag, self.rank))
        self.dirty = False
        self.voted = True
        self.in_wave = False
        yield from self._co_send(proc, self.parent, ("up", self.wave, color))
        self.counters.add(proc.rank, "votes")

    def _co_root_step(self, proc: Proc):
        """Root: start waves while idle; complete them when tokens return."""
        if not self.in_wave:
            self.wave += 1
            self.in_wave = True
            self.child_tokens = {}
            self._wave_started = proc.now
            self.counters.add(proc.rank, "waves")
            det = self.engine.detector
            if det is not None:
                det.on_protocol(proc, "wave-start", {"wave": self.wave})
            for c in self.children:
                yield from self._co_send(proc, c, ("down", self.wave))
        if len(self.child_tokens) < len(self.children):
            return
        color = self._combined_color(proc)
        rec = self.engine.recorder
        if rec is not None:
            rec.metrics.observe(
                "wave_rtt", proc.now - self._wave_started, rank=proc.rank
            )
            rec.complete_span(
                proc,
                f"wave {self.wave}",
                "termination",
                self._wave_started,
                detail="white" if color == WHITE else "black",
            )
        det = self.engine.detector
        if det is not None:
            det.on_protocol(proc, "wave-complete", {
                "wave": self.wave, "color": color, "done": color == WHITE,
            })
            det.flag_write(proc, ("td-dirty", self.tag, self.rank))
        self.dirty = False
        self.in_wave = False
        self.child_tokens = {}
        if color == WHITE:
            self.done = True
            trace(proc, "td-done", self.wave)
            for c in self.children:
                yield from self._co_send(proc, c, ("done",))

"""Witness-guided scheduling: steer a replay toward a predicted bug.

The predictive analyzer (:mod:`repro.analyze.predict`) reports hazards
that are feasible in *other* interleavings of an observed trace.  This
module turns such a prediction into a targeted
:class:`~repro.sim.engine.SchedulingStrategy`: a
:class:`WitnessStrategy` watches the live event stream of a monitored
run (via ``RaceDetector.listeners``) and *defers* specific ranks
at specific protocol points, walking the schedule into the predicted
reordering.  Every pick is recorded in the standard decision format, so
a successful witness run persists as an ordinary
:class:`~repro.check.traces.DecisionTrace` and replays through
:class:`~repro.check.strategies.ReplayStrategy` like any explored
failure.

Deferral is *soft*: a deferred rank is simply never chosen while a
non-deferred candidate exists.  When every candidate is deferred the
lowest-priority deferred rank runs — the schedule can stall briefly but
never wedge, so a witness that fails to trigger degrades into a clean
run instead of a hang.  A decision cap releases all gates as a final
safety valve.

Two gate controllers are provided:

* :class:`DirtyMarkWitness` — drives the §5.3 steal-after-vote window:
  hold the thief out of the early game so it votes white before its
  first steal, freeze it between the locked transfer and its
  (late/absent) dirty-mark delivery, and keep it frozen until the
  victim has cast a white vote inside the window.
* :class:`DeadlockWitness` — drives a predicted lock-order cycle
  closed: freeze each rank at the apex of its inverted acquisition
  chain until another rank blocks on the frozen rank's lock, then
  release so the cross-request completes the cycle (which the detector's
  wait-for monitor reports as
  :class:`~repro.analyze.capture.PredictedDeadlockError`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.strategies import ExplorationStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analyze.capture import TraceEvent

__all__ = ["WitnessStrategy", "DirtyMarkWitness", "DeadlockWitness"]

#: Picks after which a witness run opens every gate (the safety valve).
MAX_DECISIONS = 20_000


class WitnessStrategy(ExplorationStrategy):
    """Event-gated deterministic strategy (no randomness is drawn).

    Wire it to a run with ``RaceDetector.attach(engine)`` and
    ``detector.listeners.append(strategy.on_event)`` — the
    ``engine_hook`` parameter of :func:`repro.check.runner.run_once` is
    the intended seam.
    """

    def __init__(self, controller) -> None:
        super().__init__(seed=0)
        self.controller = controller
        #: rank -> deferral priority (higher defers harder)
        self.deferred: dict[int, int] = {}
        self._tripped = False
        controller.start(self)

    # -- gate manipulation (called by controllers) --------------------- #
    def defer(self, rank: int, priority: int = 1) -> None:
        if not self._tripped:
            self.deferred[rank] = priority

    def release(self, rank: int) -> None:
        self.deferred.pop(rank, None)

    # -- live event feed ----------------------------------------------- #
    def on_event(self, ev: "TraceEvent") -> None:
        if not self._tripped:
            self.controller.on_event(ev, self)

    # -- SchedulingStrategy -------------------------------------------- #
    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        if len(self.decisions) >= MAX_DECISIONS and not self._tripped:
            # Safety valve: open every gate so the run finishes cleanly.
            self._tripped = True
            self.deferred.clear()
        if self.deferred:
            best, best_key = 0, (self.deferred.get(candidates[0][2], 0), 0)
            for i in range(1, len(candidates)):
                key = (self.deferred.get(candidates[i][2], 0), i)
                if key < best_key:
                    best, best_key = i, key
            idx = best
        else:
            idx = 0
        self._record_pick(candidates[idx][2])
        return idx

    def delay(self, proc, site: str) -> float:
        return 0.0


class DirtyMarkWitness:
    """Steer toward the §5.3 window for one (thief, victim) casting.

    Phases::

        0  thief deferred from the start: the victim does the early
           stealing, the thief arrives at the first wave with a clean
           dirty flag and an empty queue
        1  first down-token reaches the thief -> release it (it votes
           white before anything else, having no work)
        1-2  whenever the victim publishes stealable work mid-wave
           (``queue-release``), the victim is deferred so the work is
           still there when the thief's next probe arrives
        2  thief (voted) steals from the victim; the moment it drops the
           victim's queue mutex (or closes its reservation atomic) it is
           frozen -- transfer done, dirty mark not yet delivered -- and
           the victim is released to drain and vote
        3  victim casts a WHITE vote -> the window is open; release the
           thief and let the run finish (an invariant violation or a
           mark-after-vote window in the captured trace confirms the
           prediction)

    The root is never deferred: it must stay live to post down-tokens
    and collect votes, and a timed-backoff leaf is always a candidate,
    so a deferred root would starve forever (deferral is only *soft*
    against ranks that park without timeouts).
    """

    def __init__(self, thief: int, victim: int) -> None:
        if thief == 0 or victim == 0:
            # The root never votes (its wave completion plays that
            # role), so neither side of the casting can be rank 0: a
            # root thief has no vote to get ahead of, and a root victim
            # has no vote for the window oracle to anchor on.
            raise ValueError("thief and victim must be non-root ranks")
        self.thief = thief
        self.victim = victim
        self.phase = 0
        self._pin_armed = False

    def start(self, strategy: WitnessStrategy) -> None:
        strategy.defer(self.thief, priority=1)

    def on_event(self, ev: "TraceEvent", strategy: WitnessStrategy) -> None:
        kind = ev.kind
        data = ev.data
        if kind != "protocol" and kind not in ("release", "rmw-done"):
            return
        what = data.get("what")
        if self.phase == 0:
            if what == "td-send" and data["token"] == "down" and data["dest"] == self.thief:
                strategy.release(self.thief)
                self.phase = 1
        elif self.phase == 1 or self.phase == 2:
            if what == "queue-release" and ev.rank == self.victim:
                # Pin the published work in place for the thief's probe.
                # Immediately if the victim holds no locks (pin before it
                # can reacquire the work back to private); otherwise a
                # pinned lock holder starves anyone who parks (untimed)
                # on that lock, so arm and pin at the lock-exit instead.
                if ev.held:
                    self._pin_armed = True
                else:
                    strategy.defer(self.victim, priority=1)
            elif (
                self._pin_armed
                and ev.rank == self.victim
                and kind in ("release", "rmw-done")
                and not ev.held
            ):
                self._pin_armed = False
                strategy.defer(self.victim, priority=1)
            elif self.phase == 1 and what == "vote" and ev.rank == self.thief:
                self.phase = 2
            elif (
                what == "steal-transfer"
                and ev.rank == self.thief
                and data["victim"] == self.victim
                and self.phase == 2
            ):
                self.phase = 25  # transfer seen; freeze at the unlock
        elif self.phase == 25:
            if kind == "release" and ev.rank == self.thief and data["host"] == self.victim:
                strategy.defer(self.thief, priority=2)
                strategy.release(self.victim)
                self.phase = 3
            elif kind == "rmw-done" and ev.rank == self.thief and data["target"] == self.victim:
                strategy.defer(self.thief, priority=2)
                strategy.release(self.victim)
                self.phase = 3
        elif self.phase == 3:
            if what == "vote" and ev.rank == self.victim and data["color"] == 0:
                strategy.release(self.thief)
                self.phase = 4


class DeadlockWitness:
    """Interleave inverted lock-acquisition chains until they cross.

    Relies on the ``steal-own-lock`` protocol event the
    ``lock_order_inversion`` mutation emits before taking the thief's
    own queue mutex.  Each rank is frozen at the apex of its chain (own
    lock held, victim's lock not yet requested); when chains cross —
    either two frozen ranks name each other as victims, or a second
    rank blocks on a frozen rank's lock — the frozen rank is released
    and its next request closes the cycle.
    """

    def __init__(self) -> None:
        #: rank -> victim it announced before its own-lock acquire
        self.pending: dict[int, int] = {}
        #: rank -> (own mutex name, victim) while frozen at the apex
        self.frozen: dict[int, tuple[str, int]] = {}

    def start(self, strategy: WitnessStrategy) -> None:
        pass

    def _release(self, rank: int, strategy: WitnessStrategy) -> None:
        self.frozen.pop(rank, None)
        strategy.release(rank)

    def on_event(self, ev: "TraceEvent", strategy: WitnessStrategy) -> None:
        data = ev.data
        if ev.kind == "protocol":
            if data.get("what") == "steal-own-lock":
                self.pending[ev.rank] = data["victim"]
            return
        if ev.kind == "acquire":
            victim = self.pending.pop(ev.rank, None)
            if victim is not None and data["host"] == ev.rank:
                self.frozen[ev.rank] = (data["mutex"], victim)
                strategy.defer(ev.rank, priority=2)
                # Two apexes naming each other: release both; their next
                # requests are the cycle's closing edges.
                for a, (_, va) in list(self.frozen.items()):
                    for b, (_, vb) in list(self.frozen.items()):
                        if a < b and va == b and vb == a:
                            self._release(a, strategy)
                            self._release(b, strategy)
            return
        if ev.kind == "request" and data.get("blocking") is not None:
            holder = data["blocking"]
            if holder in self.frozen and self.frozen[holder][0] == data["mutex"]:
                # Someone is parked on a frozen rank's apex lock; let the
                # frozen rank run into its victim's lock.
                self._release(holder, strategy)

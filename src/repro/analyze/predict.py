"""Predictive concurrency analysis: find bugs in *unexecuted* schedules.

The observed-schedule detector (:mod:`repro.analyze.race`) answers "did
this run race?".  This module answers the stronger question "could a
*different* legal schedule of this run have raced, deadlocked, or
broken the termination protocol?" — from a single benign trace, usually
the default deterministic schedule.

Four passes share one captured trace (:mod:`repro.analyze.capture`):

1. **Lockset** (:mod:`repro.analyze.lockset`) — Eraser-style empty
   lockset intersection over lock-disciplined regions.  Schedule
   insensitive; may over-report accesses ordered by non-lock sync.
2. **Weakened happens-before** (here) — the race detector's walker over
   the must-only edges: the ordering a scheduler cannot reverse (program
   order, collectives, message delivery, target-serialized atomic
   chains), with the reversible ones (lock release→acquire, flag-cell
   joins) dropped.  Conflicting accesses unordered under it with no
   common lock are predicted races with a witness reordering.
3. **Steal/mark obligation** (here) — every steal transfer must carry a
   §5.3 mark decision from the thief's (unmutated) termination
   detector; an unattested transfer in a trace with live wave activity
   predicts the steal-after-vote family of termination bugs.  Release
   flag stores that the weak relation leaves unordered before the
   victim's next vote are folded in (the mark-delivery race).
4. **Lock-order graph** (:mod:`repro.analyze.lockgraph`) — cycles in
   nested-acquisition order, with gate-lock and single-rank pruning.

Every prediction then goes through **confirmation**: it is compiled to
a :class:`~repro.check.witness.WitnessStrategy` that steers a
``repro.check`` replay toward the predicted reordering.  A confirming
run either fails outright (invariant violation, protocol error,
:class:`~repro.analyze.capture.PredictedDeadlockError`), re-observes
the race under the standard detector, or exhibits the mark-after-vote
window in its trace; the prediction is upgraded PREDICTED →
CONFIRMED and the decision trace persisted for ``repro.check replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Sequence

from repro.analyze.capture import TraceEvent
from repro.analyze.lockgraph import deadlock_pass
from repro.analyze.lockset import lockset_pass
from repro.analyze.race import happens_before, region_class, unordered_conflicts
from repro.analyze.runner import monitored_run, run_race_detection
from repro.check.strategies import ReplayStrategy
from repro.check.traces import DecisionTrace
from repro.check.witness import DeadlockWitness, DirtyMarkWitness, WitnessStrategy
from repro.targets import make_target

__all__ = [
    "Prediction",
    "PredictReport",
    "weakened_hb_pass",
    "obligation_pass",
    "analyze_trace",
    "find_mark_window",
    "confirm_prediction",
    "predict",
]


# ---------------------------------------------------------------------- #
# Weakened happens-before
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WeakHbFinding:
    """Conflicting accesses unordered under the weakened relation."""

    region: Hashable
    region_cls: tuple
    sites: tuple[str, str]
    ranks: tuple[int, int]
    seqs: tuple[int, int]

    def describe(self) -> str:
        return (
            f"predicted race on {self.region!r}: rank {self.ranks[0]} at "
            f"{self.sites[0]} and rank {self.ranks[1]} at {self.sites[1]} "
            "are reorderable (no must-edge, no common lock)"
        )


def weakened_hb_pass(
    events: list[TraceEvent], nprocs: int
) -> list[WeakHbFinding]:
    """Predicted races: conflicts unordered under the must-only edges
    (:func:`~repro.analyze.race.happens_before`) with no common lock.

    The must-only relation keeps rmw reservation chains: the order could
    change in another schedule, but each order is a serialization, so
    treating the executed one as fixed only ever *hides* reorderings —
    the false-positive-safe choice.  Mutual exclusion itself, whose
    hand-over edge is dropped, is the common-lock test.
    """
    tables: dict[Hashable, tuple[dict, dict, dict]] = {}
    findings: list[WeakHbFinding] = []
    dedup: set[tuple] = set()
    for ev, clock in happens_before(events, nprocs, must_only=True):
        if ev.kind != "access":
            continue
        region, site, held = ev.data["region"], ev.data["site"], ev.held
        priors = unordered_conflicts(
            tables, region, ev.data["op"], ev.rank, clock.snapshot(),
            (site, held, ev.seq, ev.rank),
        )
        for p_site, p_held, p_seq, p_rank in priors:
            if set(p_held) & set(held):  # mutually excluded
                continue
            key = (region_class(region), tuple(sorted((p_site, site))))
            if key in dedup:
                continue
            dedup.add(key)
            findings.append(
                WeakHbFinding(
                    region=region,
                    region_cls=key[0],
                    sites=(p_site, site),
                    ranks=(p_rank, ev.rank),
                    seqs=(p_seq, ev.seq),
                )
            )
    return findings


# ---------------------------------------------------------------------- #
# Steal/mark obligation (§5.3 family)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ObligationFinding:
    """Steal transfers with no mark decision from the thief's detector."""

    thief: int
    victim: int
    count: int
    first_seq: int
    #: "unattested" (no mark decision at all) or "unordered-mark" (a
    #: release mark was sent but nothing orders it before the victim's
    #: next vote).
    mode: str

    def describe(self) -> str:
        if self.mode == "unattested":
            return (
                f"steal-after-vote hazard: {self.count} transfer(s) rank "
                f"{self.thief} <- rank {self.victim} carry no §5.3 mark "
                "decision; a schedule where the thief votes white first "
                "terminates early with the stolen work in flight"
            )
        return (
            f"mark-delivery hazard: dirty mark rank {self.thief} -> rank "
            f"{self.victim} is not ordered before the victim's next vote "
            f"({self.count} instance(s))"
        )


def obligation_pass(events: list[TraceEvent]) -> list[ObligationFinding]:
    """Match transfers against mark decisions; flag the unattested."""
    if not any(
        e.kind == "protocol" and e.data.get("what") == "wave-start"
        for e in events
    ):
        return []  # no termination protocol in play, no obligation
    decisions: dict[tuple[int, int], list[int]] = {}
    used: dict[tuple[int, int], int] = {}
    unattested: dict[tuple[int, int], list[int]] = {}
    for ev in events:
        if ev.kind != "protocol":
            continue
        what = ev.data.get("what")
        if what == "mark-decision":
            decisions.setdefault((ev.rank, ev.data["victim"]), []).append(ev.seq)
        elif what == "steal-transfer":
            key = (ev.rank, ev.data["victim"])
            avail = decisions.get(key, [])
            i = used.get(key, 0)
            # the decision is emitted just before its transfer in program
            # order; consume the next unconsumed decision preceding us
            if i < len(avail) and avail[i] < ev.seq:
                used[key] = i + 1
            else:
                unattested.setdefault(key, []).append(ev.seq)
    findings = [
        ObligationFinding(
            thief=t, victim=v, count=len(seqs), first_seq=seqs[0],
            mode="unattested",
        )
        for (t, v), seqs in sorted(unattested.items())
    ]
    # Release-mode marks (a message-based §5.3 protocol): the must-only
    # relation has no edge from the mark's landing to the victim's next
    # vote, so a vote can precede it in another schedule.
    snaps: dict[int, Sequence[int]] | None = None
    nprocs = 1 + max((e.rank for e in events), default=0)
    late: dict[tuple[int, int], list[int]] = {}
    for ev in events:
        if ev.kind != "flag-write" or not ev.data.get("release"):
            continue
        target = ev.data.get("target")
        if target is None or target == ev.rank:
            continue
        if snaps is None:
            snaps = {
                e.seq: clock.snapshot()
                for e, clock in happens_before(events, nprocs, must_only=True)
                if e.kind == "flag-write" or e.kind == "flag-read"
            }
        vote = next(
            (
                e
                for e in events[ev.seq + 1 :]
                if e.kind == "flag-read"
                and e.rank == target
                and e.data["region"] == ev.data["region"]
            ),
            None,
        )
        if vote is None or snaps[ev.seq][ev.rank] > snaps[vote.seq][ev.rank]:
            late.setdefault((ev.rank, target), []).append(ev.seq)
    findings.extend(
        ObligationFinding(
            thief=t, victim=v, count=len(seqs), first_seq=seqs[0],
            mode="unordered-mark",
        )
        for (t, v), seqs in sorted(late.items())
        if (t, v) not in unattested
    )
    return findings


# ---------------------------------------------------------------------- #
# The mark-after-vote window (confirmation oracle)
# ---------------------------------------------------------------------- #
def find_mark_window(events: list[TraceEvent]) -> dict | None:
    """Did an executed schedule exhibit the §5.3 ordering violation?

    Looks for a steal transfer by a thief that had already voted in its
    current wave, where the victim casts a WHITE vote before the dirty
    mark lands (or no mark lands at all) — i.e. the victim's detector
    declared innocence while stolen work was in flight.  A black vote
    in between self-heals (the victim was dirty for its own reasons),
    so the oracle anchors on the first white vote after the transfer.
    The legitimate votes-before elision (victim a spanning-tree
    descendant of the thief) is exempt.  Returns a summary dict, or
    None.
    """
    from repro.core.termination import is_descendant

    last_vote: dict[int, int] = {}
    last_down: dict[int, int] = {}
    transfers: list[tuple[int, int, int]] = []  # (seq, thief, victim)
    votes: list[tuple[int, int, int]] = []  # (seq, rank, color)
    marks: list[tuple[int, int, int]] = []  # (seq, writer, victim)
    for ev in events:
        if ev.kind == "protocol":
            what = ev.data.get("what")
            if what == "vote":
                votes.append((ev.seq, ev.rank, ev.data["color"]))
                last_vote[ev.rank] = ev.seq
            elif what == "wave-down":
                last_down[ev.rank] = ev.seq
            elif what == "steal-transfer":
                voted = last_vote.get(ev.rank, -1) > last_down.get(ev.rank, -1)
                if voted:
                    transfers.append((ev.seq, ev.rank, ev.data["victim"]))
        elif ev.kind == "flag-write":
            target = ev.data.get("target")
            if target is not None and target != ev.rank:
                marks.append((ev.seq, ev.rank, target))
    for seq, thief, victim in transfers:
        if is_descendant(victim, thief):
            continue
        vote = next(
            (v for v in votes if v[1] == victim and v[0] > seq and v[2] == 0),
            None,
        )
        if vote is None:
            continue
        mark = next(
            (m for m in marks if m[1] == thief and m[2] == victim and m[0] > seq),
            None,
        )
        if mark is None or mark[0] > vote[0]:
            return {
                "thief": thief,
                "victim": victim,
                "transfer_seq": seq,
                "vote_seq": vote[0],
                "vote_color": vote[2],
                "mark_seq": mark[0] if mark else None,
            }
    return None


# ---------------------------------------------------------------------- #
# Predictions
# ---------------------------------------------------------------------- #
@dataclass
class Prediction:
    """One predicted concurrency bug, possibly upgraded by confirmation."""

    kind: str  # "data-race" | "steal-after-vote" | "deadlock"
    tiers: list[str]
    title: str
    detail: str
    data: dict = field(default_factory=dict)
    status: str = "PREDICTED"
    confirmed_how: str | None = None
    trace_path: str | None = None
    replay_ok: bool | None = None

    def describe(self) -> str:
        head = f"[{self.status}] {self.kind} ({'+'.join(self.tiers)}): {self.title}"
        if self.confirmed_how:
            head += f"\n    confirmed via {self.confirmed_how}"
            if self.trace_path:
                head += f"\n    witness trace: {self.trace_path}"
            if self.replay_ok is not None:
                head += f" (replay {'ok' if self.replay_ok else 'DIVERGED'})"
        return head + "\n    " + self.detail.replace("\n", "\n    ")


def analyze_trace(events: list[TraceEvent], nprocs: int) -> list[Prediction]:
    """Run all predictive passes over one captured trace."""
    predictions: list[Prediction] = []

    race_by_key: dict[tuple, Prediction] = {}
    for f in lockset_pass(events):
        key = (f.region_cls, tuple(sorted(f.sites)))
        p = Prediction(
            kind="data-race",
            tiers=["lockset"],
            title=f"unlocked conflicting access on {f.region_cls}",
            detail=f.describe(),
            data={"region_cls": list(f.region_cls), "sites": list(f.sites)},
        )
        race_by_key[key] = p
        predictions.append(p)
    for f in weakened_hb_pass(events, nprocs):
        key = (f.region_cls, tuple(sorted(f.sites)))
        if key in race_by_key:
            race_by_key[key].tiers.append("weak-hb")
            continue
        predictions.append(
            Prediction(
                kind="data-race",
                tiers=["weak-hb"],
                title=f"reorderable conflicting access on {f.region_cls}",
                detail=f.describe(),
                data={"region_cls": list(f.region_cls), "sites": list(f.sites)},
            )
        )

    obligations = obligation_pass(events)
    if obligations:
        pairs = sorted({(f.thief, f.victim) for f in obligations})
        predictions.append(
            Prediction(
                kind="steal-after-vote",
                tiers=["obligation"],
                title="§5.3 dirty-mark discipline violated on steal path",
                detail="\n".join(f.describe() for f in obligations),
                data={"pairs": [list(p) for p in pairs]},
            )
        )

    for f in deadlock_pass(events):
        predictions.append(
            Prediction(
                kind="deadlock",
                tiers=["lock-graph"],
                title=f"lock-order cycle {' -> '.join(f.cycle)}",
                detail=f.describe(),
                data={"cycle": list(f.cycle)},
            )
        )
    return predictions


# ---------------------------------------------------------------------- #
# Confirmation
# ---------------------------------------------------------------------- #
class _NoGates:
    """Controller that never defers: the engine-default schedule,
    recorded pick-by-pick so it can be persisted and replayed."""

    def start(self, strategy) -> None:
        pass

    def on_event(self, ev, strategy) -> None:
        pass


def _persist_witness(
    pred, target, mutation, engine_seed, scenario, outcome, out_dir, ordinal=0
) -> None:
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = DecisionTrace(
        target=target,
        strategy="witness",
        strategy_seed=0,
        engine_seed=engine_seed,
        nprocs=scenario.nprocs,
        schedule_index=0,
        failure=outcome.describe(),
        mutation=mutation if mutation else "none",
        signature=outcome.signature_json,
        decisions=list(outcome.decisions),
    )
    stem = f"predict-{target}-{trace.mutation}-{pred.kind}-{ordinal}"
    pred.trace_path = str(trace.save(out_dir / f"{stem}.trace.json"))


def confirm_prediction(
    pred: Prediction,
    target: str,
    mutation: str | None = None,
    engine_seed: int = 0,
    out_dir: str | Path | None = None,
    ordinal: int = 0,
) -> Prediction:
    """Steer replays toward ``pred``'s reordering; upgrade on success."""
    scenario = make_target(target)

    def witness_run(controller):
        return monitored_run(
            scenario, WitnessStrategy(controller), engine_seed, mutation
        )

    def upgraded(outcome, how: str, window_check: bool) -> None:
        """Persist + replay-verify a successful witness run."""
        pred.status = "CONFIRMED"
        pred.confirmed_how = how
        _persist_witness(
            pred, target, mutation, engine_seed, scenario, outcome, out_dir,
            ordinal=ordinal,
        )
        re_out, re_det = monitored_run(
            scenario, ReplayStrategy(list(outcome.decisions)), engine_seed, mutation
        )
        if window_check:
            pred.replay_ok = find_mark_window(re_det.events) is not None
        else:
            pred.replay_ok = re_out.signature == outcome.signature

    if pred.kind == "data-race":
        outcome, det = witness_run(_NoGates())
        cls = tuple(pred.data.get("region_cls", []))
        if any(region_class(r.region) == cls for r in det.races):
            upgraded(outcome, "observed-race-replay", False)
        return pred

    if pred.kind == "steal-after-vote":
        # The predicted (thief, victim) castings first, then every other
        # non-root pairing: the discipline violation is global (the mark
        # path is gone for *all* steals), so any casting that opens the
        # window confirms it.  Root-involved castings are skipped — the
        # root has no vote for the witness to race against.
        variants: list[tuple[int, int]] = []
        for t, v in [tuple(p) for p in pred.data.get("pairs", [])]:
            if t != 0 and v != 0 and (t, v) not in variants:
                variants.append((t, v))
        for t in range(1, scenario.nprocs):
            for v in range(1, scenario.nprocs):
                if v != t and (t, v) not in variants:
                    variants.append((t, v))
        for t, v in variants[:6]:
            outcome, det = witness_run(DirtyMarkWitness(t, v))
            if outcome.failed:
                upgraded(outcome, f"witness-replay-failure:{outcome.describe()}", False)
                return pred
            window = find_mark_window(det.events)
            if window is not None:
                upgraded(
                    outcome,
                    "mark-after-vote-window (transfer seq "
                    f"{window['transfer_seq']} -> victim vote seq "
                    f"{window['vote_seq']} -> mark seq {window['mark_seq']})",
                    True,
                )
                return pred
        return pred

    if pred.kind == "deadlock":
        outcome, _det = witness_run(DeadlockWitness())
        if outcome.error is not None and outcome.error.startswith(
            "PredictedDeadlockError"
        ):
            upgraded(outcome, "deadlock-cycle-closed", False)
        return pred

    return pred  # pragma: no cover - exhaustive over kinds


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
@dataclass
class PredictReport:
    """Everything one ``repro.analyze predict`` invocation learned."""

    target: str
    mutation: str | None
    engine_seed: int
    events_captured: int
    base_error: str | None
    predictions: list[Prediction]

    @property
    def confirmed(self) -> int:
        return sum(1 for p in self.predictions if p.status == "CONFIRMED")

    def describe(self) -> str:
        mut = self.mutation or "none"
        head = (
            f"predict {self.target} (mutation {mut}): "
            f"{self.events_captured} events captured"
        )
        if self.base_error:
            head += f"; base run failed: {self.base_error}"
        if not self.predictions:
            return head + "\n  no predictions — trace is schedule-robust"
        lines = [
            head,
            f"  {len(self.predictions)} prediction(s), {self.confirmed} confirmed:",
        ]
        for p in self.predictions:
            lines.append("  " + p.describe().replace("\n", "\n  "))
        return "\n".join(lines)


def predict(
    target: str,
    mutation: str | None = None,
    engine_seed: int = 0,
    confirm: bool = True,
    out_dir: str | Path | None = None,
) -> PredictReport:
    """Capture one default-schedule trace, analyze it, confirm findings."""
    run = run_race_detection(target, mutation=mutation, engine_seed=engine_seed)
    predictions = analyze_trace(run.trace, run.nprocs)
    if run.error is not None and run.error.startswith("PredictedDeadlockError"):
        # The wait-for monitor caught a cycle closing at request time —
        # the base run never actually wedged, so this is a prediction
        # too (of the hang the unmonitored run would have become), and
        # it preempts the lock-order graph seeing the nested acquires.
        if not any(p.kind == "deadlock" for p in predictions):
            predictions.append(
                Prediction(
                    kind="deadlock",
                    tiers=["wait-for"],
                    title="lock-acquisition cycle closed under monitoring",
                    detail=run.error,
                )
            )
    if confirm:
        for i, p in enumerate(predictions):
            confirm_prediction(
                p, target, mutation=mutation, engine_seed=engine_seed,
                out_dir=out_dir, ordinal=i,
            )
    return PredictReport(
        target=target,
        mutation=mutation,
        engine_seed=engine_seed,
        events_captured=len(run.trace),
        base_error=run.error,
        predictions=predictions,
    )

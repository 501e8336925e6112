"""Schedule-exploration strategies for the model checker.

Every strategy here plugs into the engine's decision points (see
:class:`repro.sim.engine.SchedulingStrategy`) and **records** each
decision it makes — which runnable process it resumed, which extra
latency it injected — into a flat decision list.  A recorded list can be
fed back through :class:`ReplayStrategy` to re-execute the exact same
interleaving, which is what makes failures found by exploration
reproducible and minimizable (see :mod:`repro.check.traces`).

Decision records are plain JSON-serializable dicts, read-only once
recorded (a strategy shares one pick record per rank):

``{"k": "pick", "rank": r}``
    A resume decision: among the runnable candidates, the process with
    rank ``r`` was resumed.
``{"k": "delay", "i": n, "s": seconds, "site": site}``
    The ``n``-th call to :meth:`delay` injected ``seconds`` of extra
    virtual latency (zero-delay calls are not recorded; ``i`` aligns
    them at replay time).
"""

from __future__ import annotations

import random
from collections import deque

from repro.sim.engine import Engine, SchedulingStrategy

__all__ = [
    "DeterministicStrategy",
    "ExplorationStrategy",
    "RandomWalk",
    "PctStrategy",
    "DelayInjector",
    "ReplayStrategy",
    "make_strategy",
    "STRATEGIES",
]

#: PCT bug depth: ``PCT_DEPTH - 1`` priority change points per run.
PCT_DEPTH = 3
#: Decision points over which PCT draws its change points.
PCT_HORIZON = 4000
#: Consecutive wins after which PCT demotes the running process.
PCT_FAIR_BOUND = 64
#: Chance that a delay site injects latency under :class:`DelayInjector`.
DELAY_P = 0.2
#: Upper bound of one injected delay (virtual seconds).
DELAY_MAX = 5e-6
#: Chance that a :class:`DelayInjector` pick resumes a random process.
DELAY_P_PREEMPT = 0.1


class DeterministicStrategy(SchedulingStrategy):
    """The engine's historical order, bit-for-bit (explicit spelling of
    ``strategy=None``; useful as a control in tests and sweeps)."""


class ExplorationStrategy(SchedulingStrategy):
    """Base for seeded, recording exploration strategies."""

    explores = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.decisions: list[dict] = []
        self._picks: dict[int, dict] = {}  # rank -> its one pick record
        self._delay_calls = 0

    # ------------------------------------------------------------------ #
    # Recording helpers
    # ------------------------------------------------------------------ #
    def _record_pick(self, rank: int) -> None:
        pick = self._picks.get(rank)
        if pick is None:
            pick = self._picks[rank] = {"k": "pick", "rank": rank}
        self.decisions.append(pick)

    def _record_delay(self, seconds: float, site: str) -> None:
        self.decisions.append(
            {"k": "delay", "i": self._delay_calls, "s": seconds, "site": site}
        )


class RandomWalk(ExplorationStrategy):
    """Uniform random walk over the schedule space.

    At every decision point, resume a uniformly random runnable process.
    With per-seed reproducible traces this is the workhorse strategy:
    cheap, unbiased, and surprisingly effective at flushing out ordering
    bugs that the deterministic schedule can never reach.
    """

    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        idx = self.rng.randrange(len(candidates))
        self._record_pick(candidates[idx][2])
        return idx


class PctStrategy(ExplorationStrategy):
    """Probabilistic concurrency testing (Burckhardt et al., ASPLOS'10).

    Each process gets a random priority; the highest-priority runnable
    process always runs.  At ``depth - 1`` randomly chosen decision
    points the running process's priority is demoted below everyone
    else's, forcing a context switch exactly where a bug of "depth" d
    needs one.  Finds low-depth ordering bugs with provable probability,
    typically much faster than a uniform random walk.

    PCT assumes programs terminate under any fair schedule; the Scioto
    runtime's steal/poll loops do not (an idle thief re-enters the
    runnable set on every poll timeout), so strict priority would starve
    every other process forever.  :data:`PCT_FAIR_BOUND` caps how many
    consecutive decision points one process may win while others are
    runnable; hitting the cap forces an extra priority change point.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._steps = 0
        self._change_points: set[int] = set()
        self._priorities: dict[int, float] = {}
        self._demote_next = 0.0  # strictly decreasing floor for demotions
        self._last_rank: int | None = None
        self._run_len = 0

    def begin(self, engine: Engine) -> None:
        super().begin(engine)
        ranks = list(range(engine.nprocs))
        self.rng.shuffle(ranks)
        # initial priorities are a random permutation, all above 0
        self._priorities = {r: float(i + 1) for i, r in enumerate(ranks)}
        self._change_points = set(self.rng.sample(range(PCT_HORIZON), PCT_DEPTH - 1))

    def _demote(self, rank: int) -> None:
        self._demote_next -= 1.0
        self._priorities[rank] = self._demote_next

    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        by_priority = lambda i: self._priorities.get(candidates[i][2], 0.0)  # noqa: E731
        idx = max(range(len(candidates)), key=by_priority)
        rank = candidates[idx][2]
        if rank == self._last_rank:
            self._run_len += 1
            if self._run_len >= PCT_FAIR_BOUND:
                self._demote(rank)
                idx = max(range(len(candidates)), key=by_priority)
                rank = candidates[idx][2]
                self._run_len = 0
        else:
            self._run_len = 0
        self._last_rank = rank
        if self._steps in self._change_points:
            self._demote(rank)
        self._steps += 1
        self._record_pick(rank)
        return idx


class DelayInjector(ExplorationStrategy):
    """Bounded latency injection plus occasional preemption.

    Models an adversarial network/NIC: every sync or wake-up (the ARMCI
    operation boundaries — each one-sided op serializes through
    ``Proc.co_sync``, each message delivery through ``Engine.wake``) may be
    stretched by a bounded random delay, and the resume order is
    occasionally perturbed.  Unlike :class:`RandomWalk` this keeps the
    run *timing-plausible*: virtual time still mostly drives ordering,
    with jitter comparable to real message-latency variance.
    """

    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        if self.rng.random() < DELAY_P_PREEMPT:
            idx = self.rng.randrange(len(candidates))
        else:
            idx = 0  # engine default: earliest (time, seq)
        self._record_pick(candidates[idx][2])
        return idx

    def delay(self, proc, site: str) -> float:
        d = 0.0
        if self.rng.random() < DELAY_P:
            d = self.rng.uniform(0.0, DELAY_MAX)
            self._record_delay(d, site)
        self._delay_calls += 1
        return d


class ReplayStrategy(SchedulingStrategy):
    """Deterministically re-execute a recorded decision list.

    Picks are consumed one per decision point and matched by *rank* (not
    index), so a trace stays meaningful even after the minimizer drops
    decisions: a missing or unmatchable pick simply falls back to the
    engine's default order.  Delays are matched by call index.
    """

    explores = True

    def __init__(self, decisions: list[dict]) -> None:
        self.decisions = list(decisions)
        self._picks: deque[int] = deque(
            d["rank"] for d in decisions if d["k"] == "pick"
        )
        self._delays: deque[tuple[int, float]] = deque(
            (d["i"], d["s"]) for d in decisions if d["k"] == "delay"
        )
        self._delay_calls = 0
        self.divergences = 0  # decision points not covered by the trace

    def choose(self, candidates: list[tuple[float, int, int, int]]) -> int:
        if self._picks:
            rank = self._picks.popleft()
            for i, entry in enumerate(candidates):
                if entry[2] == rank:
                    return i
        self.divergences += 1
        return 0

    def delay(self, proc, site: str) -> float:
        d = 0.0
        if self._delays and self._delays[0][0] == self._delay_calls:
            d = self._delays.popleft()[1]
        self._delay_calls += 1
        return d


#: CLI names for the exploration strategies.
STRATEGIES = {
    "random": RandomWalk,
    "pct": PctStrategy,
    "delay": DelayInjector,
    "deterministic": DeterministicStrategy,
}


def make_strategy(name: str, seed: int = 0) -> SchedulingStrategy:
    """Instantiate strategy ``name`` with ``seed`` (see :data:`STRATEGIES`)."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    if cls is DeterministicStrategy:
        return cls()
    return cls(seed=seed)

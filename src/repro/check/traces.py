"""Decision traces: persistence, replay metadata, and minimization.

A failing exploration run is summarized by a :class:`DecisionTrace` —
everything needed to re-execute the exact interleaving: the target
scenario, the engine seed, the mutation in force, and the strategy's
recorded decision list.  Traces serialize to JSON so a failure found in
CI can be replayed locally with ``python -m repro.check --replay``.

Minimization is delta debugging over the decision list: repeatedly
remove chunks (halving down to single decisions — the "drop-one" limit)
and keep any removal that still reproduces the failure.  Replay treats
missing decisions as "fall back to the deterministic order", so a
shortened trace remains executable; the minimizer only keeps removals
the failure survives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.util.io import RecordError, atomic_write_text, read_record, require

__all__ = ["DecisionTrace", "minimize_decisions"]

_FORMAT = 1
#: The fields each decision kind must carry (see ``repro.check.strategies``).
_DECISION_FIELDS = {"pick": ("rank",), "delay": ("i", "s")}


@dataclass
class DecisionTrace:
    """A replayable record of one explored schedule."""

    target: str
    strategy: str
    strategy_seed: int
    engine_seed: int
    nprocs: int
    schedule_index: int
    failure: str
    mutation: str = "none"
    #: JSON form of the failure signature (see ``RunOutcome.signature``);
    #: replay compares against this to decide "same failure".
    signature: list = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the trace as JSON (atomically); returns the path written.

        Atomic temp-file + ``os.replace``: parallel campaigns persisting
        into one directory, or an interrupted one, can never leave a torn
        trace file.
        """
        path = Path(path)
        payload = {
            "format": _FORMAT,
            "target": self.target,
            "strategy": self.strategy,
            "strategy_seed": self.strategy_seed,
            "engine_seed": self.engine_seed,
            "nprocs": self.nprocs,
            "schedule_index": self.schedule_index,
            "failure": self.failure,
            "mutation": self.mutation,
            "signature": self.signature,
            "decisions": self.decisions,
        }
        return atomic_write_text(path, json.dumps(payload, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "DecisionTrace":
        """Read a trace previously written by :meth:`save`.

        Raises:
            RecordError: Naming ``path``, when the file is not a whole
                trace: a missing or torn file, an unsupported format, a
                missing required key, a target, strategy or failure that
                is not a string, a seed or schedule index that is not an
                integer, a decision that is not a ``pick`` or ``delay``
                with its fields, a pick rank outside ``[0, nprocs)``, or
                a delay whose ``i`` is not an integer or ``s`` not a
                number.
        """
        data = read_record(path, None)
        if data.get("format") != _FORMAT:
            raise RecordError(f"{path}: unsupported trace format {data.get('format')!r}")
        for key in ("target", "strategy", "failure"):
            require(path, data, key, str)
        for key in ("engine_seed", "strategy_seed", "schedule_index", "nprocs"):
            require(path, data, key, int)
        nprocs = data["nprocs"]
        if nprocs < 1:
            raise RecordError(f"{path}: nprocs must be a positive integer, not {nprocs!r}")
        for n, d in enumerate(require(path, data, "decisions", list)):
            if (
                not isinstance(d, dict)
                or d.get("k") not in ("pick", "delay")
                or any(f not in d for f in _DECISION_FIELDS[d["k"]])
            ):
                raise RecordError(
                    f"{path}: decision {n} is neither a pick (k, rank) nor a "
                    f"delay (k, i, s): {d!r}"
                )
            if d["k"] == "pick" and (type(d["rank"]) is not int or not 0 <= d["rank"] < nprocs):
                raise RecordError(
                    f"{path}: decision {n} picks rank {d['rank']!r}, outside [0, {nprocs})"
                )
            if d["k"] == "delay" and (
                type(d["i"]) is not int or type(d["s"]) not in (int, float)
            ):
                raise RecordError(
                    f"{path}: decision {n} is a delay without an integer i and "
                    f"a numeric s: {d!r}"
                )
        return cls(
            target=data["target"],
            strategy=data["strategy"],
            strategy_seed=data["strategy_seed"],
            engine_seed=data["engine_seed"],
            nprocs=data["nprocs"],
            schedule_index=data["schedule_index"],
            failure=data["failure"],
            mutation=data.get("mutation", "none"),
            signature=data.get("signature", []),
            decisions=data["decisions"],
        )


def minimize_decisions(
    decisions: list[dict],
    reproduces: Callable[[list[dict]], bool],
    max_replays: int = 200,
) -> tuple[list[dict], int]:
    """Shrink ``decisions`` while ``reproduces`` stays True.

    Chunked delta debugging: try dropping contiguous chunks, halving the
    chunk size down to one decision (greedy drop-one).  ``reproduces``
    is called with a candidate decision list and must return whether the
    original failure still occurs.  Stops after ``max_replays`` replay
    attempts so minimizing a long trace stays bounded.

    Returns:
        ``(minimized_decisions, replays_used)``.
    """
    current = list(decisions)
    replays = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        progressed = False
        while i < len(current):
            if replays >= max_replays:
                return current, replays
            candidate = current[:i] + current[i + chunk :]
            replays += 1
            if reproduces(candidate):
                current = candidate
                progressed = True
                # keep i: the next chunk has shifted into place
            else:
                i += chunk
        if chunk == 1 and not progressed:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else (1 if progressed else 0)
    return current, replays

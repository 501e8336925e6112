"""Trajectory differ: compare two benchmark/metrics JSON documents.

The repo commits reference trajectories — ``BENCH_sim.json`` (virtual
time, schema ``repro-bench/1``) and ``BENCH_fleet.json``
(``repro-bench-fleet/1``) — and ``repro.obs run`` writes metrics
documents (:data:`~repro.obs.export.METRICS_SCHEMA`).  ``python -m
repro.obs diff OLD NEW`` loads two documents of the same schema,
matches their series by stable keys, and reports every relative change
beyond a threshold:

* ``repro-bench/1`` — series matched by ``(experiment, label)``; the
  worst pointwise relative delta decides.  Direction comes from the
  unit/label: times (``us``, ``s``, ``seconds``) regress upward,
  rates (``speedup``, ``throughput``, ``tasks/s``) regress downward,
  anything else is direction-neutral and only *warns* on change.
* metrics documents — counter totals and histogram count are
  determinism signals (any change warns); histogram mean/p95 and
  gauge max regress upward beyond the threshold.  Only the current
  metrics schema is accepted.
* ``repro-bench-fleet/1`` — entries matched by ``jobs``; ``schedules``
  and ``failing_digest`` must be exactly equal (the campaign is
  deterministic for any worker count) and ``schedules_per_sec``
  regresses downward.

The CI perf gate runs this warn-only against the committed baseline;
``--fail-on-regress`` turns regressions into exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import METRICS_SCHEMA

__all__ = ["DiffEntry", "DiffReport", "diff_documents", "diff_files", "render_diff"]

#: Relative change below which a delta is considered noise.
DEFAULT_THRESHOLD = 0.10

_LOWER_BETTER_UNITS = {"us", "ms", "s", "sec", "seconds", "ns"}
_HIGHER_BETTER_HINTS = ("speedup", "throughput", "tasks/s", "nodes/s", "per_sec", "/s")


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity."""

    key: str  #: stable series identifier, e.g. "table1/cluster-measured"
    metric: str  #: which number, e.g. "ys[3]" or "schedules_per_sec"
    old: float | None
    new: float | None
    rel: float  #: relative delta |new-old| / max(|old|, eps), signed by new-old
    status: str  #: ok | changed | regress | improve | added | removed | mismatch

    def describe(self) -> str:
        if self.status in ("added", "removed"):
            return f"{self.status:>8}  {self.key} [{self.metric}]"
        arrow = f"{self.old:g} -> {self.new:g}"
        return (
            f"{self.status:>8}  {self.key} [{self.metric}]  {arrow}"
            f"  ({self.rel:+.1%})"
        )


@dataclass
class DiffReport:
    """All diff entries plus the derived verdicts."""

    schema: str
    threshold: float
    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status in ("regress", "mismatch")]

    @property
    def changes(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status not in ("ok", "improve")]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _rel(old: float, new: float) -> float:
    denom = max(abs(old), 1e-12)
    return (new - old) / denom


def _direction(unit: str | None, label: str) -> str:
    """'down' = lower is better, 'up' = higher is better, 'neutral'."""
    text = f"{unit or ''} {label}".lower()
    if any(h in text for h in _HIGHER_BETTER_HINTS):
        return "up"
    if unit and unit.lower() in _LOWER_BETTER_UNITS:
        return "down"
    return "neutral"


def _classify(rel: float, threshold: float, direction: str) -> str:
    if abs(rel) <= threshold:
        return "ok"
    if direction == "down":
        return "regress" if rel > 0 else "improve"
    if direction == "up":
        return "regress" if rel < 0 else "improve"
    return "changed"


def _compare(
    report: DiffReport,
    key: str,
    metric: str,
    old: float | None,
    new: float | None,
    direction: str = "neutral",
    exact: bool = False,
) -> None:
    if old is None and new is None:
        return
    if old is None:
        report.entries.append(DiffEntry(key, metric, None, new, 0.0, "added"))
        return
    if new is None:
        report.entries.append(DiffEntry(key, metric, old, None, 0.0, "removed"))
        return
    rel = _rel(old, new)
    if exact:
        status = "ok" if new == old else "mismatch"
    else:
        status = _classify(rel, report.threshold, direction)
    report.entries.append(DiffEntry(key, metric, old, new, rel, status))


# ---------------------------------------------------------------------- #
# Per-schema walkers
# ---------------------------------------------------------------------- #
def _diff_bench(report: DiffReport, old: dict, new: dict) -> None:
    def series_map(doc: dict) -> dict[tuple[str, str], dict]:
        out = {}
        for exp in doc.get("experiments", []):
            for s in exp.get("series", []):
                out[(exp["experiment"], s["label"])] = s
        return out

    olds, news = series_map(old), series_map(new)
    for k in sorted(olds.keys() | news.keys()):
        key = f"{k[0]}/{k[1]}"
        o, n = olds.get(k), news.get(k)
        if o is None or n is None:
            _compare(report, key, "series", None if o is None else 0.0,
                     None if n is None else 0.0)
            continue
        direction = _direction(n.get("unit"), k[1])
        oys, nys = o.get("ys", []), n.get("ys", [])
        if len(oys) != len(nys):
            report.entries.append(
                DiffEntry(key, "len(ys)", float(len(oys)), float(len(nys)),
                          _rel(len(oys), len(nys)), "mismatch")
            )
            continue
        # Report only the worst point per series to keep output readable.
        worst = None
        for i, (ov, nv) in enumerate(zip(oys, nys)):
            rel = _rel(ov, nv)
            if worst is None or abs(rel) > abs(worst[1]):
                worst = (i, rel, ov, nv)
        if worst is None:
            continue
        i, rel, ov, nv = worst
        _compare(report, key, f"ys[{i}]", ov, nv, direction)


def _diff_metrics(report: DiffReport, old: dict, new: dict) -> None:
    ocnt = old.get("counters", {}).get("total", {})
    ncnt = new.get("counters", {}).get("total", {})
    for k in sorted(ocnt.keys() | ncnt.keys()):
        _compare(report, f"counter/{k}", "total", ocnt.get(k), ncnt.get(k))
    ohist = old.get("histograms", {})
    nhist = new.get("histograms", {})
    for k in sorted(ohist.keys() | nhist.keys()):
        o, n = ohist.get(k), nhist.get(k)
        if o is None or n is None:
            _compare(report, f"histogram/{k}", "count",
                     None if o is None else o.get("count"),
                     None if n is None else n.get("count"))
            continue
        _compare(report, f"histogram/{k}", "count", o.get("count"), n.get("count"))
        _compare(report, f"histogram/{k}", "mean", o.get("mean"), n.get("mean"), "down")
        _compare(report, f"histogram/{k}", "p95", o.get("p95"), n.get("p95"), "down")
    ogauge = old.get("gauges", {})
    ngauge = new.get("gauges", {})
    for k in sorted(ogauge.keys() | ngauge.keys()):
        o, n = ogauge.get(k, {}), ngauge.get(k, {})
        _compare(report, f"gauge/{k}", "max", o.get("max"), n.get("max"), "down")


def _diff_fleet(report: DiffReport, old: dict, new: dict) -> None:
    def entry_map(doc: dict) -> dict[int, dict]:
        return {e["jobs"]: e for e in doc.get("entries", [])}

    olds, news = entry_map(old), entry_map(new)
    for k in sorted(olds.keys() | news.keys()):
        key = f"fleet[jobs={k}]"
        o, n = olds.get(k), news.get(k)
        if o is None or n is None:
            _compare(report, key, "entry", None if o is None else 0.0,
                     None if n is None else 0.0)
            continue
        # The campaign is deterministic: schedule counts and the failing
        # set must match exactly; throughput regresses downward.
        _compare(report, key, "schedules", o.get("schedules"),
                 n.get("schedules"), exact=True)
        _compare(report, key, "schedules_per_sec", o.get("schedules_per_sec"),
                 n.get("schedules_per_sec"), "up")
        od, nd = o.get("failing_digest"), n.get("failing_digest")
        if od != nd:
            report.entries.append(
                DiffEntry(key, "failing_digest", 0.0, 1.0, 0.0, "mismatch")
            )


_WALKERS = {
    "repro-bench/1": _diff_bench,
    METRICS_SCHEMA: _diff_metrics,
    "repro-bench-fleet/1": _diff_fleet,
}


def diff_documents(
    old: dict, new: dict, threshold: float = DEFAULT_THRESHOLD
) -> DiffReport:
    """Diff two parsed documents; their schemas must be compatible."""
    oschema, nschema = old.get("schema"), new.get("schema")
    walker = _WALKERS.get(nschema or "")
    if walker is None:
        raise ValueError(
            f"unsupported schema {nschema!r}; known: {sorted(_WALKERS)}"
        )
    if _WALKERS.get(oschema or "") is not walker:
        raise ValueError(f"schema mismatch: old={oschema!r} new={nschema!r}")
    report = DiffReport(schema=nschema, threshold=threshold)
    walker(report, old, new)
    return report


def diff_files(
    old_path: str | Path, new_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> DiffReport:
    """Load two JSON files and diff them."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return diff_documents(old, new, threshold)


def render_diff(report: DiffReport, verbose: bool = False) -> str:
    """Human-readable report; quiet when everything is within threshold."""
    shown = report.entries if verbose else report.changes
    lines = [
        f"diff ({report.schema}, threshold {report.threshold:.0%}): "
        f"{len(report.entries)} compared, {len(report.changes)} changed, "
        f"{len(report.regressions)} regressed"
    ]
    for e in shown:
        lines.append("  " + e.describe())
    if not shown:
        lines.append("  (no changes beyond threshold)")
    return "\n".join(lines)

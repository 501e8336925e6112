"""Rendering of benchmark results as aligned tables."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.util.format import format_table
from repro.util.records import SweepResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.stats import ProcessStats

__all__ = ["render", "per_rank_table"]


def render(result: SweepResult, x_label: str = "procs", fmt: str = "{:.3g}") -> str:
    """Render a sweep as one aligned table, one column per series."""
    xs = sorted({x for s in result.series for x in s.xs})
    headers = [x_label] + [
        f"{s.label}" + (f" [{s.unit}]" if s.unit else "") for s in result.series
    ]
    rows = []
    for x in xs:
        row: list[object] = [int(x) if float(x).is_integer() else x]
        for s in result.series:
            row.append(fmt.format(s.y_at(x)) if x in s.xs else "-")
        rows.append(row)
    body = format_table(headers, rows, title=f"== {result.experiment} ==")
    if result.notes:
        body += "\n" + "\n".join(f"  note: {n}" for n in result.notes)
    return body


#: ``ProcessStats.to_dict`` keys shown by :func:`per_rank_table`, in order.
_PER_RANK_COLUMNS = (
    "tasks_executed",
    "steals_attempted",
    "steals_successful",
    "tasks_stolen",
    "td_msgs",
    "waves",
    "efficiency",
)


def per_rank_table(stats: Sequence["ProcessStats"], title: str = "per-rank") -> str:
    """Render one row per rank from :meth:`ProcessStats.to_dict`."""
    headers = ["rank"] + [c.replace("_", " ") for c in _PER_RANK_COLUMNS]
    rows = []
    for st in stats:
        d = st.to_dict()
        row: list[object] = [d["rank"]]
        for c in _PER_RANK_COLUMNS:
            v = d[c]
            row.append(f"{v:.3f}" if isinstance(v, float) else v)
        rows.append(row)
    return format_table(headers, rows, title=f"== {title} ==")


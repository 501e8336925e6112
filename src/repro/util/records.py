"""Result records produced by the benchmark harness.

Every experiment in ``repro.bench`` returns structured records so that
tests can assert on shapes (who wins, where crossovers fall) and the
report generator can print paper-vs-measured tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Series:
    """A named series of (x, y) points, one line of a paper figure."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    unit: str = ""

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x: float) -> float:
        """Return the y value recorded at sweep point ``x``."""
        return self.ys[self.xs.index(x)]

    def to_dict(self) -> dict:
        """JSON-ready form (used by the bench ``BENCH_sim.json`` writer)."""
        return {
            "label": self.label,
            "unit": self.unit,
            "xs": list(self.xs),
            "ys": list(self.ys),
        }


@dataclass
class SweepResult:
    """All series of one figure/table plus free-form notes."""

    experiment: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def get(self, label: str) -> Series:
        """Return the series with the given label."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.experiment}")

    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    def to_dict(self) -> dict:
        """JSON-ready form (used by the bench ``BENCH_sim.json`` writer)."""
        return {
            "experiment": self.experiment,
            "series": [s.to_dict() for s in self.series],
            "notes": list(self.notes),
        }

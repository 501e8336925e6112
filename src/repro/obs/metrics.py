"""Metrics primitives: counters, gauges, and sketch-backed histograms.

This module is the storage layer of the observability subsystem.  It
deliberately imports nothing from the runtime layers (``repro.sim``,
``repro.core``, ``repro.armci``) so that any of them can import it
without cycles.

Three metric kinds cover the paper's evaluation needs (§6):

* :class:`CounterFamily` — the two-level ``rank -> key -> float`` map
  the benchmarks read; :class:`repro.sim.counters.Counters` wraps it.
* :class:`Gauge` — a per-rank last-value sample (queue occupancy and
  the like), with min/max/sample-count retained.
* :class:`Histogram` — count, sum, extremes and per-rank count/sum,
  plus a :class:`QuantileSketch` that answers every percentile query.

:meth:`QuantileSketch.quantile` is the one percentile computation in
the package: histogram exports and the live telemetry bus both read it.
"""

from __future__ import annotations

import math
from collections import defaultdict

__all__ = [
    "CounterFamily",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
]


class QuantileSketch:
    """A DDSketch-style log-bucketed quantile sketch.

    Bucket key ``i`` holds values ``v`` with ``gamma**(i-1) < v <=
    gamma**i`` where ``gamma = (1 + alpha) / (1 - alpha)``; reporting the
    bucket midpoint ``2 * gamma**i / (gamma + 1)`` keeps every estimate
    within relative error ``alpha`` of the true value (boundary values may
    round into the adjacent bucket, which still lands exactly at the
    ``alpha`` bound).  Values at or below :data:`MIN_VALUE` — including
    zeros, which queue-occupancy streams produce — collapse into a
    dedicated zero bucket reported as ``0.0``.

    Buckets are sparse integers in a dict, so memory is
    ``O(log(max/min) / alpha)`` regardless of observation count, and the
    structure is exactly mergeable (bucket-wise add) and subtractable
    (bucket-wise delta, used for the live telemetry bus's per-frame
    windows).  Everything is integer arithmetic plus one ``math.log``
    per observation: deterministic for a given value stream.
    """

    #: Values at or below this (including non-positive) use the zero bucket.
    MIN_VALUE = 1e-12

    __slots__ = ("alpha", "gamma", "_log_gamma", "buckets", "zero", "count")

    def __init__(self, alpha: float = 0.01) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"sketch alpha must be in (0, 1), got {alpha!r}")
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self.gamma)
        self.buckets: dict[int, int] = {}
        self.zero = 0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if value <= self.MIN_VALUE:
            self.zero += 1
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self.buckets[key] = self.buckets.get(key, 0) + 1
        self.count += 1

    def value_at(self, key: int) -> float:
        """Midpoint estimate for bucket ``key``."""
        return 2.0 * self.gamma**key / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Quantile estimate within relative error ``alpha``.

        Rank rule: the first bucket whose cumulative count reaches
        ``q * count``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = self.zero
        if seen >= target and self.zero:
            return 0.0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= target:
                return self.value_at(key)
        return self.value_at(max(self.buckets)) if self.buckets else 0.0

    # -- merge / delta -------------------------------------------------- #
    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other``'s buckets into this sketch (exact)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketch with alpha={other.alpha} into alpha={self.alpha}"
            )
        for key, c in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + c
        self.zero += other.zero
        self.count += other.count

    def snapshot(self) -> tuple[dict[int, int], int, int]:
        """Frozen bucket state, for windowed deltas via :meth:`delta`."""
        return (dict(self.buckets), self.zero, self.count)

    def delta(self, snap: tuple[dict[int, int], int, int]) -> "QuantileSketch":
        """A new sketch holding only observations made since ``snap``."""
        prev_buckets, prev_zero, prev_count = snap
        out = QuantileSketch(self.alpha)
        for key, c in self.buckets.items():
            d = c - prev_buckets.get(key, 0)
            if d:
                out.buckets[key] = d
        out.zero = self.zero - prev_zero
        out.count = self.count - prev_count
        return out

    # -- serialization -------------------------------------------------- #
    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "zero": self.zero,
            "count": self.count,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    def merge_dict(self, doc: dict) -> None:
        """Fold a serialized sketch (:meth:`to_dict` form) into this one."""
        if doc.get("alpha") != self.alpha:
            raise ValueError(
                f"cannot merge sketch with alpha={doc.get('alpha')} "
                f"into alpha={self.alpha}"
            )
        for key_str, c in doc.get("buckets", {}).items():
            key = int(key_str)
            self.buckets[key] = self.buckets.get(key, 0) + c
        self.zero += doc.get("zero", 0)
        self.count += doc.get("count", 0)

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantileSketch":
        out = cls(doc.get("alpha", 0.01))
        out.merge_dict(doc)
        return out


class CounterFamily:
    """A two-level counter map: ``counters[rank][key] -> float``.

    Also maintains a global aggregate accessible via :meth:`total`.
    """

    def __init__(self) -> None:
        self._per_rank: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(self, rank: int, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``key`` of ``rank``."""
        self._per_rank[rank][key] += amount

    def row(self, rank: int) -> dict[str, float]:
        """The live ``{key: value}`` row of ``rank``, for a hot path that
        bumps its own counters (``row[key] += 1.0``) without a call each."""
        return self._per_rank[rank]

    def get(self, rank: int, key: str) -> float:
        """Return counter ``key`` of ``rank`` (0.0 if never touched)."""
        return self._per_rank[rank].get(key, 0.0)

    def total(self, key: str) -> float:
        """Sum of counter ``key`` across all ranks."""
        return sum(c.get(key, 0.0) for c in self._per_rank.values())

    def keys(self) -> set[str]:
        """All counter names that have been touched on any rank."""
        out: set[str] = set()
        for c in self._per_rank.values():
            out.update(c.keys())
        return out

    def snapshot(self) -> dict[str, float]:
        """Aggregate view ``{key: total}`` across ranks."""
        return {k: self.total(k) for k in sorted(self.keys())}

    def per_rank_snapshot(self) -> dict[int, dict[str, float]]:
        """Full view ``{rank: {key: value}}`` (ranks and keys sorted)."""
        return {
            rank: {k: v for k, v in sorted(self._per_rank[rank].items())}
            for rank in sorted(self._per_rank)
        }


class Gauge:
    """A per-rank sampled value; remembers last/min/max and sample count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.last: dict[int, float] = {}
        self.min = math.inf
        self.max = -math.inf
        self.samples = 0

    def set(self, rank: int, value: float) -> None:
        """Record ``value`` as the gauge's current reading on ``rank``."""
        self.last[rank] = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.samples += 1

    def to_dict(self) -> dict:
        return {
            "last": {str(r): v for r, v in sorted(self.last.items())},
            "min": self.min if self.samples else None,
            "max": self.max if self.samples else None,
            "samples": self.samples,
        }


class Histogram:
    """Count, sum, extremes and a :class:`QuantileSketch` of one metric.

    Per-rank count/sum are kept alongside the global distribution so
    summaries can show which ranks dominate.  Percentiles are
    ``sketch.quantile(q)``: within relative error ``alpha`` of a true
    observation, whatever the metric's unit or range.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sketch = QuantileSketch()
        self._rank_count: dict[int, int] = defaultdict(int)
        self._rank_sum: dict[int, float] = defaultdict(float)

    def observe(self, value: float, rank: int | None = None) -> None:
        """Record one observation (optionally attributed to ``rank``)."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.sketch.observe(value)
        if rank is not None:
            self._rank_count[rank] += 1
            self._rank_sum[rank] += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        some = self.count > 0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if some else None,
            "max": self.max if some else None,
            "p50": self.sketch.quantile(0.50) if some else None,
            "p95": self.sketch.quantile(0.95) if some else None,
            "p99": self.sketch.quantile(0.99) if some else None,
            "sketch": self.sketch.to_dict(),
            "per_rank": {
                str(r): {"count": self._rank_count[r], "sum": self._rank_sum[r]}
                for r in sorted(self._rank_count)
            },
        }


class MetricsRegistry:
    """One namespace of counters, gauges, and histograms.

    The observability :class:`~repro.obs.record.Recorder` owns one
    registry per engine; every metric is created on first use.
    """

    def __init__(self) -> None:
        self.counters = CounterFamily()
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- creation-on-demand ------------------------------------------- #
    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        h = self.histograms.get(name)
        if h is None:
            h = Histogram(name)
            self.histograms[name] = h
        return h

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        g = self.gauges.get(name)
        if g is None:
            g = Gauge(name)
            self.gauges[name] = g
        return g

    # -- recording ----------------------------------------------------- #
    def observe(self, name: str, value: float, rank: int | None = None) -> None:
        """Observe ``value`` into histogram ``name``."""
        self.histogram(name).observe(value, rank)

    def sample(self, name: str, rank: int, value: float) -> None:
        """Set gauge ``name`` on ``rank`` to ``value``."""
        self.gauge(name).set(rank, value)

    def add(self, rank: int, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` of ``rank``."""
        self.counters.add(rank, key, amount)

    # -- export -------------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-ready view of every metric in the registry."""
        return {
            "counters": {
                "total": self.counters.snapshot(),
                "per_rank": {
                    str(r): v for r, v in self.counters.per_rank_snapshot().items()
                },
            },
            "gauges": {k: g.to_dict() for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.to_dict() for k, h in sorted(self.histograms.items())},
        }

"""Metrics primitives: sketch-backed histograms, gauges, counter facade."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.counters import Counters


class TestHistogram:
    def test_stats_and_per_rank_attribution(self):
        h = Histogram("h")
        h.observe(0.5, rank=0)
        h.observe(5.0, rank=1)
        h.observe(5.0, rank=1)
        assert h.count == 3
        assert h.sum == pytest.approx(10.5)
        assert h.mean == pytest.approx(3.5)
        d = h.to_dict()
        assert d["per_rank"]["1"] == {"count": 2, "sum": 10.0}
        assert d["min"] == 0.5 and d["max"] == 5.0

    def test_overflow_bucket(self):
        # No top edge to overflow: a large value gets its own sketch
        # bucket and an exact max.
        h = Histogram("h")
        h.observe(100.0)
        assert h.max == 100.0
        assert h.sketch.count == 1 and h.sketch.zero == 0
        assert h.to_dict()["p99"] == pytest.approx(100.0, rel=h.sketch.alpha)

    def test_below_first_edge_lands_in_first_bucket(self):
        # Non-positive values land in the sketch's zero bucket.
        h = Histogram("h")
        h.observe(0.0)
        h.observe(-5.0)
        assert h.sketch.zero == 2 and h.sketch.count == 2
        assert (h.min, h.max, h.count) == (-5.0, 0.0, 2)

    def test_percentiles_come_from_the_sketch(self):
        h = Histogram("h")
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        d = h.to_dict()
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            assert d[key] == h.sketch.quantile(q)
        assert d["p50"] == pytest.approx(0.6, rel=h.sketch.alpha)
        assert d["p99"] == pytest.approx(3.0, rel=h.sketch.alpha)
        assert set(d) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
            "sketch", "per_rank",
        }

    def test_empty_quantile_is_zero(self):
        h = Histogram("h")
        assert h.sketch.quantile(0.9) == 0.0
        d = h.to_dict()
        assert d["p50"] is d["p95"] is d["p99"] is None
        assert d["min"] is None and d["max"] is None


class TestGauge:
    def test_last_min_max_samples(self):
        g = Gauge("occ")
        g.set(0, 3.0)
        g.set(0, 7.0)
        g.set(1, 1.0)
        assert g.last == {0: 7.0, 1: 1.0}
        assert g.min == 1.0 and g.max == 7.0 and g.samples == 3

    def test_empty_to_dict_has_null_extremes(self):
        d = Gauge("g").to_dict()
        assert d["min"] is None and d["max"] is None and d["samples"] == 0


class TestCounters:
    def test_counters_is_a_counterfamily_facade(self):
        c = Counters()
        assert isinstance(c, CounterFamily)
        c.add(0, "steal_success")
        c.add(1, "steal_success", 2.0)
        assert c.total("steal_success") == 3.0
        assert c.per_rank_snapshot() == {
            0: {"steal_success": 1.0},
            1: {"steal_success": 2.0},
        }


class TestRegistry:
    def test_observe_sample_add_roundtrip_through_to_dict(self):
        reg = MetricsRegistry()
        reg.observe("steal_latency", 1e-6, rank=0)
        reg.sample("queue_len", 2, 9.0)
        reg.add(0, "events", 4.0)
        d = reg.to_dict()
        assert d["histograms"]["steal_latency"]["count"] == 1
        assert d["gauges"]["queue_len"]["last"]["2"] == 9.0
        assert d["counters"]["total"]["events"] == 4.0

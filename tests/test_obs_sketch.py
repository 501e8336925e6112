"""QuantileSketch error bound and merge algebra.

The sketch is the one percentile path: every quantile estimate is within
relative error ``alpha`` of a true sample value, merges are exact, and
deltas are exact (live telemetry frames).  The property test drives the
bound with hypothesis, through the bare sketch and through a
:class:`Histogram`'s exported percentiles.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, QuantileSketch


def exact_quantile(values, q):
    """The rank rule the sketch uses: first value reaching q * count."""
    ordered = sorted(values)
    target = q * len(ordered)
    seen = 0
    for v in ordered:
        seen += 1
        if seen >= target:
            return v
    return ordered[-1]


class TestErrorBound:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_within_relative_error(self, values, q):
        sk = QuantileSketch(alpha=0.01)
        hist = Histogram("h")
        for v in values:
            sk.observe(v)
            hist.observe(v)
        est = sk.quantile(q)
        exact = exact_quantile(values, q)
        # Boundary values may round into the adjacent bucket; the
        # midpoint estimate still lands within alpha of the true value.
        assert abs(est - exact) <= sk.alpha * exact * (1 + 1e-9) + 1e-15
        # A histogram's exported percentiles are its sketch's answers,
        # held to the same bound against the sorted-list reference.
        doc = hist.to_dict()
        for key, hq in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            assert doc[key] == hist.sketch.quantile(hq)
            ref = exact_quantile(values, hq)
            assert abs(doc[key] - ref) <= sk.alpha * ref * (1 + 1e-9) + 1e-15

    def test_zero_and_negative_values_use_zero_bucket(self):
        sk = QuantileSketch()
        for v in (0.0, -1.0, 1e-13):
            sk.observe(v)
        assert sk.zero == 3 and sk.count == 3 and not sk.buckets
        assert sk.quantile(0.5) == 0.0

    def test_empty_sketch_quantile_is_zero(self):
        assert QuantileSketch().quantile(0.99) == 0.0

    def test_bad_alpha_and_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class TestMergeAndDelta:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=50),
        st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=50),
    )
    def test_merge_equals_combined_stream(self, a, b):
        left, right, both = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for v in a:
            left.observe(v)
            both.observe(v)
        for v in b:
            right.observe(v)
            both.observe(v)
        left.merge(right)
        assert left.buckets == both.buckets
        assert left.zero == both.zero and left.count == both.count
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == both.quantile(q)

    def test_delta_isolates_observations_since_snapshot(self):
        sk = QuantileSketch()
        for v in (1.0, 2.0, 3.0):
            sk.observe(v)
        snap = sk.snapshot()
        for v in (10.0, 20.0):
            sk.observe(v)
        d = sk.delta(snap)
        fresh = QuantileSketch()
        for v in (10.0, 20.0):
            fresh.observe(v)
        assert d.buckets == fresh.buckets and d.count == 2
        assert d.quantile(0.5) == fresh.quantile(0.5)

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge_dict({"alpha": 0.05})


class TestSerialization:
    def test_roundtrip_preserves_quantiles(self):
        sk = QuantileSketch()
        for v in (0.0, 1e-6, 3e-6, 5e-4, 0.1):
            sk.observe(v)
        doc = json.loads(json.dumps(sk.to_dict()))  # through real JSON
        back = QuantileSketch.from_dict(doc)
        assert back.count == sk.count and back.zero == sk.zero
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert back.quantile(q) == sk.quantile(q)

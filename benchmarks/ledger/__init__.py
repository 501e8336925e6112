"""The performance ledger: five workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from ``spec.py``;
``README.md`` in this directory says what is measured and why.
"""

"""``repro.obs`` — unified observability: spans, metrics, timeline export.

The paper's whole evaluation (§6) is about *where time goes* — task
execution vs. queue management vs. stealing vs. termination.  This
package is the instrumentation that answers that question for the
simulated runtime:

* **Spans** (:mod:`repro.obs.record`): nested virtual-time intervals
  recorded by the runtime layers — task execution, steal attempts,
  split-queue moves, lock waits, termination waves, one-sided
  operations.  Attach-based and zero-cost when off, like the tracer
  and the race detector (each is one ``Engine`` attribute, None
  until attached); recording never perturbs the deterministic
  schedule.
* **Metrics** (:mod:`repro.obs.metrics`): counters
  (:class:`~repro.obs.metrics.CounterFamily`, which
  ``repro.sim.counters.Counters`` wraps), gauges, and histograms
  (steal latency, stolen chunk size, queue occupancy, wave
  round-trip, lock hold/wait) whose percentiles all come from one
  mergeable :class:`~repro.obs.metrics.QuantileSketch`.
* **Live telemetry** (:mod:`repro.obs.live`): the one windowed view —
  per-interval frames of sketch-delta percentiles, counters and event
  rates, appended to a JSONL feed that ``top`` renders.
* **Events** (:mod:`repro.obs.tracing`): the structured event tracer.
* **Exporters** (:mod:`repro.obs.export`): Chrome ``trace_event`` JSON
  (open in Perfetto; causal edges drawn as flow arrows, the critical
  path as its own process), flat metrics JSON, ASCII per-rank timeline.
* **Analysis** (:mod:`repro.obs.analyze`): post-hoc summaries over
  exported traces, including the longest per-rank idle gaps.
* **Causal profiling** (:mod:`repro.obs.critpath`,
  :mod:`repro.obs.whatif`): the cross-rank happens-before DAG built
  from spans plus causal edges, critical-path extraction with an exact
  blame decomposition of the makespan, and Coz-style what-if
  projection ("what if steals were 2x faster?").
* **Regression gate** (:mod:`repro.obs.diff`): a trajectory differ for
  the committed benchmark/metrics JSON documents.

CLI::

    python -m repro.obs run uts-small --trace out.json --metrics m.json
    python -m repro.obs summarize out.json --top 10
    python -m repro.obs critpath uts-small --trace crit.json
    python -m repro.obs whatif uts-small --scale steal=0.5
    python -m repro.obs run uts-small --live feed.jsonl
    python -m repro.obs top feed.jsonl --follow
    python -m repro.obs diff BENCH_sim.json fresh.json
    python -m repro.obs verify          # recording-on == recording-off

Every name lives in its submodule and is imported from there; this
package imports nothing, so the runtime layers that import
:mod:`repro.obs.record` and :mod:`repro.obs.tracing` load no exporter
or analysis code.  See ``docs/observability.md`` for the full API and
cost model.
"""

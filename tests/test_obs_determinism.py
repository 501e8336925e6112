"""Recording must not perturb the deterministic schedule.

The acceptance bar of the observability subsystem: attaching a
``Recorder`` (spans + metrics + instants) leaves virtual-time results
and every ``Counters`` total bit-for-bit unchanged.  The fingerprint
covers elapsed time, engine event count, per-rank clocks, and the full
per-rank ARMCI and task-collection counter maps.
"""

from __future__ import annotations

import pytest

from repro.obs.scenarios import fingerprint, run_target


@pytest.mark.parametrize("target", ["queue", "steals"])
def test_recording_leaves_run_bit_for_bit_unchanged(target):
    off = fingerprint(run_target(target, record=False))
    on = fingerprint(run_target(target, record=True))
    assert off == on


def test_recorded_run_actually_recorded_something():
    run = run_target("steals", record=True)
    assert run.recorder is not None
    assert len(run.recorder.finished_spans()) > 0
    assert run.recorder.metrics.histograms  # at least one histogram fed


def test_recording_without_edges_keeps_span_stream_identical():
    on = run_target("steals", record=True, edges=True)
    off = run_target("steals", record=True, edges=False)
    assert on.recorder.edges and not off.recorder.edges
    assert on.recorder.stream_fingerprint() == off.recorder.stream_fingerprint()


def test_verify_cli_passes_on_check_scenarios(capsys):
    from repro.obs.__main__ import main

    assert main(["verify", "queue", "steals"]) == 0
    out = capsys.readouterr().out
    # one line per target, plus the summary
    assert "span stream unchanged by recording, causal edges, streaming, and live telemetry" in out
    assert "0 dropped" in out
    assert "2/2 targets deterministic under recording" in out
    assert "DIVERGED" not in out

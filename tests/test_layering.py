"""The runtime imports no analysis or export code, and the observers
hang off the engine as plain attributes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analyze.race import RaceDetector
from repro.obs.record import Recorder
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the runtime and the apps import, all at once.
RUNTIME = (
    "repro.sim",
    "repro.core",
    "repro.ga",
    "repro.mpi",
    "repro.baselines",
    "repro.apps.uts",
    "repro.apps.scf",
    "repro.apps.tce",
    "repro.apps.matmul",
)

#: The only upper-layer modules the runtime may load: the obs package
#: root (docstring only), the recording hooks and the metrics they record.
ALLOWED = {
    "repro.obs",
    "repro.obs.record",
    "repro.obs.metrics",
    "repro.obs.tracing",
}

UPPER = ("obs", "analyze", "bench", "check", "fleet", "targets", "cli")


def test_runtime_import_closure_holds_no_analysis_or_export_code():
    code = (
        "import json, sys\n"
        + "".join(f"import {m}\n" for m in RUNTIME)
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out)
    upper = {m for m in loaded if m.split(".")[1] in UPPER}
    assert upper == ALLOWED


def test_observers_are_engine_attributes():
    eng = Engine(2)
    assert (eng.tracer, eng.recorder, eng.detector) == (None, None, None)
    assert not eng.observed
    tracer = Tracer.attach(eng)
    recorder = Recorder.attach(eng)
    detector = RaceDetector.attach(eng)
    assert eng.observed
    assert eng.tracer is tracer
    assert eng.recorder is recorder
    assert eng.detector is detector
    held = {id(v) for v in eng.state.values()}
    assert not held & {id(tracer), id(recorder), id(detector)}

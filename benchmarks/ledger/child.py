"""The measuring process: one workload, kept alive, driven over a pipe.

The parent starts ``python -m benchmarks.ledger --child NAME --seed S``
and times it from start to the ``ready`` line (``setup_s``: imports,
inputs, oracle, one warm-up run).  It then sends one JSON command per
line on stdin and reads one JSON reply per line from stdout:

``sample``  calibration kernel, then one timed, untraced run, checked
``prices``  the unit prices (kept for a later ``trace``)
``trace``   one traced run and the per-layer metrics made from it
``quit``    leave (so does end of input)

BLAS/OpenMP thread pools are pinned to one thread by ``__main__`` before
this module — and with it numpy — is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

import numpy as np

from benchmarks.ledger import prices as unit_prices
from benchmarks.ledger.tracer import SYNC, SYNC_ELIDED, Tracer, wrappers_installed
from benchmarks.ledger.workloads import BUILDERS, Outcome, Workload

#: Untraced samples (beyond the warm-up) a ``trace`` command wants for its
#: ratios; it takes what is missing itself.
UNTRACED_RUNS = 3


def calibrate() -> float:
    """A fixed pure-Python kernel, in ms: how fast the host is right now
    (about ``runner.CALIB_REF_MS`` on the quiet development host)."""
    t0 = perf_counter()
    x = 0
    for i in range(900_000):
        x = (x * 31 + i) & 0xFFFF
    return (perf_counter() - t0) * 1e3


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Worker:
    """Runs samples of one workload and remembers the first outcome, which
    every later sample must reproduce exactly."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.first: Outcome | None = None
        self.walls: list[float] = []  # of every sample so far, warm-up first
        self.extra: dict[str, float] = {}  # of the last sample
        self.calib_ms: list[float] = []
        self.prices: dict[str, float] | None = None

    def _checked(self, raw: Any) -> Outcome:
        out = self.workload.check(raw)
        if self.first is None:
            self.first = out
        elif (out.fingerprint, out.events) != (self.first.fingerprint, self.first.events):
            out.failed = min(out.attempted, out.failed + 1)
            out.failures.append("sample differs from the first one (fingerprint/events)")
        return out

    def timed(self, run=None) -> tuple[float, Any]:
        """One untraced run: ``(seconds, raw result)``."""
        left = wrappers_installed()
        if left:
            raise RuntimeError(f"timed sample with wrappers installed: {left}")
        self.calib_ms.append(calibrate())
        run = run or self.workload.run
        t0 = perf_counter()
        raw = run()
        return perf_counter() - t0, raw

    def sample(self) -> dict[str, Any]:
        wall, raw = self.timed()
        out = self._checked(raw)
        self.walls.append(wall)
        self.extra = out.extra
        return {
            "wall_s": wall,
            "calib_ms": self.calib_ms[-1],
            "events": out.events,
            "sim_elapsed_us": out.sim_elapsed_us,
            "attempted": out.attempted,
            "failed": out.failed,
            "failures": out.failures[:5],
            "fingerprint": out.fingerprint,
            "extra": out.extra,
            "rss_mb": _rss_mb(),
        }

    def trace(self, trace_out: str | None) -> dict[str, Any]:
        """Per-layer metrics from one traced run, held against the untraced
        samples taken so far.  Metrics whose inputs are missing (prices not
        measured) are left out."""
        base_walls = []
        if self.workload.baseline is not None:
            for _ in range(UNTRACED_RUNS):  # interleaved with recorded runs
                base_walls.append(self.timed(self.workload.baseline)[0])
                self.sample()
        while len(self.walls) <= UNTRACED_RUNS:
            self.sample()
        wall, extra = median(self.walls[1:]), self.extra

        tracer = Tracer()
        with tracer.installed():
            self.calib_ms.append(calibrate())
            with tracer.root():
                raw = self.workload.run()
        out = self._checked(raw)
        del raw
        summary = tracer.summary(untraced_s=wall)
        root_s = summary["root_s"]
        sites = summary["sites"]

        metrics: dict[str, float] = {}
        for layer, agg in summary["layers"].items():
            for key in ("calls", "busy_s", "share"):
                metrics[f"{layer}.{key}"] = agg[key]
        syncs = sites[SYNC]["calls"] + sites[SYNC_ELIDED]["calls"]
        hit_ratio = out.steal_hits / out.steal_attempts if out.steal_attempts else 0.0
        body_s = summary["layers"]["apps.body"]["busy_s"]
        metrics.update({
            "sim.events": out.events,
            "sim.engine.elision_ratio": sites[SYNC_ELIDED]["calls"] / syncs if syncs else 0.0,
            "core.queue.steal_hit_ratio": hit_ratio,
            "core.termination.waves": out.waves,
            "obs.record.overhead_x": (
                median(self.walls[-UNTRACED_RUNS:]) / median(base_walls) if base_walls else 0.0
            ),
            "obs.stream.spill_mb": extra.get("spill_mb", 0.0),
            "obs.stream.pack_mb_per_s": (
                extra["packed_mb"] / extra["pack_s"] if "pack_s" in extra else 0.0
            ),
            "runtime_us_per_event": (root_s - body_s) / out.events * 1e6,
            "trace.overhead_x": summary["traced_s"] / wall,
            "trace.coverage": sum(a["busy_s"] for a in summary["layers"].values()) / root_s,
            "host.calib_ms": median(self.calib_ms),
        })
        if self.prices is not None:
            metrics.update(self.prices)
            explained_s = unit_prices.reconstruct(
                self.prices, tracer.outermost_calls, hit_ratio
            )
            metrics["ledger.reconstruct_ratio"] = explained_s / wall
        if trace_out is not None:
            path = Path(trace_out) / f"{self.workload.name}.trace.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as fh:
                fh.write('{"traceEvents":[\n')
                for i, event in enumerate(tracer.chrome_events(1, self.workload.name)):
                    fh.write(("," if i else "") + json.dumps(event) + "\n")
                fh.write("]}\n")
        return {
            "metrics": metrics,
            "sites": sites,
            "traced_s": summary["traced_s"],
            "overhead_scale": summary["overhead_scale"],
            "untraced_s": wall,
            "rows": summary["rows"],
            "attempted": out.attempted,
            "failed": out.failed,
            "failures": out.failures[:5],
        }


def pin_cpu() -> int | None:
    """Keep this process and its threads on one CPU.

    ``uts_locked_mpi`` hands control between compatibility threads ~45k
    times per sample.  Left to the scheduler those wake-ups cross CPUs,
    and on a virtual machine their cost has two modes minutes long (an
    idle vCPU is either polled or halted by the host): the same sample
    took 1.05 s or 2.3 s.  On one CPU a handoff is a plain context switch.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # not Linux, or not permitted here
        return None
    return cpu


def serve(name: str, seed: int, break_oracle: bool, workroot: Path) -> int:
    """Child entry point: set up, announce, then answer commands."""
    cpu = pin_cpu()
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        workload = BUILDERS[name](seed, workdir)
        if break_oracle:
            workload.expected["nodes"] += 1
        worker = Worker(workload)
        warm = worker.sample()

        def reply(obj: dict) -> None:
            sys.stdout.write(json.dumps(obj) + "\n")
            sys.stdout.flush()

        reply({
            "ready": True,
            "warmup": warm,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu": cpu,
        })
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "sample":
                reply(worker.sample())
            elif cmd["cmd"] == "prices":
                worker.prices = cmd.get("prices") or unit_prices.measure()
                reply({"prices": worker.prices})
            elif cmd["cmd"] == "trace":
                reply(worker.trace(cmd.get("trace_out")))
            elif cmd["cmd"] == "quit":
                break
            else:
                raise ValueError(f"unknown command {cmd!r}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


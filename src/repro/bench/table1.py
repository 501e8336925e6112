"""Table 1: microbenchmark timings of core task-collection operations.

Measures, with 1 kB task bodies and chunk size 10 exactly as the paper
specifies: local insert, remote insert, local get, and remote steal, on
both machine models.  Paper values (µs):

====================  ========  =========
operation             cluster   Cray XT4
====================  ========  =========
Local Insert          0.4952    0.9330
Remote Insert         18.0819   27.018
Local Get             0.3613    0.6913
Remote Steal          29.0080   32.384
====================  ========  =========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import SciotoConfig, Task
from repro.core.queue import SplitQueue
from repro.sim.engine import Engine
from repro.sim.machines import MachineSpec, cray_xt4, uniform_cluster
from repro.sim.counters import Counters
from repro.util.records import Series, SweepResult

__all__ = ["run_table1", "PAPER_TABLE1"]

#: Paper-reported values in seconds: op -> (cluster, xt4).
PAPER_TABLE1 = {
    "local_insert": (0.4952e-6, 0.9330e-6),
    "remote_insert": (18.0819e-6, 27.018e-6),
    "local_get": (0.3613e-6, 0.6913e-6),
    "remote_steal": (29.0080e-6, 32.384e-6),
}

_BODY = 1024 - 64  # 1 kB descriptors: header + body
_REPS = 200
_CHUNK = 10


@dataclass
class _Timings:
    local_insert: float
    remote_insert: float
    local_get: float
    remote_steal: float


def _microbench(machine: MachineSpec) -> _Timings:
    """Time the four queue operations on one machine model."""
    cfg = SciotoConfig(chunk_size=_CHUNK)
    out: dict[str, float] = {}

    def main(proc):
        queue = proc.engine.state.setdefault(
            "q",
            SplitQueue(proc.engine, 0, 100_000, _BODY, cfg, Counters()),
        )
        mk = lambda i: Task(callback=0, body=i, body_size=_BODY)
        if proc.rank == 0:
            # --- local insert ---
            t0 = proc.now
            for i in range(_REPS):
                yield from queue.co_push_local(proc, mk(i))
            out["local_insert"] = (proc.now - t0) / _REPS
            # --- local get (drain what we inserted) ---
            t0 = proc.now
            for _ in range(_REPS):
                yield from queue.co_pop_local(proc)
            out["local_get"] = (proc.now - t0) / _REPS
            # leave plenty of stealable work in the shared portion
            for i in range(_REPS * _CHUNK * 2):
                yield from queue.co_push_local(proc, mk(i))
            queue._private, queue._shared = [], queue._private + queue._shared
            yield from proc.co_sleep(1.0 - proc.now)  # park while rank 1 measures
        else:
            yield from proc.co_sleep(0.5)
            # --- remote insert ---
            t0 = proc.now
            for i in range(_REPS):
                yield from queue.co_add_remote(proc, mk(i))
            out["remote_insert"] = (proc.now - t0) / _REPS
            # --- remote steal (chunk of 10 per op) ---
            t0 = proc.now
            for _ in range(_REPS):
                got = yield from queue.co_steal_from(proc, _CHUNK)
                assert len(got) == _CHUNK, "steal microbench ran out of work"
            out["remote_steal"] = (proc.now - t0) / _REPS

    eng = Engine(2, machine=machine, max_events=5_000_000)
    eng.spawn_all(main)
    eng.run()
    return _Timings(**out)


def run_table1(scale: str = "quick") -> SweepResult:
    """Regenerate Table 1; returns one series per machine (µs values)."""
    del scale  # the microbenchmark is cheap at any scale
    result = SweepResult(experiment="table1")
    ops = ["local_insert", "remote_insert", "local_get", "remote_steal"]
    for label, machine, col in (
        ("cluster", uniform_cluster(2), 0),
        ("cray-xt4", cray_xt4(2), 1),
    ):
        timings = _microbench(machine)
        measured = Series(label=f"{label}-measured", unit="us")
        paper = Series(label=f"{label}-paper", unit="us")
        for i, op in enumerate(ops):
            measured.add(i, getattr(timings, op) * 1e6)
            paper.add(i, PAPER_TABLE1[op][col] * 1e6)
        result.series.extend([measured, paper])
    result.notes.append("x axis: 0=local_insert 1=remote_insert 2=local_get 3=remote_steal")
    result.notes.append("task body 1kB, chunk size 10 (paper §6.1)")
    return result

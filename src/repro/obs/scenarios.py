"""Recorded runs for the ``repro.obs`` CLI.

:func:`run_target` runs any target of :mod:`repro.targets` — a
model-checker scenario (small adversarial protocol drivers) or an
application preset (UTS trees, SCF iterations, a TCE contraction) —
under the recorder.  Each run returns an :class:`ObsRun` carrying the
engine, the recorder/tracer, and a determinism *fingerprint*: the
virtual-time results and every ``Counters`` map, per rank and
bit-for-bit, which is what ``python -m repro.obs verify`` compares
between recording-on and recording-off runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.armci.runtime import Armci
from repro.core.collection import TaskCollection
from repro.core.stats import ProcessStats
from repro.obs.record import Recorder
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine
from repro.targets import make_target

__all__ = ["ObsRun", "run_target", "fingerprint"]


@dataclass
class ObsRun:
    """One recorded (or deliberately unrecorded) run of a target."""

    target: str
    engine: Engine
    recorder: Recorder | None
    tracer: Tracer | None
    elapsed: float
    events: int
    process_stats: list[ProcessStats] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def fingerprint(run: ObsRun) -> dict:
    """Everything that must be identical with recording on and off.

    Virtual-time outcome plus every per-rank counter value from both
    the ARMCI layer and every task collection the run created.
    """
    engine = run.engine
    fp: dict[str, Any] = {
        "elapsed": run.elapsed,
        "events": run.events,
        "clocks": [p.now for p in engine.procs],
        "armci": Armci.attach(engine).counters.per_rank_snapshot(),
    }
    registry = engine.state.get(TaskCollection._KEY)
    if registry is not None:
        fp["tc"] = [s.counters.per_rank_snapshot() for s in registry["shared"]]
    return fp


def run_target(
    name: str,
    nprocs: int = 4,
    seed: int = 0,
    record: bool = True,
    events: bool = True,
    stream_dir: Any | None = None,
    shard_size: int | None = None,
    sink: Any | None = None,
    live_path: Any | None = None,
    live_interval: float | None = None,
) -> ObsRun:
    """Run target ``name`` and return its :class:`ObsRun`.

    Check-scenario targets use their scenario's fixed rank count;
    ``nprocs`` applies to the application presets.  With
    ``record=False`` nothing attaches — the run is the pristine
    baseline the determinism check compares against.

    Streaming options: ``stream_dir`` records through a constant-memory
    :class:`~repro.obs.stream.SpillSink` spilling binary shards there
    (sealed with a footer index when the run finishes), and
    ``live_path`` publishes interval telemetry frames there as an
    append-only ``repro-obs-live/1`` feed (every ``live_interval``
    virtual seconds, default 100 µs).

    Raises:
        ValueError: For an unknown target, or a ``shard_size`` or
            ``live_interval`` the sink or bus refuses.
    """
    target = make_target(name, nprocs)
    if stream_dir is not None:
        if sink is not None:
            raise ValueError("pass either stream_dir or sink, not both")
        from repro.obs.stream import DEFAULT_SHARD_SIZE, SpillSink

        sink = SpillSink(
            stream_dir, shard_size=DEFAULT_SHARD_SIZE if shard_size is None else shard_size
        )
    live = None
    if live_path is not None:
        from repro.obs.live import DEFAULT_INTERVAL, TelemetryBus

        live = TelemetryBus(
            live_path,
            interval=DEFAULT_INTERVAL if live_interval is None else live_interval,
            label=name,
        )
    engine = target.make_engine(seed)
    rec = trc = None
    if record:
        rec = Recorder.attach(engine, sink=sink, live=live)
        if events:
            trc = Tracer.attach(engine)
    target.build(engine)
    sim = engine.run()
    elapsed, extra, process_stats = target.summarize(engine, sim)
    if rec is not None:
        rec.finish()
    return ObsRun(
        target=name,
        engine=engine,
        recorder=rec,
        tracer=trc,
        elapsed=elapsed,
        events=sim.events,
        process_stats=process_stats,
        extra=extra,
    )

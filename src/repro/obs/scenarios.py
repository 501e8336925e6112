"""Recordable targets for the ``repro.obs`` CLI.

A target is anything we can run under the recorder: any model-checker
scenario from :mod:`repro.check.scenarios` (small adversarial protocol
drivers) or an application preset — UTS trees, an SCF iteration, a TCE
contraction.  Each run returns an :class:`ObsRun` carrying the engine,
the recorder/tracer, and a determinism *fingerprint*: the virtual-time
results and every ``Counters`` map, per rank and bit-for-bit, which is
what ``python -m repro.obs verify`` compares between recording-on and
recording-off runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.scf.parallel import run_scf_scioto
from repro.apps.scf.problem import SCFProblem
from repro.apps.tce.parallel import run_tce_scioto
from repro.apps.tce.problem import TCEProblem
from repro.apps.uts.presets import PRESETS, preset
from repro.apps.uts.scioto_uts import run_uts_scioto
from repro.armci.runtime import Armci
from repro.check.scenarios import SCENARIOS as CHECK_SCENARIOS
from repro.check.scenarios import make_scenario
from repro.core.collection import TaskCollection
from repro.core.stats import ProcessStats
from repro.obs.record import Recorder
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine

__all__ = ["ObsRun", "TARGETS", "run_target", "fingerprint"]


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


def _attach(
    engine: Engine,
    record: bool,
    events: bool,
    edges: bool = True,
    sink: Any | None = None,
    flight: Any | None = None,
    live: Any | None = None,
) -> tuple[Recorder | None, Tracer | None]:
    rec = (
        Recorder.attach(engine, edges=edges, sink=sink, flight=flight, live=live)
        if record
        else None
    )
    trc = Tracer.attach(engine) if record and events else None
    return rec, trc


def _run_check(
    name: str, seed: int, record: bool, events: bool, edges: bool = True, **obs: Any
) -> ObsRun:
    scenario = make_scenario(name)
    engine = Engine(scenario.nprocs, seed=seed, max_events=scenario.max_events)
    rec, trc = _attach(engine, record, events, edges, **obs)
    scenario.build(engine)
    result = engine.run()
    return ObsRun(
        target=name,
        engine=engine,
        recorder=rec,
        tracer=trc,
        elapsed=result.elapsed,
        events=result.events,
    )


def _run_uts(
    preset_name: str, nprocs: int, seed: int, record: bool, events: bool,
    edges: bool = True, **obs: Any,
) -> ObsRun:
    captured: list[Engine] = []

    def hook(engine: Engine) -> None:
        captured.append(engine)
        _attach(engine, record, events, edges, **obs)

    r = run_uts_scioto(nprocs, preset(preset_name), seed=seed, engine_hook=hook)
    engine = captured[0]
    return ObsRun(
        target=f"uts-{preset_name}",
        engine=engine,
        recorder=Recorder.of(engine),
        tracer=Tracer.of(engine),
        elapsed=r.elapsed,
        events=r.sim.events,
        process_stats=r.per_rank,
        extra={"nodes": r.stats.nodes, "throughput": r.throughput},
    )


def _run_scf(
    nprocs: int, seed: int, record: bool, events: bool, edges: bool = True,
    **obs: Any,
) -> ObsRun:
    captured: list[Engine] = []

    def hook(engine: Engine) -> None:
        captured.append(engine)
        _attach(engine, record, events, edges, **obs)

    problem = SCFProblem(nblocks=8, blocksize=4, decay=0.9)
    r = run_scf_scioto(nprocs, problem, iterations=2, seed=seed, engine_hook=hook)
    engine = captured[0]
    return ObsRun(
        target="scf",
        engine=engine,
        recorder=Recorder.of(engine),
        tracer=Tracer.of(engine),
        elapsed=r.elapsed,
        events=r.sim.events,
        extra={"energy": r.energies[-1], "iterations": r.iterations},
    )


def _run_tce(
    nprocs: int, seed: int, record: bool, events: bool, edges: bool = True,
    **obs: Any,
) -> ObsRun:
    captured: list[Engine] = []

    def hook(engine: Engine) -> None:
        captured.append(engine)
        _attach(engine, record, events, edges, **obs)

    problem = TCEProblem(nblocks=6, blocksize=8, density=0.4, seed=3)
    r = run_tce_scioto(nprocs, problem, seed=seed, engine_hook=hook)
    engine = captured[0]
    return ObsRun(
        target="tce",
        engine=engine,
        recorder=Recorder.of(engine),
        tracer=Tracer.of(engine),
        elapsed=r.elapsed,
        events=r.sim.events,
        extra={"tasks_real": r.tasks_real},
    )


def _target_table() -> dict[str, Callable[..., ObsRun]]:
    table: dict[str, Callable[..., ObsRun]] = {}
    for name in CHECK_SCENARIOS:
        table[name] = (
            lambda nprocs, seed, record, events, edges=True, _n=name, **obs: (
                _run_check(_n, seed, record, events, edges, **obs)
            )
        )
    for p in PRESETS:
        table[f"uts-{p}"] = (
            lambda nprocs, seed, record, events, edges=True, _p=p, **obs: (
                _run_uts(_p, nprocs, seed, record, events, edges, **obs)
            )
        )
    table["scf"] = _run_scf
    table["tce"] = _run_tce
    return table


#: Target name -> runner(nprocs, seed, record, events, edges=True).
TARGETS: dict[str, Callable[..., ObsRun]] = _target_table()


def run_target(
    name: str,
    nprocs: int = 4,
    seed: int = 0,
    record: bool = True,
    events: bool = True,
    edges: bool = True,
    stream_dir: Any | None = None,
    shard_size: int | None = None,
    flight: Any | None = None,
    sink: Any | None = None,
    live_path: Any | None = None,
    live_interval: float | None = None,
) -> ObsRun:
    """Run target ``name`` and return its :class:`ObsRun`.

    Check-scenario targets use their scenario's fixed rank count;
    ``nprocs`` applies to the application presets.  With
    ``record=False`` nothing attaches — the run is the pristine
    baseline the determinism check compares against.  ``edges=False``
    records spans but not causal edges (the other half of the
    determinism check: edges must be metadata-only).

    Streaming options: ``stream_dir`` records through a constant-memory
    :class:`~repro.obs.stream.SpillSink` spilling sharded JSONL there
    (sealed with a footer index when the run finishes); ``flight``
    installs a :class:`~repro.obs.flight.FlightRecorder`; and
    ``live_path`` publishes interval telemetry frames there as an
    append-only ``repro-obs-live/1`` feed (every ``live_interval``
    virtual seconds, default 100 µs).
    """
    try:
        runner = TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown obs target {name!r}; choose from {sorted(TARGETS)}"
        ) from None
    if stream_dir is not None:
        if sink is not None:
            raise ValueError("pass either stream_dir or sink, not both")
        from repro.obs.stream import DEFAULT_SHARD_SIZE, SpillSink

        sink = SpillSink(stream_dir, shard_size=shard_size or DEFAULT_SHARD_SIZE)
    live = None
    if live_path is not None:
        from repro.obs.live import DEFAULT_INTERVAL, TelemetryBus

        live = TelemetryBus(
            live_path, interval=live_interval or DEFAULT_INTERVAL, label=name
        )
    run = runner(
        nprocs, seed, record, events, edges, sink=sink, flight=flight, live=live
    )
    if run.recorder is not None:
        run.recorder.finish()
    return run

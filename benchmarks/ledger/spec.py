"""Names of the ledger: workloads, metrics, layers and their span sites.

Everything a later issue cites lives here, and ``BENCHMARK.json`` is
generated from it (:func:`definition`), so the committed file and the
code cannot drift.  This module imports nothing from ``repro`` or numpy:
the parent process, which only spawns children, stays light.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Measuring time of one driver run.  4 + 22 x 5 runs, each with three
#: set-ups (~7 s) on top of this, must end within 3420 s.
RUN_SECONDS = 14

WORKLOADS: dict[str, str] = {
    "uts_split": (
        "Fig. 7 Split-Queues headline path: UTS medium (122,415 nodes) at P=16; "
        "core.queue/task/collection and sim.engine do most of the work"
    ),
    "uts_locked_mpi": (
        "The other two Fig. 7 lines at P=8: No-Split takes the sim.resources mutex on "
        "every queue op, MPI-WS runs two-sided mpi.p2p under blocking mains"
    ),
    "ga_apps": (
        "Fig. 5/6 apps (SCF + TCE): numpy task bodies and bulk ga.array/armci traffic; "
        "the bypass workload on which a core or sim.engine optimisation predicts no change"
    ),
    "uts_recorded": (
        "The observed path: uts-small at P=4 recorded with tracer, spilled to disk and "
        "packed; obs.record/tracing/stream do a large share of the work"
    ),
    "explore_campaign": (
        "What check-explore users wait for: 6 scenarios x 60 random schedules, 360 "
        "engines built and torn down, elision off, invariants checked on every run"
    ),
}

#: name -> (unit, better, bound).  Bounds come from the run-to-run spread
#: measured on the 2-core development host (README, "Steadiness").
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "events_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "sim_elapsed_us": ("us", "lower", 0.15),
}

#: layer -> span sites, ``module:Class.method``, ``module:function`` or
#: ``module:*.method`` (every class of the module that defines it).
LAYERS: dict[str, list[str]] = {
    "sim.dispatch": [
        "repro.sim.engine:Engine.__init__",
        "repro.sim.engine:Engine.run",
    ],
    "sim.engine": [
        "repro.sim.engine:Proc.co_sync",
        "repro.sim.engine:Proc.co_park",
        "repro.sim.engine:Proc.co_park_until",
        "repro.sim.engine:Engine.wake",
    ],
    "sim.resources": [
        "repro.sim.resources:SimMutex.co_acquire",
        "repro.sim.resources:SimMutex.co_release",
        "repro.sim.resources:SimBarrier.co_wait",
    ],
    "sim.machines": [
        "repro.sim.machines:MachineSpec.put_time",
        "repro.sim.machines:MachineSpec.get_time",
        "repro.sim.machines:MachineSpec.rmw_time",
        "repro.sim.machines:MachineSpec.lock_time",
        "repro.sim.machines:MachineSpec.unlock_time",
        "repro.sim.machines:MachineSpec.local_copy_time",
        "repro.sim.machines:MachineSpec.work_time",
    ],
    "core.task": ["repro.core.task:Task.clone"],
    "core.queue": [
        "repro.core.queue:SplitQueue.co_push_local",
        "repro.core.queue:SplitQueue.co_pop_local",
        "repro.core.queue:SplitQueue.co_steal_from",
        "repro.core.queue:SplitQueue.co_absorb_stolen",
        "repro.core.queue:SplitQueue.co_add_remote",
    ],
    "core.collection": [
        "repro.core.collection:TaskCollection.co_add",
        "repro.core.collection:TaskCollection.co_process",
        "repro.core.collection:TaskCollection.co_create",
    ],
    "core.scheduler": ["repro.core.scheduler:co_run_process"],
    "core.stealing": [
        "repro.core.stealing:*.next_victim",
        "repro.core.stealing:*.report",
    ],
    "core.termination": [
        "repro.core.termination:TerminationDetector.co_progress",
        "repro.core.termination:TerminationDetector.progress_busy",
        "repro.core.termination:TerminationDetector.steal_mark",
        "repro.core.termination:TerminationDetector.note_steal",
    ],
    "armci.runtime": [
        "repro.armci.runtime:Armci.co_put",
        "repro.armci.runtime:Armci.co_get",
        "repro.armci.runtime:Armci.co_acc",
        "repro.armci.runtime:Armci.co_nbput",
        "repro.armci.runtime:Armci.co_nbget",
        "repro.armci.runtime:Armci.wait",
        "repro.armci.runtime:Armci.co_rmw",
        "repro.armci.runtime:Armci.co_post",
        "repro.armci.runtime:Armci.co_poll_mailbox",
        "repro.armci.runtime:Armci.co_wait_mailbox",
        "repro.armci.runtime:Armci.co_barrier",
        "repro.armci.runtime:Armci.co_fence",
        "repro.armci.runtime:Armci.co_allreduce",
    ],
    "ga.array": [
        "repro.ga.array:GlobalArray.co_get",
        "repro.ga.array:GlobalArray.co_put",
        "repro.ga.array:GlobalArray.co_acc",
        "repro.ga.array:GlobalArray.co_read_full",
        "repro.ga.array:GlobalArray.co_sync",
        "repro.ga.counter:GlobalCounter.co_read_inc",
    ],
    "mpi.p2p": [
        "repro.mpi.p2p:Mpi.send",
        "repro.mpi.p2p:Mpi.recv",
        "repro.mpi.p2p:Mpi.iprobe",
        "repro.mpi.p2p:Mpi.barrier",
    ],
    "baselines.mpi_ws": ["repro.baselines.mpi_ws:MpiWorkStealing.run"],
    # Rank mains and registered task callbacks are wrapped where they are
    # handed over (Engine.spawn, TaskCollection.register); see tracer.py.
    "apps.body": [
        "repro.apps.uts.tree:children_of",
        "repro.apps.scf.problem:SCFProblem.fock_block",
        "repro.apps.scf.problem:SCFProblem.energy",
        "repro.apps.scf.problem:SCFProblem.next_density",
        "repro.apps.scf.problem:SCFProblem.core_hamiltonian",
        "repro.apps.scf.problem:SCFProblem.initial_density",
        "repro.apps.tce.problem:TCEProblem.dense_a",
        "repro.apps.tce.problem:TCEProblem.dense_b",
        "repro.apps.tce.problem:TCEProblem.nonzero_triples",
    ],
    # The free hooks are the call sites that are no-ops while nothing is
    # attached; ``trace`` is one of them, which keeps obs.tracing.calls at
    # 0 on unobserved workloads.
    "obs.record": [
        "repro.obs.record:Recorder.span",
        "repro.obs.record:Recorder.complete_span",
        "repro.obs.record:Recorder.instant_event",
        "repro.obs.record:Recorder.add_edge",
        "repro.obs.record:Recorder.finish",
        "repro.obs.record:span",
        "repro.obs.record:observe",
        "repro.obs.record:count",
        "repro.obs.record:sample",
        "repro.obs.record:instant",
        "repro.obs.record:causal_edge",
        "repro.obs.record:edge_mark",
        "repro.obs.record:edge_here",
        "repro.obs.record:edge_send",
        "repro.obs.record:edge_recv",
        "repro.obs.tracing:trace",
    ],
    "obs.tracing": ["repro.obs.tracing:Tracer.record"],
    "obs.stream": [
        "repro.obs.stream:SpillSink.on_close",
        "repro.obs.stream:SpillSink.on_complete",
        "repro.obs.stream:SpillSink.on_instant",
        "repro.obs.stream:SpillSink.on_edge",
        "repro.obs.stream:SpillSink.seal",
        "repro.obs.stream:pack",
    ],
    "check.strategies": [
        "repro.check.strategies:*.choose",
        "repro.check.strategies:*.delay",
        "repro.check.strategies:*.begin",
    ],
    "check.invariants": ["repro.check.invariants:*.check"],
}

#: Unit prices (ns per operation), measured by tight untraced loops.
PRICES: list[str] = [
    "price.sim.engine.sync_elided_ns",
    "price.sim.engine.handoff_ns",
    "price.sim.machines.lookup_ns",
    "price.core.task.clone_ns",
    "price.core.queue.push_pop_ns",
    "price.core.queue.steal_ns",
    "price.core.collection.add_ns",
    "price.core.termination.wave_ns",
    "price.armci.get_ns",
    "price.armci.put_ns",
    "price.armci.rmw_ns",
    "price.ga.get_acc_ns",
    "price.apps.uts.children_ns",
    "price.obs.hook_off_ns",
    "price.obs.span_ns",
    "price.check.choose_ns",
]

#: Ratios and derived numbers: name -> (unit, better).  A value that does
#: not apply to a workload (pack speed without a pack) is reported as 0.
DERIVED: dict[str, tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.engine.elision_ratio": ("ratio", "higher"),
    "core.queue.steal_hit_ratio": ("ratio", "higher"),
    "core.termination.waves": ("count", "lower"),
    "obs.record.overhead_x": ("x", "lower"),
    "obs.stream.spill_mb": ("MB", "lower"),
    "obs.stream.pack_mb_per_s": ("MB/s", "higher"),
    "runtime_us_per_event": ("us", "lower"),
    "trace.overhead_x": ("x", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "ledger.reconstruct_ratio": ("ratio", "higher"),
    "host.calib_ms": ("ms", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.busy_s"] = ("s", "lower")
        out[f"{layer}.share"] = ("ratio", "lower")
    out.update(DERIVED)
    out.update({p: ("ns", "lower") for p in PRICES})
    return out


def definition() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in per_layer().items()
        ],
    }


def validate_definition(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` meets the driver's contract."""
    want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    if sorted(doc) != sorted(want):
        raise ValueError(f"keys {sorted(doc)} != {sorted(want)}")
    if not 1 <= doc["run_seconds"] <= 60 or not isinstance(doc["run_seconds"], int):
        raise ValueError("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(doc["workloads"]) <= 8:
        raise ValueError("2 to 8 workloads")
    if not 1 <= len(doc["end_to_end"]) <= 16 or not 1 <= len(doc["per_layer"]) <= 128:
        raise ValueError("1 to 16 end-to-end and 1 to 128 per-layer metrics")
    names: list[str] = []
    for w in doc["workloads"]:
        if sorted(w) != ["name", "why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            raise ValueError(f"bad workload entry {w}")
        names.append(w["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        keys = ["better", "name", "unit"] + (["bound"] if "bound" in m else [])
        if sorted(m) != sorted(keys) or m["better"] not in ("lower", "higher"):
            raise ValueError(f"bad metric entry {m}")
        if not UNIT_RE.fullmatch(m["unit"]):
            raise ValueError(f"bad unit {m['unit']!r}")
        names.append(m["name"])
    for m in doc["end_to_end"]:
        if not 0 <= m.get("bound", -1) <= 0.25:
            raise ValueError(f"bound of {m['name']} must be in [0, 0.25]")
    if any("bound" in m for m in doc["per_layer"]):
        raise ValueError("per-layer metrics have no bound")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ValueError("end_to_end must hold setup_s in s, lower is better")
    for n in names:
        if not NAME_RE.fullmatch(n):
            raise ValueError(f"bad name {n!r}")
    if len(set(names)) != len(names):
        raise ValueError("a name is used twice")

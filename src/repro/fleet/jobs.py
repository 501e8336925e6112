"""Fleet jobs: the unit of work the meta-scheduler farms out.

A :class:`Job` is a small, picklable description of one batch of
simulation work; :func:`execute_job` runs it *inside a worker process*
and returns a picklable :class:`JobResult`.  The job kinds cover the
embarrassingly parallel surfaces of the toolchain:

``explore``
    One shard of a :func:`repro.check.runner.explore` campaign: a
    scenario, a strategy, and a list of schedule indices, run by
    :func:`repro.check.runner.run_schedules` (schedule ``i`` under
    strategy seed ``seed + i``).  Failures come back as
    :class:`~repro.check.runner.FailureReport` objects carrying their
    full outcomes, so the parent can persist, replay and minimize them.

``bench``
    One experiment of the paper-figure suite (``repro.bench``), run at
    a given scale.  Virtual-time results are deterministic, so a
    sharded suite reproduces the serial record exactly.

``predict``
    One scenario of a predictive-analysis campaign
    (:mod:`repro.analyze.predict`): capture a default-schedule trace,
    run the lockset / weakened-HB / obligation / lock-graph passes, and
    confirm predictions with witness replays — all worker-side; the
    parent gets a serialized report plus its rendered text.

``probe``
    Fleet self-test jobs (sleep / crash / raise) used by the failure-
    path tests and ``python -m repro.fleet probe``; a ``crash`` probe
    SIGKILLs its own worker mid-job to exercise requeue handling.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Job",
    "JobResult",
    "execute_job",
    "explore_jobs",
    "bench_jobs",
    "predict_jobs",
    "JOB_KINDS",
]

JOB_KINDS = ("explore", "bench", "predict", "probe")


@dataclass
class Job:
    """One schedulable unit of fleet work.

    Attributes:
        kind: One of :data:`JOB_KINDS`.
        key: Stable identifier, unique within a campaign; used for
            reporting and requeue accounting.
        params: Kind-specific payload (picklable primitives only).
        attempts: Dispatch count so far; maintained by the scheduler.
            A job whose worker dies is requeued exactly once
            (``attempts`` reaches 2) before being reported as crashed.
    """

    kind: str
    key: str
    params: dict[str, Any] = field(default_factory=dict)
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; use one of {JOB_KINDS}")


@dataclass
class JobResult:
    """What a worker sends back for one completed job."""

    key: str
    kind: str
    worker: int = -1
    wall_s: float = 0.0
    error: str | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------- #
# Job builders (parent side)
# ---------------------------------------------------------------------- #
def explore_jobs(
    targets: list[str],
    schedules: int,
    strategy: str = "random",
    seed: int = 0,
    engine_seed: int = 0,
    mutation: str | None = None,
    batch: int | None = None,
    nworkers: int = 1,
) -> list[Job]:
    """Shard ``schedules`` interleavings of each target into fleet jobs.

    The default batch size aims for ~4 jobs per worker per target, so
    the scheduler can balance across idle workers; explicit ``batch``
    overrides.  Index ranges are contiguous per job; a schedule's seed
    depends only on its index, so the explored set does not depend on
    how indices were sharded.
    """
    if schedules < 0:
        raise ValueError("schedules must be >= 0")
    if batch is None:
        batch = max(1, schedules // max(1, nworkers * 4))
    elif batch < 1:
        raise ValueError("batch must be >= 1")
    jobs = []
    for target in targets:
        for lo in range(0, schedules, batch):
            indices = list(range(lo, min(lo + batch, schedules)))
            jobs.append(
                Job(
                    kind="explore",
                    key=f"explore/{target}/{strategy}/{indices[0]}-{indices[-1]}",
                    params={
                        "target": target,
                        "strategy": strategy,
                        "indices": indices,
                        "seed": seed,
                        "engine_seed": engine_seed,
                        "mutation": mutation,
                    },
                )
            )
    return jobs


def bench_jobs(experiments: list[str], scale: str) -> list[Job]:
    """One job per paper-figure experiment."""
    return [
        Job(kind="bench", key=f"bench/{name}", params={"experiment": name, "scale": scale})
        for name in experiments
    ]


def predict_jobs(
    targets: list[str],
    mutation: str | None = None,
    engine_seed: int = 0,
    confirm: bool = True,
    out_dir: str | None = None,
) -> list[Job]:
    """One job per target of a predictive-analysis campaign."""
    return [
        Job(
            kind="predict",
            key=f"predict/{target}/{mutation or 'none'}",
            params={
                "target": target,
                "mutation": mutation,
                "engine_seed": engine_seed,
                "confirm": confirm,
                "out_dir": out_dir,
            },
        )
        for target in targets
    ]


# ---------------------------------------------------------------------- #
# Execution (worker side)
# ---------------------------------------------------------------------- #
def _execute_explore(params: dict[str, Any]) -> dict[str, Any]:
    # Imports live here so the scheduler parent can be imported without
    # pulling the whole runtime, and so forkserver preload stays light.
    from repro.check.runner import run_schedules

    return run_schedules(**params)


def _execute_bench(params: dict[str, Any]) -> dict[str, Any]:
    from repro.bench.__main__ import EXPERIMENTS

    name = params["experiment"]
    fn, _render = EXPERIMENTS[name]
    result = fn(params["scale"])
    return {"experiment": name, "result": result.to_dict()}


def _execute_predict(params: dict[str, Any]) -> dict[str, Any]:
    from repro.analyze.predict import predict

    report = predict(
        params["target"],
        mutation=params["mutation"],
        engine_seed=params["engine_seed"],
        confirm=params["confirm"],
        out_dir=params["out_dir"],
    )
    return {
        "target": report.target,
        "mutation": report.mutation,
        "events_captured": report.events_captured,
        "base_error": report.base_error,
        "predictions": len(report.predictions),
        "confirmed": report.confirmed,
        "kinds": sorted({p.kind for p in report.predictions}),
        "text": report.describe(),
    }


def _execute_probe(params: dict[str, Any]) -> dict[str, Any]:
    action = params.get("action", "ok")
    if action == "sleep":
        time.sleep(params.get("seconds", 0.05))
    elif action == "crash":
        # Self-test of the fleet's crash handling: die mid-job the way
        # an OOM-killed or segfaulted worker would — no reply, no exit
        # handler, just a vanished process.
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "exit":
        os._exit(params.get("code", 17))
    elif action == "raise":
        raise RuntimeError(params.get("message", "probe raised"))
    elif action != "ok":
        raise ValueError(f"unknown probe action {action!r}")
    return {"echo": params.get("payload"), "pid": os.getpid()}


_EXECUTORS = {
    "explore": _execute_explore,
    "bench": _execute_bench,
    "predict": _execute_predict,
    "probe": _execute_probe,
}


def execute_job(job: Job, worker: int = -1) -> JobResult:
    """Run ``job`` to completion; exceptions become ``result.error``."""
    t0 = time.perf_counter()  # host-side timing # repro: lint-disable=RPR002
    result = JobResult(key=job.key, kind=job.kind, worker=worker)
    try:
        result.payload = _EXECUTORS[job.kind](job.params)
    except Exception as exc:  # noqa: BLE001 - worker must never die on a job error
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - t0  # repro: lint-disable=RPR002
    return result

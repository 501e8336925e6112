"""Fleet jobs: the unit of work the meta-scheduler farms out.

A :class:`Job` is a key, a module-level function and its keyword
arguments — the paper's task shape (a registered callback plus a body of
portable arguments), with ``pickle``'s by-reference function handle as
the registry.  :func:`execute_job` calls ``fn(**kwargs)``, in a worker
process or inline, and returns the value whole in a picklable
:class:`JobResult`.  Because the kwargs are literals,
:meth:`Job.replay_command` renders any job as one shell command that
reruns it alone.  The callers build their own jobs:

* ``repro.check`` — :func:`explore_jobs`, shards of
  :func:`repro.check.runner.run_schedules`;
* ``repro.bench`` — one paper-figure experiment per job;
* ``repro.analyze predict`` — one :func:`repro.analyze.predict.predict`
  per target;
* ``repro.fleet probe`` and the failure tests — :func:`probe`, whose
  ``crash`` action SIGKILLs its own worker mid-job to exercise requeue
  handling.
"""

from __future__ import annotations

import ast
import os
import pickle
import shlex
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.errors import check_count

__all__ = ["Job", "JobResult", "execute_job", "explore_jobs", "probe"]


@dataclass
class Job:
    """One schedulable unit of fleet work.

    Attributes:
        key: Stable identifier, unique within a campaign; used for
            reporting and requeue accounting.
        fn: A module-level function, so it crosses to a worker process
            by reference; anything else is refused at construction.
        kwargs: ``fn``'s keyword arguments: Python literals, so that
            :meth:`replay_command` can spell them out.
        attempts: Dispatch count so far; maintained by the scheduler.
            A job whose worker dies is requeued exactly once
            (``attempts`` reaches 2) before being reported as crashed.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    attempts: int = 0

    def __post_init__(self) -> None:
        # Checked at any --jobs: a lambda would otherwise run inline and
        # fail only once sent to a worker process.
        try:
            pickle.dumps(self.fn)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            name = getattr(self.fn, "__qualname__", repr(self.fn))
            raise ValueError(
                f"job {self.key!r}: function {name!r} cannot be pickled by "
                "reference; use a module-level function"
            ) from exc
        for name, value in self.kwargs.items():
            try:
                same = ast.literal_eval(repr(value)) == value
            except (ValueError, SyntaxError):
                same = False
            if not same:
                raise ValueError(
                    f"job {self.key!r}: argument {name!r} is not a Python literal"
                )

    def replay_command(self) -> str:
        """A shell command that reruns this job alone, outside the fleet."""
        code = (
            f"from {self.fn.__module__} import {self.fn.__qualname__} as f; "
            f"f(**{self.kwargs!r})"
        )
        return f"python -c {shlex.quote(code)}"


@dataclass
class JobResult:
    """What a worker sends back for one completed job."""

    key: str
    worker: int = -1
    wall_s: float = 0.0
    error: str | None = None
    value: Any = None

    @property
    def ok(self) -> bool:
        return self.error is None


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
    # Imported here so the scheduler parent can be imported without
    # pulling the whole runtime.
    from repro.check.runner import run_schedules

    check_count("schedules", schedules)
    if batch is None:
        batch = max(1, schedules // max(1, nworkers * 4))
    check_count("batch", batch)
    jobs = []
    for target in targets:
        for lo in range(0, schedules, batch):
            indices = list(range(lo, min(lo + batch, schedules)))
            jobs.append(
                Job(
                    f"explore/{target}/{strategy}/{indices[0]}-{indices[-1]}",
                    run_schedules,
                    {
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


def probe(
    action: str = "ok",
    seconds: float = 0.05,
    code: int = 17,
    message: str = "probe raised",
) -> int:
    """Fleet self-test job: ``ok``, ``sleep``, ``raise``, ``exit`` or
    ``crash``; returns the pid that ran it."""
    if action == "sleep":
        time.sleep(seconds)
    elif action == "crash":
        # Self-test of the fleet's crash handling: die mid-job the way
        # an OOM-killed or segfaulted worker would — no reply, no exit
        # handler, just a vanished process.
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "exit":
        os._exit(code)
    elif action == "raise":
        raise RuntimeError(message)
    elif action != "ok":
        raise ValueError(f"unknown probe action {action!r}")
    return os.getpid()


def execute_job(job: Job, worker: int = -1) -> JobResult:
    """Run ``job`` to completion; exceptions become ``result.error``."""
    t0 = time.perf_counter()  # host-side timing # repro: lint-disable=RPR002
    result = JobResult(key=job.key, worker=worker)
    try:
        result.value = job.fn(**job.kwargs)
    except Exception as exc:  # noqa: BLE001 - worker must never die on a job error
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - t0  # repro: lint-disable=RPR002
    return result

"""Fleet worker process: the loop that runs on the far side of the pipe.

Workers are deliberately dumb: they hold no queue and make no
scheduling decisions.  The parent owns the one queue of pending jobs
and sends exactly one job at a time; the worker executes it and sends
back one :class:`~repro.fleet.jobs.JobResult`.  The process boundary
carries only (job, result) pairs.

When the pool was built with a ``flight_dir``, each worker arms the
crash flight recorder before serving jobs: it exports
``REPRO_FLIGHT_DIR`` so every engine run inside a job attaches a
periodically flushed :class:`~repro.obs.flight.FlightRecorder`, and it
drops a *breadcrumb* file (``worker-<id>-current.json``) before and
after each job.  A SIGKILL'd worker gets no chance to report back, so
the breadcrumb — last rewritten with ``status: "running"`` — plus the
flight recorder's periodic dump are the only forensics; the scheduler
parent folds both into its crash report (:mod:`repro.fleet.scheduler`).

``worker_main`` must stay a module-level function: forkserver/spawn
children locate it by qualified name.  The parent signals shutdown by
sending ``None``; a vanished parent (``EOFError``) also terminates the
loop, so orphaned workers exit instead of idling forever.
"""

from __future__ import annotations

import json
import os
import time
from multiprocessing.connection import Connection
from pathlib import Path

from repro.fleet.jobs import Job, execute_job

__all__ = ["worker_main", "breadcrumb_path"]

#: Periodic-flush cadence for worker-side flight recorders: rewrite the
#: dump every this-many recorded spans/instants, so even a SIGKILL'd
#: worker leaves a recent ring snapshot on disk.
_FLIGHT_FLUSH_EVERY = 512


def breadcrumb_path(flight_dir: str | Path, worker_id: int) -> Path:
    """Where worker ``worker_id`` keeps its current-job breadcrumb."""
    return Path(flight_dir) / f"worker-{worker_id}-current.json"


def _drop_breadcrumb(
    path: Path, worker_id: int, job: Job, status: str, error: str | None = None
) -> None:
    # Lazy import: the breadcrumb writer must not drag the obs stack
    # into the forkserver preload path.
    from repro.util.io import atomic_write_text

    doc = {
        "worker": worker_id,
        "pid": os.getpid(),
        "job_key": job.key,
        "attempt": job.attempts,
        "status": status,  # "running" | "done" | "failed"
        "error": error,
        "wall_clock": time.time(),  # repro: lint-disable=RPR002
    }
    try:
        atomic_write_text(path, json.dumps(doc, indent=2))
    except OSError:  # pragma: no cover - breadcrumbs are best-effort
        pass


def worker_main(
    conn: Connection, worker_id: int, flight_dir: str | None = None
) -> None:
    """Serve (job -> result) requests over ``conn`` until shutdown."""
    crumb: Path | None = None
    if flight_dir is not None:
        # Arm the flight recorder for every engine run this worker
        # executes (repro.obs.flight.maybe_attach_flight reads this),
        # with periodic flushing so SIGKILL leaves evidence behind.
        os.environ["REPRO_FLIGHT_DIR"] = str(flight_dir)
        os.environ.setdefault(
            "REPRO_FLIGHT_FLUSH_EVERY", str(_FLIGHT_FLUSH_EVERY)
        )
        Path(flight_dir).mkdir(parents=True, exist_ok=True)
        crumb = breadcrumb_path(flight_dir, worker_id)
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            assert isinstance(msg, Job), f"worker got non-job message {msg!r}"
            if crumb is not None:
                _drop_breadcrumb(crumb, worker_id, msg, "running")
            result = execute_job(msg, worker=worker_id)
            if crumb is not None:
                _drop_breadcrumb(
                    crumb,
                    worker_id,
                    msg,
                    "done" if result.ok else "failed",
                    error=result.error,
                )
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()

"""Fleet worker process: the loop that runs on the far side of the pipe.

Workers are deliberately dumb: they hold no queue and make no
scheduling decisions.  The parent owns the one queue of pending jobs
and sends exactly one job at a time; the worker executes it and sends
back one :class:`~repro.fleet.jobs.JobResult`.  The process boundary
carries only (job, result) pairs.

``worker_main`` must stay a module-level function: forkserver/spawn
children locate it by qualified name.  The parent signals shutdown by
sending ``None``; a vanished parent (``EOFError``) also terminates the
loop, so orphaned workers exit instead of idling forever.
"""

from __future__ import annotations

from multiprocessing.connection import Connection

from repro.fleet.jobs import Job, execute_job

__all__ = ["worker_main"]


def worker_main(conn: Connection, worker_id: int) -> None:
    """Serve (job -> result) requests over ``conn`` until shutdown."""
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            assert isinstance(msg, Job), f"worker got non-job message {msg!r}"
            result = execute_job(msg, worker=worker_id)
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()

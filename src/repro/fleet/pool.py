"""Worker pools: the process boundary under the fleet scheduler.

:class:`ProcessPool` runs workers as ``multiprocessing`` children
(forkserver by default — children fork from a warm server that has
already imported the runtime, so per-worker startup is cheap and no
state of the parent's engines crosses the fork).  :class:`InlinePool`
implements the same interface but executes jobs synchronously in the
parent: every campaign at ``--jobs 1`` runs on it, and the scheduler's
dispatch tests use it to pin the FIFO order deterministically without
process machinery.

The pool surface is three calls — ``send``, ``poll``, ``respawn`` —
plus ``close``.  ``poll`` multiplexes over every live worker's result
pipe *and* process sentinel, so a worker that dies without replying
(SIGKILL, OOM, segfault) surfaces as a ``crash`` event instead of a
hang: crash detection is the pool's one non-trivial job.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait

from repro.fleet.jobs import Job, JobResult, execute_job, probe
from repro.fleet.worker import worker_main

__all__ = ["WorkerEvent", "ProcessPool", "InlinePool", "default_start_method"]

#: Modules the forkserver imports before the first worker forks, so the
#: heavy runtime import cost is paid once per campaign, not per worker.
_PRELOAD = ["repro.fleet.worker", "repro.check.runner"]


def default_start_method() -> str:
    """``forkserver`` where available (Linux/macOS), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


@dataclass(frozen=True)
class WorkerEvent:
    """One thing that happened on the pool: a result or a dead worker."""

    worker: int
    kind: str  #: "result" | "crash"
    result: JobResult | None = None


class _Slot:
    """Book-keeping for one worker seat (survives respawns)."""

    __slots__ = ("conn", "proc", "alive")

    def __init__(self, conn, proc) -> None:
        self.conn = conn
        self.proc = proc
        self.alive = True


class ProcessPool:
    """``nworkers`` seats, each backed by a child process and a pipe."""

    def __init__(self, nworkers: int) -> None:
        self._ctx = multiprocessing.get_context(default_start_method())
        if self._ctx.get_start_method() == "forkserver":
            try:
                self._ctx.set_forkserver_preload(_PRELOAD)
            except Exception:  # pragma: no cover - preload is an optimization
                pass
        self._slots: list[_Slot] = [self._spawn(w) for w in range(nworkers)]

    def _spawn(self, worker_id: int) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Slot(parent_conn, proc)

    # ------------------------------------------------------------------ #
    # Scheduler interface
    # ------------------------------------------------------------------ #
    def send(self, worker: int, job: Job) -> None:
        slot = self._slots[worker]
        if not slot.alive:
            raise RuntimeError(f"worker {worker} is dead; respawn before sending")
        slot.conn.send(job)

    def respawn(self, worker: int) -> None:
        """Replace a dead worker's seat with a fresh process."""
        old = self._slots[worker]
        if old.alive:
            raise RuntimeError(f"worker {worker} is still alive")
        try:
            old.conn.close()
        except OSError:
            pass
        old.proc.join(timeout=1.0)
        self._slots[worker] = self._spawn(worker)

    def poll(self, timeout: float) -> list[WorkerEvent]:
        """Wait up to ``timeout`` seconds for results or worker deaths."""
        watch = {}
        for w, slot in enumerate(self._slots):
            if slot.alive:
                watch[slot.conn] = w
                watch[slot.proc.sentinel] = w
        if not watch:
            return []
        events: list[WorkerEvent] = []
        crashed: set[int] = set()
        for obj in _conn_wait(list(watch), timeout):
            w = watch[obj]
            slot = self._slots[w]
            if not slot.alive or w in crashed:
                continue
            if obj is slot.conn:
                try:
                    result = slot.conn.recv()
                except (EOFError, OSError):
                    slot.alive = False
                    crashed.add(w)
                    events.append(WorkerEvent(worker=w, kind="crash"))
                else:
                    events.append(WorkerEvent(worker=w, kind="result", result=result))
            else:  # process sentinel: worker died without replying
                slot.alive = False
                crashed.add(w)
                events.append(WorkerEvent(worker=w, kind="crash"))
        return events

    def close(self) -> None:
        """Shut every worker down; escalate to terminate/kill stragglers."""
        for slot in self._slots:
            if slot.alive:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():  # pragma: no cover - defensive
                warnings.warn(f"terminating unresponsive {slot.proc.name}")
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join(timeout=1.0)
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.alive = False

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlinePool:
    """Same interface, no processes: jobs execute synchronously on send.

    For in-process campaigns, scheduler dispatch tests and debugging.
    ``crash``/``exit`` probes cannot be simulated inline (they would
    kill the parent), so the pool refuses them; use
    :class:`ProcessPool` for failure-path tests.
    """

    def __init__(self, nworkers: int) -> None:
        self._pending: list[WorkerEvent] = []

    def send(self, worker: int, job: Job) -> None:
        if job.fn is probe and job.kwargs.get("action") in ("crash", "exit"):
            raise ValueError("crash/exit probes require a ProcessPool")
        result = execute_job(job, worker)
        self._pending.append(WorkerEvent(worker=worker, kind="result", result=result))

    def respawn(self, worker: int) -> None:  # pragma: no cover - nothing dies inline
        pass

    def poll(self, timeout: float) -> list[WorkerEvent]:
        out, self._pending = self._pending, []
        return out

    def close(self) -> None:
        self._pending.clear()

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

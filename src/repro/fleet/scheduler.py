"""The fleet meta-scheduler: one FIFO of pending jobs.

The parent is single-threaded and event-driven.  It keeps one queue of
pending jobs; whenever a worker is idle, the lowest-numbered idle worker
takes the head.  It multiplexes over result pipes and process sentinels
(:mod:`repro.fleet.pool`), and the campaign ends when nothing is
pending and nothing is in flight.  Before returning, it checks that
every submitted job has a known fate (``completed + crashed ==
submitted``): no job is ever silently dropped.

Worker crashes are first-class: a worker that dies mid-job (SIGKILL,
OOM, segfault) is detected via its process sentinel, its job is
requeued once at the head of the queue, and a second death of the same
job lands it in ``report.crashed`` — flagged, never dropped.  The dead
seat is respawned so fleet capacity is maintained.  A job's inputs are
its whole story, so the forensics of any lost job is
:meth:`~repro.fleet.jobs.Job.replay_command`: rerun it alone.

:func:`run_campaign` is the one entry point of ``repro.check``,
``repro.bench`` and ``repro.analyze predict``: in this process at one
worker, results in submission order at any count.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fleet.jobs import Job, JobResult
from repro.fleet.pool import InlinePool, ProcessPool
from repro.util.errors import check_count

__all__ = ["FleetScheduler", "FleetReport", "run_campaign"]

#: Pipe-multiplex timeout while jobs are in flight (seconds).
_POLL_TIMEOUT = 0.05

#: Seconds between two progress callbacks.
_PROGRESS_INTERVAL = 0.5


@dataclass
class FleetReport:
    """Everything one :meth:`FleetScheduler.run` campaign produced."""

    #: Workers started: the requested count, but never more than jobs.
    nworkers: int
    jobs_total: int
    completed: list[JobResult] = field(default_factory=list)
    #: Jobs whose worker died twice: flagged, never silently dropped.
    crashed: list[dict[str, Any]] = field(default_factory=list)
    requeued_keys: list[str] = field(default_factory=list)
    worker_deaths: int = 0
    wall_s: float = 0.0

    @property
    def failed_results(self) -> list[JobResult]:
        """Results that came back carrying a job-level error."""
        return [r for r in self.completed if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.crashed and not self.failed_results

    @property
    def jobs_per_sec(self) -> float:
        return len(self.completed) / self.wall_s if self.wall_s > 0 else 0.0

    def accounted(self) -> int:
        """Jobs with a known fate; the scheduler asserts this equals
        ``jobs_total`` before returning (nothing silently dropped)."""
        return len(self.completed) + len(self.crashed)


def run_campaign(
    jobs: list[Job],
    nworkers: int = 1,
    progress: Callable[[dict[str, Any]], None] | None = None,
) -> list[JobResult]:
    """Run ``jobs`` on ``nworkers`` (``1``: in this process) and return
    their results in submission order, the same for any ``nworkers``.

    Raises:
        RuntimeError: Naming every job that raised or whose worker died
            twice, each followed by a ``replay:`` command that reruns it.
    """
    report = FleetScheduler(nworkers, inline=nworkers == 1, progress=progress).run(jobs)
    if not report.ok:
        by_key = {j.key: j for j in jobs}
        lost = [(c["key"], c["error"]) for c in report.crashed]
        lost += [(r.key, r.error) for r in report.failed_results]
        raise RuntimeError(
            "campaign incomplete: "
            + "\n".join(
                f"{key}: {error}\n  replay: {by_key[key].replay_command()}"
                for key, error in lost
            )
        )
    by_key = {r.key: r for r in report.completed}
    return [by_key[j.key] for j in jobs]


class FleetScheduler:
    """FIFO dispatcher over a pool of simulation workers."""

    def __init__(
        self,
        nworkers: int,
        inline: bool = False,
        progress: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.nworkers = check_count("nworkers", nworkers)
        self.inline = inline
        self.progress = progress

    # ------------------------------------------------------------------ #
    # Campaign entry point
    # ------------------------------------------------------------------ #
    def run(self, jobs: list[Job]) -> FleetReport:
        """Execute every job in ``jobs`` and return the fleet report."""
        keys = [j.key for j in jobs]
        if len(set(keys)) != len(keys):
            raise ValueError("job keys must be unique within a campaign")
        # A worker without a job would only be forked and closed again.
        nworkers = min(self.nworkers, len(jobs))
        report = FleetReport(nworkers=nworkers, jobs_total=len(jobs))
        # All wall-clock below is sanctioned host-side scheduling time.
        t0 = time.perf_counter()  # repro: lint-disable=RPR002
        if jobs:  # an empty campaign spawns no workers
            pool = (InlinePool if self.inline else ProcessPool)(nworkers)
            try:
                self._run_loop(jobs, pool, report)
            finally:
                pool.close()
        report.wall_s = time.perf_counter() - t0  # repro: lint-disable=RPR002
        if report.accounted() != report.jobs_total:  # pragma: no cover - invariant
            raise RuntimeError(
                f"fleet dropped work: {report.accounted()} of "
                f"{report.jobs_total} jobs accounted for"
            )
        return report

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def _run_loop(self, jobs: list[Job], pool, report: FleetReport) -> None:
        pending = deque(jobs)
        idle: set[int] = set(range(report.nworkers))
        in_flight: dict[int, Job] = {}
        last_progress = t_start = time.perf_counter()  # repro: lint-disable=RPR002

        while True:
            for w in sorted(idle):
                if not pending:
                    break
                job = pending.popleft()
                job.attempts += 1
                in_flight[w] = job
                idle.discard(w)
                pool.send(w, job)
            if not in_flight:
                # An idle worker would have taken any pending job, so
                # nothing is pending either: the campaign is done.
                break
            for event in pool.poll(_POLL_TIMEOUT):
                if event.kind == "result":
                    in_flight.pop(event.worker, None)
                    report.completed.append(event.result)
                else:  # crash
                    self._on_crash(event.worker, pending, in_flight, pool, report)
                idle.add(event.worker)
            now = time.perf_counter()  # repro: lint-disable=RPR002
            if self.progress is not None and now - last_progress >= _PROGRESS_INTERVAL:
                last_progress = now
                self.progress(self._progress_stats(report, in_flight, now - t_start))

    # ------------------------------------------------------------------ #
    # Crash handling
    # ------------------------------------------------------------------ #
    def _on_crash(
        self,
        w: int,
        pending: deque[Job],
        in_flight: dict[int, Job],
        pool,
        report: FleetReport,
    ) -> None:
        report.worker_deaths += 1
        job = in_flight.pop(w, None)
        # ``attempts`` counts dispatches: the first death requeues the
        # job, the second flags it.
        requeue = job is not None and job.attempts == 1
        if requeue:
            pending.appendleft(job)
            report.requeued_keys.append(job.key)
        elif job is not None:
            report.crashed.append(
                {
                    "key": job.key,
                    "attempts": job.attempts,
                    "error": f"worker {w} died while running this job "
                    f"(attempt {job.attempts})",
                }
            )
        pool.respawn(w)

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    def _progress_stats(
        self, report: FleetReport, in_flight: dict[int, Job], elapsed: float
    ) -> dict[str, Any]:
        done = len(report.completed)
        return {
            "done": done,
            "total": report.jobs_total,
            "in_flight": len(in_flight),
            "occupancy": len(in_flight) / report.nworkers,
            "jobs_per_sec": done / elapsed if elapsed > 0 else 0.0,
            "requeues": len(report.requeued_keys),
            "wall_s": elapsed,
        }

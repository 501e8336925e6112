"""``repro.fleet`` — multi-core meta-scheduler for the toolchain.

Farms simulation jobs (schedule-exploration shards, bench experiments,
predict scenarios) out over ``multiprocessing`` workers
from one FIFO of pending jobs: the lowest-numbered idle worker takes the
head, a job whose worker dies is requeued once at the head, and every
job ends completed or flagged as crashed, never dropped.

Entry points: ``python -m repro.check --jobs N``, ``python -m
repro.bench --jobs N``, ``python -m repro.analyze predict --jobs N`` and
the ``python -m repro.fleet probe`` self-test.  See ``docs/fleet.md``.
"""

from repro.fleet.jobs import (
    Job,
    JobResult,
    bench_jobs,
    execute_job,
    explore_jobs,
)
from repro.fleet.scheduler import FleetReport, FleetScheduler

__all__ = [
    "Job",
    "JobResult",
    "execute_job",
    "explore_jobs",
    "bench_jobs",
    "FleetScheduler",
    "FleetReport",
]

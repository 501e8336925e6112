"""``repro.fleet`` — multi-core meta-scheduler for the toolchain.

Farms simulation jobs (schedule-exploration shards, bench experiments,
mutation-matrix cells) out over ``multiprocessing`` workers from one
FIFO of pending jobs: the lowest-numbered idle worker takes the head, a
job whose worker dies is requeued once at the head, and every job ends
completed or flagged as crashed, never dropped.

Entry points: ``python -m repro.fleet``, ``python -m repro.check
explore --jobs N``, ``python -m repro.bench --jobs N``.  See
``docs/fleet.md``.
"""

from repro.fleet.jobs import (
    Job,
    JobResult,
    bench_jobs,
    execute_job,
    explore_jobs,
    mutation_jobs,
    trace_fingerprint,
)
from repro.fleet.results import (
    ExploreSummary,
    MergedFailure,
    failing_set_digest,
    merge_explore,
    persist_failures,
)
from repro.fleet.scheduler import FleetReport, FleetScheduler
from repro.fleet.seeds import derive_seed, derive_seeds

__all__ = [
    "Job",
    "JobResult",
    "execute_job",
    "explore_jobs",
    "bench_jobs",
    "mutation_jobs",
    "trace_fingerprint",
    "ExploreSummary",
    "MergedFailure",
    "merge_explore",
    "failing_set_digest",
    "persist_failures",
    "FleetScheduler",
    "FleetReport",
    "derive_seed",
    "derive_seeds",
]

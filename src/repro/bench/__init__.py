"""Benchmark harness: regenerates every table and figure of the paper.

Each module produces a :class:`~repro.util.records.SweepResult` whose
series correspond to the lines/rows of the paper's exhibit:

========================  ==========================================
module                    paper exhibit
========================  ==========================================
``repro.bench.table1``    Table 1 — task-queue op microbenchmarks
``repro.bench.figure4``   Fig. 4 — termination vs barrier timings
``repro.bench.figure56``  Fig. 5/6 — SCF & TCE speedup and runtime
``repro.bench.figure7``   Fig. 7 — UTS on the heterogeneous cluster
                          (plus the binomial-tree supplement)
``repro.bench.figure8``   Fig. 8 — UTS on the Cray XT4
``repro.bench.ablations`` A2-A6 — design-choice ablations
``repro.bench.claims``    the paper's shape, checked over the results
========================  ==========================================

Run everything from the command line::

    python -m repro.bench [--scale quick|full] [--only figure7 ...]

Scale ``quick`` (default) uses reduced process counts and workloads so
the whole suite finishes in minutes; ``full`` uses the paper's process
counts (to 512 ranks for Figure 8), set with ``--scale full``.
"""

from repro.bench.harness import scale, sweep_procs
from repro.bench.report import render

__all__ = ["scale", "sweep_procs", "render"]

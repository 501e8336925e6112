"""Static and dynamic analyses for the Scioto runtime (``repro.analyze``).

Three complementary prongs.  The first two read one captured trace and
are deterministic (unlike the schedule *search* in :mod:`repro.check`,
they flag violations on every run); the third reads source:

* :mod:`repro.analyze.race` — a happens-before data-race detector for
  the simulated PGAS machine: it captures synchronization (mutexes,
  barriers, message delivery, remote atomics, fences) and every access
  to an ARMCI shared region (queue descriptors, termination flags, GA
  patches), then computes per-rank vector clocks over that trace.
* :mod:`repro.analyze.predict` — predictive analysis over the same
  trace: lockset, weakened happens-before, §5.3 steal/mark obligations
  and lock-order cycles feasible in *other* schedules, each confirmed
  by a steered witness replay.
* :mod:`repro.analyze.lint` — an AST lint framework with
  Scioto-specific rules (RPR001–RPR007) enforcing the locking, fencing,
  determinism and coroutine discipline the protocols rely on.

Run them from the command line::

    python -m repro.analyze race --target all
    python -m repro.analyze predict
    python -m repro.analyze lint src/repro

The runtime layers import nothing from this package: each hook site
reads ``engine.detector`` and calls the attached
:class:`~repro.analyze.race.RaceDetector` itself.  This package root
imports nothing.
"""

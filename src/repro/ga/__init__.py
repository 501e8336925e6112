"""Global Arrays (GA) toolkit substrate: distributed dense arrays over ARMCI.

Implements the subset of GA the paper's applications use: collective
array creation with block distribution, one-sided ``get``/``put``/
``acc`` on arbitrary patches, ownership queries (``locate``,
``distribution``), ``read_inc`` shared counters (the original SCF/TCE
dynamic load balancer), ``sync``, and ``dgop`` reductions.
"""

from repro.ga.array import GlobalArray, GaRuntime
from repro.ga.counter import GlobalCounter
from repro.ga.distribution import BlockDistribution
from repro.ga.ops import (
    co_ga_add,
    co_ga_copy,
    co_ga_dgop,
    co_ga_dot,
    co_ga_scale,
    co_ga_symmetrize,
)
from repro.ga.dgemm import co_ga_dgemm

__all__ = [
    "GlobalArray",
    "GaRuntime",
    "GlobalCounter",
    "BlockDistribution",
    "co_ga_add",
    "co_ga_copy",
    "co_ga_dgop",
    "co_ga_dot",
    "co_ga_scale",
    "co_ga_symmetrize",
    "co_ga_dgemm",
]

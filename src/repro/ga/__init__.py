"""Global Arrays (GA) toolkit substrate: distributed dense arrays over ARMCI.

Implements the subset of GA the paper's applications use: collective
array creation with block distribution, one-sided ``get``/``put``/
``acc`` on arbitrary patches, ownership queries (``locate``,
``distribution``), ``read_inc`` shared counters (the original SCF/TCE
dynamic load balancer) and ``sync``.
"""

from repro.ga.array import GlobalArray, GaRuntime
from repro.ga.counter import GlobalCounter
from repro.ga.distribution import BlockDistribution

__all__ = [
    "GlobalArray",
    "GaRuntime",
    "GlobalCounter",
    "BlockDistribution",
]

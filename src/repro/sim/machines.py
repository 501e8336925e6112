"""Machine models: CPU speeds and network cost parameters.

The paper evaluates on two systems (§6):

* a 64-node heterogeneous InfiniBand cluster — 32 × 2.8 GHz AMD Opteron
  254 plus 32 × 3.6 GHz Intel Xeon; per-UTS-node costs 0.3158 µs
  (Opteron) and 0.4753 µs (Xeon);
* a Cray XT4 with dual-core 2.6 GHz Opteron 285 processors; per-UTS-node
  cost 0.5681 µs.

A :class:`MachineSpec` encodes those CPUs plus a component-level network
cost model (one-way latency, bandwidth, fixed software overheads).  The
constants below are calibrated so that the microbenchmarks of Table 1
(local insert 0.495 µs / remote insert 18.1 µs / local get 0.361 µs /
remote steal 29.0 µs on the cluster; 0.933 / 27.0 / 0.691 / 32.4 µs on
the XT4, with 1 kB task bodies and chunk size 10) emerge from the model
rather than being hardwired per experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MACHINES",
    "MachineSpec",
    "uniform_cluster",
    "heterogeneous_cluster",
    "cray_xt4",
    "OPTERON_NS_PER_UTS_NODE",
    "XEON_NS_PER_UTS_NODE",
    "XT4_NS_PER_UTS_NODE",
]

# Per-UTS-node processing costs reported in §6.3 of the paper (seconds).
OPTERON_NS_PER_UTS_NODE = 0.3158e-6
XEON_NS_PER_UTS_NODE = 0.4753e-6
XT4_NS_PER_UTS_NODE = 0.5681e-6

#: CPU time factors relative to the reference CPU (the cluster Opteron).
XEON_FACTOR = XEON_NS_PER_UTS_NODE / OPTERON_NS_PER_UTS_NODE  # ~1.505
XT4_FACTOR = XT4_NS_PER_UTS_NODE / OPTERON_NS_PER_UTS_NODE  # ~1.799


@dataclass(frozen=True)
class MachineSpec:
    """Cost parameters of one simulated machine.

    All times are in seconds, bandwidths in bytes/second.  ``cpu_factors``
    is either a single float (homogeneous machine) or a tuple with one
    entry per rank (heterogeneous machine); a factor of 1.0 means the
    reference CPU (cluster Opteron).
    """

    name: str
    latency: float  #: one-way remote message/NIC latency
    net_bandwidth: float  #: network payload bandwidth
    local_mem_bandwidth: float  #: local memcpy bandwidth
    local_insert_overhead: float  #: fixed cost of a lock-free local enqueue
    local_get_overhead: float  #: fixed cost of a lock-free local dequeue
    remote_op_overhead: float  #: fixed software cost added to each remote queue op
    rmw_overhead: float  #: target-side service time of one remote atomic op
    poll_cost: float  #: cost of one explicit poll (MPI two-sided baseline)
    local_lock_overhead: float = 0.08e-6  #: local (host-rank) mutex acquire/release
    cpu_reference: float = OPTERON_NS_PER_UTS_NODE  #: seconds per UTS work unit at factor 1.0
    cpu_factors: float | tuple[float, ...] = 1.0
    seconds_per_flop: float = 0.5e-9  #: reference-CPU cost of one floating-point op
    stride_chunk_overhead: float = 0.05e-6  #: per extra contiguous chunk of a strided op
    nb_issue_overhead: float = 0.3e-6  #: CPU cost of issuing one non-blocking op

    # ------------------------------------------------------------------ #
    # CPU model
    # ------------------------------------------------------------------ #
    def cpu_factor(self, rank: int) -> float:
        """Relative CPU time factor of ``rank`` (1.0 = reference Opteron)."""
        if isinstance(self.cpu_factors, tuple):
            return self.cpu_factors[rank]
        return self.cpu_factors

    def work_time(self, rank: int, units: float) -> float:
        """Seconds needed by ``rank`` to process ``units`` UTS-node-equivalents."""
        return units * self.cpu_reference * self.cpu_factor(rank)

    def validate(self, nprocs: int) -> None:
        """Check that this spec can model ``nprocs`` ranks."""
        if isinstance(self.cpu_factors, tuple) and len(self.cpu_factors) < nprocs:
            raise ValueError(
                f"machine {self.name!r} has {len(self.cpu_factors)} cpu factors, "
                f"need {nprocs}"
            )

    # ------------------------------------------------------------------ #
    # Communication primitives
    # ------------------------------------------------------------------ #
    def local_copy_time(self, nbytes: int) -> float:
        """Cost of a local memcpy of ``nbytes``."""
        return nbytes / self.local_mem_bandwidth

    def put_time(self, nbytes: int, nchunks: int = 1) -> float:
        """Initiator cost of a one-sided put: injection + transfer.

        ``nchunks > 1`` models a strided transfer (ARMCI PutS): each
        additional contiguous chunk costs descriptor/DMA setup time.
        """
        return (
            self.latency
            + nbytes / self.net_bandwidth
            + (nchunks - 1) * self.stride_chunk_overhead
        )

    def get_time(self, nbytes: int, nchunks: int = 1) -> float:
        """Initiator cost of a one-sided get: request + response with data."""
        return (
            2.0 * self.latency
            + nbytes / self.net_bandwidth
            + (nchunks - 1) * self.stride_chunk_overhead
        )

    def rmw_time(self) -> float:
        """Initiator cost of a remote atomic read-modify-write (round trip)."""
        return 2.0 * self.latency + self.rmw_overhead

    def lock_time(self) -> float:
        """Cost of acquiring an uncontended remote mutex (round trip)."""
        return 2.0 * self.latency

    def unlock_time(self) -> float:
        """Cost of releasing a remote mutex (one-way notification)."""
        return self.latency

    def replace(self, **kwargs: object) -> "MachineSpec":
        """Return a copy with the given fields overridden (for ablations)."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


# Shared network constants of the InfiniBand cluster, calibrated to Table 1.
_CLUSTER_NET = dict(
    latency=3.0e-6,
    net_bandwidth=1.0e9,
    local_mem_bandwidth=4.0e9,
    local_insert_overhead=0.245e-6,
    local_get_overhead=0.111e-6,
    remote_op_overhead=1.0e-6,
    # ARMCI atomics are served by a software agent at the host (no NIC
    # offload in 2008-era ARMCI) — service time is microseconds, which is
    # what makes hot shared counters a real bottleneck (Figures 5-6).
    rmw_overhead=4.0e-6,
    poll_cost=0.5e-6,
    local_lock_overhead=0.08e-6,
)

# Cray XT4 (SeaStar interconnect): higher latency, slower single cores.
_XT4_NET = dict(
    latency=4.5e-6,
    net_bandwidth=1.3e9,
    local_mem_bandwidth=2.0e9,
    local_insert_overhead=0.433e-6,
    local_get_overhead=0.191e-6,
    remote_op_overhead=1.2e-6,
    rmw_overhead=5.0e-6,
    poll_cost=0.6e-6,
    local_lock_overhead=0.12e-6,
)


def uniform_cluster(nprocs: int) -> MachineSpec:
    """All-Opteron InfiniBand cluster (homogeneous reference machine)."""
    del nprocs  # uniform factor works for any process count
    return MachineSpec(name="cluster-uniform", cpu_factors=1.0, **_CLUSTER_NET)


def heterogeneous_cluster(nprocs: int) -> MachineSpec:
    """The paper's 64-node half-Opteron / half-Xeon cluster (§6.3).

    The paper runs with half of each node type at every scale, so ranks
    alternate Opteron/Xeon here; doubling the process count doubles the
    resources even though processors differ in speed.
    """
    factors = tuple(1.0 if r % 2 == 0 else XEON_FACTOR for r in range(nprocs))
    return MachineSpec(name="cluster-heterogeneous", cpu_factors=factors, **_CLUSTER_NET)


def cray_xt4(nprocs: int) -> MachineSpec:
    """The paper's Cray XT4 (§6): slower cores, higher-latency interconnect."""
    del nprocs
    return MachineSpec(name="cray-xt4", cpu_factors=XT4_FACTOR, **_XT4_NET)


#: ``--machine`` name -> machine model factory(nprocs).
MACHINES: dict[str, Callable[[int], MachineSpec]] = {
    "cluster": uniform_cluster,
    "het": heterogeneous_cluster,
    "xt4": cray_xt4,
}

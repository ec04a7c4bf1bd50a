"""Memory bandwidth contention and cache capacity models.

Two resource-sharing effects drive the paper's "logical clocks cannot see
this" findings, and both are modelled here:

1. **NUMA bandwidth contention** (MiniFE-2 matvec, LULESH-2 uneven domain
   occupancy).  Threads sharing a NUMA domain split its bandwidth.  The
   split is softened by a *desynchronization credit*: when co-located
   actors start a memory phase at spread-out times they overlap less and
   each sees more bandwidth.  This is the mechanism behind the paper's
   observed *negative* measurement overhead (Fig. 2, citing Afzal et al.:
   "measurement induces a desynchronization between threads, which ...
   increase[s] performance in memory-bound codes").

2. **Last-level cache capacity** (TeaLeaf, Sec. IV-E/V-C5).  A working set
   that fits in L3 streams at cache bandwidth; instrumentation buffers add
   to the footprint and push it out ("Score-P interfering with the cache"),
   which is how the tsc measurement of TeaLeaf acquires its ~40 % overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import Cluster
from repro.util.validation import check_nonnegative

__all__ = ["MemoryModel", "CacheModel"]


@dataclass
class MemoryModel:
    """Bandwidth-contention parameters of the kernel roofline.

    The engine splits a scope's bandwidth among its effective accessors
    with them (the formula is in :mod:`repro.sim.costmodel`).

    Parameters
    ----------
    cluster:
        Topology (supplies per-domain aggregate bandwidth).
    per_core_bw_cap:
        A single core cannot saturate the domain; cap its share (bytes/s).
    contention_exponent:
        1.0 = perfect bandwidth partitioning among overlapping actors;
        values below 1 model partial overlap tolerance of the memory
        subsystem (some concurrency is absorbed by parallelism in the
        memory controllers).
    """

    cluster: Cluster
    per_core_bw_cap: float = 22.0e9
    contention_exponent: float = 1.0


@dataclass
class CacheModel:
    """Bandwidth amplification for working sets that (partially) fit in L3.

    ``bandwidth_factor`` returns a multiplier >= 1 applied to the DRAM
    bandwidth an actor would otherwise get.  With hit fraction ``f`` and
    cache-vs-DRAM speed ratio ``s``, the average time per byte is
    ``(1 - f)/bw + f/(s * bw)``, i.e. the multiplier is
    ``1 / ((1 - f) + f / s)``.
    """

    cluster: Cluster
    cache_speedup: float = 20.0  # L3 stream bandwidth relative to DRAM (per core)

    def hit_fraction(self, socket_working_set: float, extra_footprint: float = 0.0) -> float:
        """Fraction of the (per-socket) working set resident in L3."""
        check_nonnegative("socket_working_set", socket_working_set)
        check_nonnegative("extra_footprint", extra_footprint)
        l3 = self.cluster.nodes[0].sockets[0].l3_capacity
        total = socket_working_set + extra_footprint
        if total <= 0.0:
            return 1.0
        return min(1.0, l3 / total)

    def bandwidth_factor(self, socket_working_set: float, extra_footprint: float = 0.0) -> float:
        """Multiplier on DRAM bandwidth for this working set (>= 1)."""
        f = self.hit_fraction(socket_working_set, extra_footprint)
        s = self.cache_speedup
        return 1.0 / ((1.0 - f) + f / s)

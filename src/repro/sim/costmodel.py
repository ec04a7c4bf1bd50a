"""Physical cost model: kernel seconds, OpenMP construct costs, spin rates.

Compute kernels follow a roofline: ``t = max(t_flops + t_extra, t_mem)``,
where ``t_extra`` is flop-side time injected by instrumentation (basic-
block/statement counting instructions).  Folding the counting cost into the
*flop side* of the roofline reproduces a key observation from the paper's
Table I: counting instrumentation costs ~100 % in the latency/compute-bound
MiniFE initialization but is completely hidden in the memory-bound CG
solver ("overhead in the solver phase is negligible").

Memory time is ``t_mem = bytes / bw``, where each actor's bandwidth
``bw`` is its scope's DRAM bandwidth split among ``a_eff`` effective
accessors (``bw = min(scope_bw / a_eff**e, per_core_cap)``), times a
cache-capacity bonus (:class:`repro.machine.memory.CacheModel`) and a
cross-socket penalty for teams spanning both sockets.  Own-team threads
overlap fully; threads of other ranks on the scope count with a
desynchronization credit:
``a_eff = team + others * exp(-desync / t_solo) * relief``, where
``relief`` (:attr:`ComputeContext.overlap_factor`) only applies to
socket-scope kernels.  Additive (latency-bound) kernels take
``t_flops + t_extra + t_mem * relief`` instead of the ``max``.  Noise
multiplies the bandwidth (per NUMA domain) and the result (kernel
jitter, CPU factor), then adds OS detours.

The engine prices kernels through per-site caches
(:mod:`repro.sim.fastpath`) that replay this formula bit for bit;
``tests/oracles.kernel_time`` is its executable reference, priced call
by call.

The spin-rate constants govern what the simulated instruction counter sees
during waiting:

* MPI busy-polls its progress engine -> waiting retires instructions at
  ``mpi_spin_instr_per_sec``.  This is what makes lt_hwctr the only logical
  clock that "shows effort in the MPI library" and attributes the LULESH
  nodal imbalance to ``MPI_Waitall`` (paper Sec. V-C3).
* The OpenMP runtime's barrier uses a pause-loop that retires next to
  nothing -> ``omp_spin_instr_per_sec`` defaults to 0, which is why
  lt_hwctr reports "no waiting in OpenMP barriers" in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.machine.memory import CacheModel, MemoryModel
from repro.machine.noise import NoiseModel
from repro.machine.topology import Cluster
from repro.sim.kernels import KernelSpec

__all__ = ["ComputeContext", "CostModel", "OmpCostModel"]


@dataclass
class ComputeContext:
    """Everything the cost model needs to price one kernel execution.

    ``team_actors`` are hardware threads of the *same* rank participating
    in the phase (they start together -> full overlap); ``other_actors``
    are threads of other ranks pinned to the same memory scope, whose
    overlap is discounted by ``desync`` (their current spread in virtual
    time).  ``cache_working_set``/``cache_extra_footprint`` are per-socket
    byte counts feeding the L3 model.
    """

    rank: int
    thread: int
    numa_id: int
    socket_id: int
    team_actors: int = 1
    other_actors: int = 0
    desync: float = 0.0
    cache_working_set: float = 0.0
    cache_extra_footprint: float = 0.0
    #: multiplier (<= 1) on the cross-rank overlap estimate.  Instrumented
    #: runs set this below 1 to model measurement-induced
    #: desynchronisation of memory-bound phases (Afzal et al.; the paper's
    #: explanation for the *negative* overheads in Fig. 2).
    overlap_factor: float = 1.0
    #: True when the thread team spans both sockets (TeaLeaf-1's 1 rank x
    #: 128 threads): shared-data traffic crosses the socket interconnect.
    team_cross_socket: bool = False


class CostModel:
    """The machine's physical cost parameters plus its noise model.

    Holds what pricing a kernel needs (memory and cache models, the
    cross-socket penalty, the noise model) and the spin rates at which
    waiting inside MPI and OpenMP retires instructions.
    """

    def __init__(
        self,
        cluster: Cluster,
        memory: Optional[MemoryModel] = None,
        cache: Optional[CacheModel] = None,
        noise: Optional[NoiseModel] = None,
        mpi_spin_instr_per_sec: float = 2.0e9,
        omp_spin_instr_per_sec: float = 0.0,
        mpi_library_instr_per_call: float = 8.0e3,
        cross_socket_factor: float = 0.72,
    ):
        self.cluster = cluster
        self.memory = memory if memory is not None else MemoryModel(cluster)
        self.cache = cache if cache is not None else CacheModel(cluster)
        self.noise = noise
        self.mpi_spin_instr_per_sec = mpi_spin_instr_per_sec
        self.omp_spin_instr_per_sec = omp_spin_instr_per_sec
        self.mpi_library_instr_per_call = mpi_library_instr_per_call
        #: bandwidth penalty when a thread team spans both sockets
        self.cross_socket_factor = cross_socket_factor

    # -- bandwidth ------------------------------------------------------
    def _scope_bandwidth(self, kernel: KernelSpec, ctx: ComputeContext) -> float:
        """Aggregate DRAM bandwidth of the kernel's contention scope."""
        if kernel.memory_scope == "socket":
            domains = [d for d in self.cluster.numa_domains if d.socket_id == ctx.socket_id]
            return sum(d.mem_bandwidth for d in domains)
        return self.cluster.numa_domain(ctx.numa_id).mem_bandwidth


@dataclass
class OmpCostModel:
    """Costs of OpenMP runtime constructs.

    Linear fork/join models (cf. the paper's citation of Iwainsky et al.,
    "How many threads will be too many?") and a log-tree barrier.  These
    constants generate the LULESH-1 OpenMP overhead that the paper's
    X = 100 bb / Y = 4300 stmt constants were fitted against.
    """

    fork_base: float = 1.5e-6
    fork_per_thread: float = 0.04e-6
    join_base: float = 0.8e-6
    join_per_thread: float = 0.05e-6
    barrier_base: float = 0.6e-6
    barrier_log_factor: float = 0.5e-6
    thread_stagger: float = 0.08e-6  # per-thread wake skew inside fork
    runtime_instr_per_call: float = 3.0e3  # instructions inside the runtime

    def fork_cost(self, n_threads: int) -> float:
        if n_threads <= 1:
            return self.fork_base * 0.25
        return self.fork_base + self.fork_per_thread * n_threads

    def join_cost(self, n_threads: int) -> float:
        if n_threads <= 1:
            return self.join_base * 0.25
        return self.join_base + self.join_per_thread * n_threads

    def barrier_cost(self, n_threads: int) -> float:
        if n_threads <= 1:
            return self.barrier_base * 0.25
        return self.barrier_base + self.barrier_log_factor * math.log2(n_threads)

    def stagger(self, thread: int) -> float:
        return self.thread_stagger * thread

"""Hardware model: topology, memory/cache contention, network, noise.

The paper's evaluation runs on Jureca-DC standard nodes (2x AMD EPYC 7742,
8 NUMA domains with 64 GB each, InfiniBand HDR100).  This package provides
an explicit, queryable model of that machine so the simulator can reproduce
the resource-sharing effects the paper relies on:

* per-NUMA-domain memory-bandwidth contention (MiniFE-2 matvec slowdown,
  LULESH-2 uneven NUMA occupancy),
* an aggregate last-level-cache capacity model (TeaLeaf's working set fits
  in L3 until instrumentation buffers evict it),
* a latency/bandwidth network with collective cost models,
* seeded noise sources for CPU/OS, memory, network and hardware counters
  (an HPAS-style injector suite).
"""

from repro.machine.topology import Core, NumaDomain, Socket, Node, Cluster, Pinning
from repro.machine.presets import jureca_dc, small_test_cluster
from repro.machine.network import NetworkModel, CollectiveCostModel
from repro.machine.memory import MemoryModel, CacheModel
from repro.machine.noise import (
    NoiseConfig,
    NoiseModel,
    CpuNoise,
    OsJitter,
    MemoryNoise,
    NetworkNoise,
    CounterNoise,
    ZeroNoise,
)
from repro.machine.faults import (
    FaultConfig,
    FaultModel,
    CrashPoint,
    RankCrash,
    MessageLoss,
    MessageDuplication,
    LinkDegradation,
    StragglerCore,
)

__all__ = [
    "Core",
    "NumaDomain",
    "Socket",
    "Node",
    "Cluster",
    "Pinning",
    "jureca_dc",
    "small_test_cluster",
    "NetworkModel",
    "CollectiveCostModel",
    "MemoryModel",
    "CacheModel",
    "NoiseConfig",
    "NoiseModel",
    "CpuNoise",
    "OsJitter",
    "MemoryNoise",
    "NetworkNoise",
    "CounterNoise",
    "ZeroNoise",
    "FaultConfig",
    "FaultModel",
    "CrashPoint",
    "RankCrash",
    "MessageLoss",
    "MessageDuplication",
    "LinkDegradation",
    "StragglerCore",
]

"""Replay ingested traces and programs through the simulator.

Two replay surfaces, matching the two things ingestion can produce:

* :func:`replay_clock_finals` -- run an ingested :class:`RawTrace`
  through the logical-clock replay (:func:`repro.clocks.timestamp_trace`)
  under any measurement mode and return the per-location final
  timestamps.  For a clean re-ingested ``embed_raw`` Chrome export this
  is bit-identical to replaying the original archive: ingestion
  round-trips every ``t``/delta field through JSON ``repr``, which is
  exact for float64.
* :func:`replay_program` -- execute an ingested comm-op program on a
  synthetic cluster with the full engine, optionally under measurement,
  OS noise and fault injection.  Untrusted op lists reach this point
  only after the lint gate, so the engine never deadlocks on them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.clocks.base import timestamp_trace
from repro.machine.noise import NoiseConfig, NoiseModel, ZeroNoise
from repro.machine.presets import small_test_cluster
from repro.measure import Measurement
from repro.measure.trace import RawTrace
from repro.sim import CostModel
from repro.sim.engine import Engine

__all__ = ["replay_clock_finals", "replay_program", "make_replay_cluster"]


def replay_clock_finals(trace: RawTrace, mode: Optional[str] = None,
                        counter_seed: int = 0) -> List[float]:
    """Final timestamp of every location under ``mode``'s clock.

    ``mode`` defaults to the trace's own mode.  Empty locations report
    ``0.0``.
    """
    stamped = timestamp_trace(trace, mode=mode, counter_seed=counter_seed)
    return [times[-1] if len(times) else 0.0 for times in stamped.times]


def make_replay_cluster(n_ranks: int, threads_per_rank: int = 1):
    """A test cluster just large enough to host ``n_ranks`` ranks."""
    need = max(1, n_ranks * threads_per_rank)
    # small_test_cluster yields cores_per_numa * numa_per_socket cores
    cores_per_numa = max(2, -(-need // 2))
    return small_test_cluster(n_nodes=1, cores_per_numa=cores_per_numa,
                              numa_per_socket=2, sockets_per_node=1)


def replay_program(
    program,
    mode: Optional[str] = None,
    seed: int = 1,
    noise_config: Optional[NoiseConfig] = None,
    faults=None,
    cluster=None,
    sanitize: bool = True,
):
    """Run an ingested program through the engine; returns ``SimResult``.

    ``mode=None`` runs uninstrumented; any measurement mode attaches a
    :class:`~repro.measure.Measurement`.  ``noise_config=None`` keeps
    the machine deterministic (``ZeroNoise``); pass a
    :class:`~repro.machine.noise.NoiseConfig` to enable OS noise drawn
    from ``seed``.  ``faults`` takes a
    :class:`~repro.machine.faults.FaultModel`.
    """
    if cluster is None:
        cluster = make_replay_cluster(program.n_ranks,
                                      program.threads_per_rank)
    noise = NoiseModel(noise_config if noise_config is not None
                       else ZeroNoise(), seed=seed)
    cost = CostModel(cluster, noise=noise)
    measurement = Measurement(mode) if mode is not None else None
    engine = Engine(program, cluster, cost, measurement=measurement,
                    sanitize=sanitize and measurement is not None,
                    faults=faults)
    return engine.run()

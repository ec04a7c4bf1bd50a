"""Bit-identity of the engine against the per-event oracle.

:class:`repro.sim.engine.Engine` -- one heap drain with run-slicing and
per-site cost caches -- must be indistinguishable from
:class:`tests.oracles.HeapEngine`, one heap pop per action with compute
priced call by call, at every observable layer: the raw event stream
(timestamps bit-for-bit, deltas, aux payloads), the sanitizer report,
the logical-clock replays of all six modes, and the wait-state analysis
profile ("score") cells.  The grid below covers the three mini-apps,
multiple noise seeds, wildcard receives (timing-dependent matching) and
checkpoint/restart recovery under injected faults.
"""

import pytest

from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.experiments.faultsweep import (
    CheckpointedRing,
    default_fault_config,
    trace_fingerprint,
)
from repro.machine import small_test_cluster
from repro.machine.faults import FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import MODES
from repro.miniapps import MiniFE, MiniFEConfig
from repro.miniapps.lulesh import Lulesh, LuleshConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.sim import (
    ANY_SOURCE,
    Compute,
    CostModel,
    Engine,
    Enter,
    Irecv,
    KernelSpec,
    Leave,
    Program,
    Recv,
    Send,
    Wait,
    run_with_recovery,
)
from repro.sim import recovery
from repro.verify import sanitize_raw
from tests.oracles import HeapEngine

K = KernelSpec.balanced("k", flops_per_unit=1e5, bytes_per_unit=0.0,
                        memory_scope="none")

_APPS = {
    "minife": lambda: MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=3)),
    "lulesh": lambda: Lulesh(LuleshConfig.tiny(steps=2)),
    "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny()),
}


def _run(make_program, seed, engine, mode="tsc"):
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return engine(make_program(), cluster, cost,
                  measurement=Measurement(mode)).run().trace


def _sig(trace):
    """Full byte-level signature of the raw event stream."""
    out = []
    for evs in trace.events:
        for ev in evs:
            d = ev.delta
            out.append((ev.etype, ev.region, ev.t.hex(), ev.aux,
                        ev.t_enter.hex(), d.omp_iters, d.bb, d.stmt,
                        d.instr, d.burst_calls, d.omp_calls))
    return out


def _sanitize_fp(trace):
    return sorted((d.rule_id, d.severity, d.message, d.location)
                  for d in sanitize_raw(trace))


def _score_fp(trace, mode):
    """All wait-state analysis cells: (metric, callpath id, loc) -> bits."""
    prof = analyze_trace(timestamp_trace(trace, mode))
    return sorted(
        (metric, cpid, loc, value.hex())
        for metric in prof.metrics
        for (cpid, loc), value in prof.cells(metric).items()
    )


def _assert_equivalent(make_program, seed, modes=MODES):
    oracle = _run(make_program, seed, HeapEngine)
    born = _run(make_program, seed, Engine)
    assert _sig(oracle) == _sig(born)
    assert _sanitize_fp(oracle) == _sanitize_fp(born)
    for mode in modes:
        fp_o = trace_fingerprint(timestamp_trace(oracle, mode))
        fp_b = trace_fingerprint(timestamp_trace(born, mode))
        assert fp_o == fp_b, mode
        assert _score_fp(oracle, mode) == _score_fp(born, mode), mode


class TestMiniappGrid:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("app", sorted(_APPS))
    def test_trace_sanitize_scores_identical(self, app, seed):
        _assert_equivalent(_APPS[app], seed)


class _WildcardGather(Program):
    """Rank 0 drains wildcard receives whose match order is timing-driven."""

    name = "wildcard-gather"
    n_ranks = 4
    threads_per_rank = 1
    phases = ("main",)

    def make_rank(self, ctx):
        yield Enter("main")
        if ctx.rank == 0:
            req = yield Irecv(source=ANY_SOURCE, tag=5)
            for _ in range(self.n_ranks - 1):
                src = yield Recv(source=ANY_SOURCE, tag=3)
                yield Compute(K, 2.0 + src)
            yield Wait(req)
        else:
            # Stagger the sends so noise decides the arrival order.
            yield Compute(K, 3.0 * ctx.rank)
            yield Send(dest=0, tag=3, nbytes=1024.0)
            if ctx.rank == 1:
                yield Send(dest=0, tag=5, nbytes=64.0)
        yield Leave("main")


class TestWildcardReceive:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wildcard_matching_identical(self, seed):
        _assert_equivalent(_WildcardGather, seed, modes=("tsc", "lt1"))


class TestRestartRecovery:
    @pytest.mark.parametrize("fault_seed", [99, 7])
    def test_recovered_traces_identical(self, fault_seed, monkeypatch):
        def recovered():
            cluster = small_test_cluster()
            faults = FaultModel(default_fault_config(), seed=fault_seed)
            cost = lambda: CostModel(cluster,
                                     noise=NoiseModel(NoiseConfig(), seed=3))
            return run_with_recovery(
                CheckpointedRing(), cluster, cost, faults,
                measurement=Measurement("tsc"))

        born = recovered()
        monkeypatch.setattr(recovery, "Engine", HeapEngine)
        oracle = recovered()
        assert oracle.n_restarts == born.n_restarts
        to, tb = oracle.result.trace, born.result.trace
        assert _sig(to) == _sig(tb)
        assert _sanitize_fp(to) == _sanitize_fp(tb)
        for mode in MODES:
            assert (trace_fingerprint(timestamp_trace(to, mode))
                    == trace_fingerprint(timestamp_trace(tb, mode))), mode

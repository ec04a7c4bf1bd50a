"""Fault injection, checkpoint/restart recovery and the fault sweep.

The properties under test mirror docs/robustness.md:

* the fault seed fully determines the fault schedule;
* recovery produces sanitizer-clean traces indistinguishable from a
  continuous measurement, reproducibly;
* under a fixed fault realization, the deterministic logical clock
  modes are bit-identical across noise seeds (and the noisy modes are
  not forced to be);
* the new verifier rules (MPI009, TRC008, TRC009) fire on seeded bugs.
"""

import pytest

from repro.experiments.faultsweep import (
    CheckpointedRing,
    default_fault_config,
    run_fault_sweep,
    trace_fingerprint,
)
from repro.clocks import timestamp_trace
from repro.machine import small_test_cluster
from repro.machine.faults import CrashPoint, FaultConfig, FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import NOISY_MODES
from repro.sim import (
    Allreduce,
    Checkpoint,
    Compute,
    CostModel,
    Engine,
    Enter,
    ExcessiveRestartsError,
    Irecv,
    Isend,
    KernelSpec,
    Leave,
    Program,
    Recv,
    RecoveryConfig,
    Send,
    SimCrashError,
    Waitall,
    run_with_recovery,
)
from repro.sim.events import FAULT, RESTART
from repro.verify import Severity, lint_program, sanitize_raw

K = KernelSpec.balanced("k", flops_per_unit=1e5, bytes_per_unit=0.0,
                        memory_scope="none")


def _cluster():
    return small_test_cluster()


def _cost_factory(seed):
    cluster = _cluster()

    def make():
        return CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))

    return cluster, make


class TestFaultSchedules:
    def test_schedule_is_pure_function_of_seed(self):
        cfg = FaultConfig(crash_probability=0.5, crash_max_progress=60)
        a = FaultModel(cfg, seed=99).crash_schedule(8)
        b = FaultModel(cfg, seed=99).crash_schedule(8)
        c = FaultModel(cfg, seed=100).crash_schedule(8)
        assert a == b
        assert a != c
        assert all(isinstance(cp, CrashPoint) for cp in a.values())

    def test_zero_faults_draw_nothing(self):
        fm = FaultModel(FaultConfig(), seed=1)
        assert fm.crash_schedule(64) == {}
        assert not fm.loss.lost(0, 1, 7, 0)
        assert not fm.duplication.duplicated(0, 1, 7, 0)
        assert fm.link.factor(0, 1) == 1.0
        assert fm.straggler.factor(0, 0) == 1.0
        assert not fm.config.any_enabled

    def test_draws_are_position_independent(self):
        # The ghost replay re-queries draws in arbitrary order and
        # multiplicity; the answers must not change.
        cfg = FaultConfig(message_loss_probability=0.3)
        fm = FaultModel(cfg, seed=7)
        first = [fm.loss.lost(0, 1, 7, k) for k in range(20)]
        again = [fm.loss.lost(0, 1, 7, k) for k in reversed(range(20))]
        assert first == list(reversed(again))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_probability=1.5)
        with pytest.raises(ValueError):
            FaultConfig(crash_trigger="never")
        scaled = FaultConfig(crash_probability=0.4).scaled(2.0)
        assert scaled.crash_probability == 0.8
        assert FaultConfig(crash_probability=0.9).scaled(5.0) \
            .crash_probability == 1.0


class TestRecovery:
    def test_crash_without_recovery_raises(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(default_fault_config(), seed=99)
        engine = Engine(CheckpointedRing(), cluster, cost(),
                        measurement=Measurement("lt1"), faults=faults)
        with pytest.raises(SimCrashError) as exc:
            engine.run()
        assert exc.value.epoch >= 0
        assert exc.value.t_crash >= 0.0

    def test_recovered_trace_sanitizes_clean(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(default_fault_config(), seed=99)
        measurement = Measurement("lt1")
        outcome = run_with_recovery(CheckpointedRing(), cluster, cost,
                                    faults, measurement=measurement)
        assert outcome.n_restarts > 0
        trace = outcome.result.trace
        diags = sanitize_raw(trace)
        assert not any(d.severity == Severity.ERROR for d in diags), \
            [str(d) for d in diags]
        kinds = [ev.etype for evs in trace.events for ev in evs]
        assert RESTART in kinds

    def test_recovery_is_reproducible(self):
        fps = []
        for _ in range(2):
            cluster, cost = _cost_factory(3)
            faults = FaultModel(default_fault_config(), seed=99)
            measurement = Measurement("ltbb")
            outcome = run_with_recovery(CheckpointedRing(), cluster, cost,
                                        faults, measurement=measurement)
            fps.append(trace_fingerprint(
                timestamp_trace(outcome.result.trace, "ltbb")))
        assert fps[0] == fps[1]

    def test_restart_records_are_ordered_and_typed(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(default_fault_config(), seed=99)
        outcome = run_with_recovery(CheckpointedRing(), cluster, cost, faults,
                                    measurement=Measurement("lt1"))
        for rec in outcome.restarts:
            assert rec.trigger == "progress"
            assert rec.t_restart > rec.t_crash or rec.t_restart > 0.0
        assert [r.attempt for r in outcome.restarts] == \
            list(range(1, outcome.n_restarts + 1))

    def test_max_restarts_enforced(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(default_fault_config(), seed=99)
        with pytest.raises(ExcessiveRestartsError):
            run_with_recovery(CheckpointedRing(), cluster, cost, faults,
                              measurement=Measurement("lt1"),
                              recovery=RecoveryConfig(max_restarts=0))

    def test_no_faults_is_plain_run(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(FaultConfig(), seed=1)
        measurement = Measurement("lt1")
        outcome = run_with_recovery(CheckpointedRing(), cluster, cost,
                                    faults, measurement=measurement)
        assert outcome.n_restarts == 0
        plain = Engine(CheckpointedRing(), cluster, cost(),
                       measurement=Measurement("lt1")).run()
        fp_fault = trace_fingerprint(
            timestamp_trace(outcome.result.trace, "lt1"))
        fp_plain = trace_fingerprint(timestamp_trace(plain.trace, "lt1"))
        # Checkpoints themselves appear in both traces; with every
        # injector off the fault machinery must be a strict no-op.
        assert fp_fault == fp_plain


class TestFaultEventsInTraces:
    def test_loss_and_duplication_emit_fault_events(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(
            FaultConfig(message_loss_probability=0.4,
                        message_duplication_probability=0.4),
            seed=5,
        )
        res = Engine(CheckpointedRing(), cluster, cost(),
                     measurement=Measurement("lt1"), faults=faults).run()
        trace = res.trace
        fault_evs = [ev for evs in trace.events for ev in evs
                     if ev.etype == FAULT]
        assert fault_evs, "expected some injected message faults"
        names = {trace.regions.names[ev.region] for ev in fault_evs}
        assert names <= {"fault_msg_loss", "fault_msg_dup"}
        diags = sanitize_raw(trace)
        assert not any(d.severity == Severity.ERROR for d in diags)

    def test_straggler_and_link_slow_the_run(self):
        cluster, cost = _cost_factory(3)
        base = Engine(CheckpointedRing(), cluster, cost()).run()
        cluster2, cost2 = _cost_factory(3)
        faults = FaultModel(
            FaultConfig(link_degradation_probability=1.0,
                        link_degradation_factor=20.0,
                        straggler_probability=1.0,
                        straggler_factor=3.0),
            seed=5,
        )
        slow = Engine(CheckpointedRing(), cluster2, cost2(),
                      faults=faults).run()
        assert slow.runtime > base.runtime


class TestFaultSweep:
    def test_sweep_deterministic_modes_bit_identical(self):
        sweep = run_fault_sweep(reps=2)
        assert sweep.deterministic_ok
        for mode in sweep.fingerprints:
            if mode not in NOISY_MODES:
                assert sweep.identical(mode), mode
        # Physical time is noisy by construction; if tsc ever became
        # bit-identical across noise seeds the sweep lost its contrast.
        assert not sweep.identical("tsc")
        assert all(n > 0 for ns in sweep.n_restarts.values() for n in ns)
        assert "PASS" in sweep.report()

    def test_sweep_different_fault_seeds_differ(self):
        a = run_fault_sweep(fault_seed=99, reps=1, modes=("lt1",))
        b = run_fault_sweep(fault_seed=123, reps=1, modes=("lt1",))
        assert a.fingerprints["lt1"] != b.fingerprints["lt1"]


class _CkptCrossing(Program):
    """Seeded-buggy fixture: a send initiated before a checkpoint is
    received after it (MPI009)."""

    name = "ckpt-crossing"
    n_ranks = 2
    threads_per_rank = 1

    def make_rank(self, ctx):
        yield Enter("main")
        if ctx.rank == 0:
            yield Send(dest=1, tag=3, nbytes=64.0)
            yield Checkpoint(nbytes=1e3)
        else:
            yield Checkpoint(nbytes=1e3)
            yield Recv(source=0, tag=3)
        yield Compute(K, 1)
        yield Leave("main")


class _CkptClean(Program):
    """Checkpoint placed at a quiescent point: no MPI009."""

    name = "ckpt-clean"
    n_ranks = 2
    threads_per_rank = 1

    def make_rank(self, ctx):
        peer = 1 - ctx.rank
        yield Enter("main")
        r1 = yield Isend(dest=peer, tag=3, nbytes=64.0)
        r2 = yield Irecv(source=peer, tag=3)
        yield Waitall([r1, r2])
        yield Checkpoint(nbytes=1e3)
        r3 = yield Isend(dest=peer, tag=4, nbytes=64.0)
        r4 = yield Irecv(source=peer, tag=4)
        yield Waitall([r3, r4])
        yield Allreduce(nbytes=8.0)
        yield Leave("main")


class TestVerifierRules:
    def test_mpi009_fires_on_checkpoint_crossing_message(self):
        report = lint_program(_CkptCrossing())
        assert "MPI009" in report.rule_ids()

    def test_mpi009_silent_on_quiescent_checkpoint(self):
        report = lint_program(_CkptClean())
        assert "MPI009" not in report.rule_ids()
        assert report.ok

    def test_trc008_fires_on_inconsistent_restart_group(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(default_fault_config(), seed=99)
        measurement = Measurement("lt1")
        outcome = run_with_recovery(CheckpointedRing(), cluster, cost,
                                    faults, measurement=measurement)
        trace = outcome.result.trace
        # Corrupt one rank's RESTART marker: claim a different group size.
        for evs in trace.events:
            for ev in evs:
                if ev.etype == RESTART:
                    ev.aux = (ev.aux[0], ev.aux[1] + 1)
                    break
            else:
                continue
            break
        diags = sanitize_raw(trace)
        assert any(d.rule_id == "TRC008" for d in diags)

    def test_trc009_fires_on_dangling_fault_reference(self):
        cluster, cost = _cost_factory(3)
        faults = FaultModel(
            FaultConfig(message_loss_probability=0.4), seed=5)
        res = Engine(CheckpointedRing(), cluster, cost(),
                     measurement=Measurement("lt1"), faults=faults).run()
        trace = res.trace
        for evs in trace.events:
            for ev in evs:
                if ev.etype == FAULT:
                    ev.aux = 10 ** 9  # no such match id
                    break
            else:
                continue
            break
        diags = sanitize_raw(trace)
        assert any(d.rule_id == "TRC009" for d in diags)


class TestClockModesHandleRestarts:
    @pytest.mark.parametrize("mode", ["tsc", "lt1", "ltloop", "ltbb",
                                      "ltstmt", "lthwctr"])
    def test_recovered_trace_monotone_and_repeatable(self, mode):
        # For a fixed fault realization (fault seed + noise seed), every
        # clock mode must yield monotone timestamps over the restart
        # discontinuities AND be bit-identical across repetitions of the
        # identical run -- the all-six-modes determinism guarantee.
        fps = []
        for _ in range(2):
            cluster, cost = _cost_factory(3)
            faults = FaultModel(default_fault_config(), seed=99)
            measurement = Measurement(mode)
            outcome = run_with_recovery(CheckpointedRing(), cluster, cost,
                                        faults, measurement=measurement)
            assert outcome.n_restarts > 0
            tt = timestamp_trace(outcome.result.trace, mode)
            tt.validate_monotone()
            fps.append(trace_fingerprint(tt))
        assert fps[0] == fps[1], mode


# the fingerprints of the three tiny mini-apps (tsc recording, noise seed
# 1) as the per-event hash over ``trace.events`` computed them; the hash
# now reads the trace's columns and must not move a bit
_TINY_FINGERPRINTS = {
    ("minife", "tsc"):
        "aa41562ff4858337f851017283138f319143a1f987b362f797fc1f97234dd766",
    ("minife", "ltbb"):
        "247f31b5050ebbcf57c1b2b96ea5d792e9fa641a4a0d8e48d338bc4b9b21918d",
    ("lulesh", "tsc"):
        "5d002fa1e93218e165d4c9e4f7aa26f52c5cf3edee130ab0ed793341198e77f3",
    ("lulesh", "ltbb"):
        "9a096f20ecdbd88c4af75d67564f4d64d48071c14889fd104c321f5d970cf4db",
    ("tealeaf", "tsc"):
        "92efb6b9c4f8dfb0177de7a1f5b73a37c766794d74fea7b347357090e657686e",
    ("tealeaf", "ltbb"):
        "f1aa10193a185b74fd6027933c2db9d59bf02ac7ae562ab465df7eb450877e4a",
}


@pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
def test_trace_fingerprint_pinned_and_column_backed(app):
    from repro.miniapps import (
        Lulesh,
        LuleshConfig,
        MiniFE,
        MiniFEConfig,
        TeaLeaf,
        TeaLeafConfig,
    )

    make = {"minife": lambda: MiniFE(MiniFEConfig.tiny()),
            "lulesh": lambda: Lulesh(LuleshConfig.tiny()),
            "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny())}[app]
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=1))
    trace = Engine(make(), cluster, cost,
                   measurement=Measurement("tsc")).run().trace
    for mode in ("tsc", "ltbb"):
        assert (trace_fingerprint(timestamp_trace(trace, mode))
                == _TINY_FINGERPRINTS[app, mode])
    assert trace.column_backed

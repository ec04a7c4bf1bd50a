"""Fault-sweep experiment: does noise resilience survive faults?

The paper's central claim is that the deterministic logical timers
(``lt1``, ``ltloop``, ``ltbb``, ``ltstmt``) produce *bit-identical*
traces across noise realizations.  This experiment asks the same
question in a harsher world: a checkpointed ring application is run
under a **fixed fault realization** (rank crashes recovered through the
simulated checkpoint/restart protocol, message loss and duplication,
degraded links, straggler cores) while the machine noise seed varies
across repetitions.

Expected outcome, mirroring the paper's mode taxonomy
(:data:`repro.measure.config.NOISY_MODES`):

* ``lt1``/``ltloop``/``ltbb``/``ltstmt`` -- bit-identical across noise
  repetitions.  The fault schedule is keyed on logical coordinates
  (program progress, message occurrence counts), so the faults, the
  recovery trajectory and every logical timestamp are noise-independent.
* ``tsc`` -- differs: it *is* the noisy physical clock.
* ``lthwctr`` -- differs even with a fixed counter seed: the hardware
  counter charges spin-wait instructions for MPI waiting, and waiting
  times are physical.

``run_fault_sweep`` also sanitizes every recovered trace
(:func:`repro.verify.sanitize_raw`), demonstrating that the
ghost-replayed restart protocol yields traces indistinguishable from a
continuous measurement -- and cross-checks the static **determinism
certificate** (:func:`repro.verify.analyze_determinism`) against the
observed fingerprints: a mode the prover certified ``bit-identical``
must never diverge, and the noisy physical modes must.  A repetition's
fingerprints cover the timestamped trace and its wait-state profile, so
the certificate is checked from trace to profile.  A wrong verdict is a
test failure, not a footnote.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.clocks.columnar import trace_columns
from repro.cube.io import profile_doc
from repro.machine.faults import FaultConfig, FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.machine.presets import small_test_cluster
from repro.measure import MODES, Measurement
from repro.measure.config import NOISY_MODES
from repro.sim import (
    Allreduce,
    Checkpoint,
    Compute,
    CostModel,
    Enter,
    Irecv,
    Isend,
    KernelSpec,
    Leave,
    Program,
    Waitall,
    run_with_recovery,
)
from repro.sim.recovery import RecoveryConfig
from repro.util.rng import stream_seed
from repro.verify import (
    BIT_IDENTICAL,
    Severity,
    analyze_determinism,
    has_errors,
    sanitize_raw,
)

__all__ = [
    "CheckpointedRing",
    "FaultSweepResult",
    "default_fault_config",
    "profile_fingerprint",
    "trace_fingerprint",
    "run_fault_sweep",
]


_KERNEL = KernelSpec.balanced(
    "ring-step", flops_per_unit=1e5, bytes_per_unit=0.0, memory_scope="none"
)


class CheckpointedRing(Program):
    """A nearest-neighbour ring with periodic application checkpoints.

    Each iteration: unbalanced compute, a nonblocking ring exchange, an
    allreduce; every ``ckpt_every``-th iteration ends with a coordinated
    :class:`~repro.sim.actions.Checkpoint`.  Small enough to sweep, yet it
    exercises every fault injector: point-to-point traffic (loss,
    duplication, link degradation), compute (stragglers) and enough
    program progress for crash points to land in distinct epochs.
    """

    name = "ring-ckpt"
    phases = ("iterate",)

    def __init__(self, n_ranks: int = 4, iters: int = 12,
                 ckpt_every: int = 4, ckpt_nbytes: float = 1e6):
        self.n_ranks = n_ranks
        self.threads_per_rank = 1
        self.iters = iters
        self.ckpt_every = ckpt_every
        self.ckpt_nbytes = ckpt_nbytes

    def make_rank(self, ctx):
        right = (ctx.rank + 1) % ctx.n_ranks
        left = (ctx.rank - 1) % ctx.n_ranks
        yield Enter("iterate")
        for it in range(self.iters):
            yield Compute(_KERNEL, 5 + ctx.rank)
            r1 = yield Isend(dest=right, tag=7, nbytes=256)
            r2 = yield Irecv(source=left, tag=7)
            yield Waitall([r1, r2])
            yield Allreduce(nbytes=8.0)
            if (it + 1) % self.ckpt_every == 0:
                yield Checkpoint(nbytes=self.ckpt_nbytes)
        yield Leave("iterate")


def default_fault_config() -> FaultConfig:
    """The sweep's default fault intensity: every injector active, and a
    crash window sized to the ring program so crashes actually fire."""
    return FaultConfig(
        crash_probability=0.5,
        crash_max_progress=60,
        message_loss_probability=0.08,
        message_duplication_probability=0.08,
        link_degradation_probability=0.15,
        straggler_probability=0.2,
    )


def trace_fingerprint(tt) -> str:
    """SHA-256 over the trace's logical structure and timestamps.

    Hashes, per location and event: the location id, event type, region
    *name* (names survive re-runs; interned ids do too, but names make
    the fingerprint self-describing) and the raw IEEE-754 bits of the
    timestamp.  Two traces share a fingerprint iff they are bit-identical
    in structure and timing.  Event aux payloads are excluded: match and
    collective ids are arbitrary labels.  Reads the trace's columns.
    """
    h = hashlib.sha256()
    cols = trace_columns(tt.trace)
    names = [nm.encode("utf-8") for nm in cols.regions.names]
    for loc, (lc, ts) in enumerate(zip(cols.locs, tt.times)):
        h.update(struct.pack("<qq", loc, len(lc)))
        for et, rid, t in zip(lc.etype.tolist(), lc.region.tolist(),
                              ts.tolist()):
            h.update(struct.pack("<q", et))
            h.update(names[rid])
            h.update(struct.pack("<d", t))
    return h.hexdigest()


def profile_fingerprint(tt) -> str:
    """SHA-256 of the ``profile_doc`` JSON of ``tt``'s wait-state
    profile: equal iff the two profiles are byte-identical."""
    doc = json.dumps(profile_doc(analyze_trace(tt)))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@dataclass
class FaultSweepResult:
    """Outcome of :func:`run_fault_sweep`."""

    fault_seed: int
    noise_seeds: Tuple[int, ...]
    #: mode -> one trace fingerprint per noise repetition
    fingerprints: Dict[str, List[str]] = field(default_factory=dict)
    #: mode -> one profile fingerprint per noise repetition
    profile_fingerprints: Dict[str, List[str]] = field(default_factory=dict)
    #: mode -> restarts survived per repetition
    n_restarts: Dict[str, List[int]] = field(default_factory=dict)
    #: mode -> sanitizer error-diagnostic count summed over repetitions
    sanitizer_errors: Dict[str, int] = field(default_factory=dict)
    #: static certificate verdict per mode (empty when certify=False)
    certificate_verdicts: Dict[str, str] = field(default_factory=dict)
    #: sha256 stamp of the certificate manifest ("" when certify=False)
    certificate_hash: str = ""

    def identical(self, mode: str) -> bool:
        """Whether all repetitions of ``mode`` are bit-identical, in their
        timestamped traces and in their profiles."""
        return (len(set(self.fingerprints[mode])) == 1
                and len(set(self.profile_fingerprints[mode])) == 1)

    @property
    def deterministic_ok(self) -> bool:
        """Bit-identity holds for every swept deterministic logical mode
        and every recovered trace sanitized cleanly."""
        return all(
            self.identical(m) for m in self.fingerprints
            if m not in NOISY_MODES
        ) and not any(self.sanitizer_errors.values())

    def certificate_mismatches(self) -> List[str]:
        """Disagreements between the static certificate and observation.

        The check is directional (the certificate is a *soundness*
        claim): a ``bit-identical`` verdict must never be contradicted
        by an observed divergence, and the noisy physical modes must
        actually diverge when more than one noise seed was swept.  A
        ``noise-sensitive`` verdict on a logical mode accepts either
        observed outcome -- finitely many seeds cannot refute "may
        differ".
        """
        out: List[str] = []
        for mode, fps in self.fingerprints.items():
            verdict = self.certificate_verdicts.get(mode)
            if verdict is None:
                continue
            identical = self.identical(mode)
            if verdict == BIT_IDENTICAL and not identical:
                out.append(
                    f"{mode}: certified {BIT_IDENTICAL} but "
                    f"{len(set(fps))} distinct trace and "
                    f"{len(set(self.profile_fingerprints[mode]))} distinct "
                    "profile fingerprints observed"
                )
            if mode in NOISY_MODES and len(fps) >= 2 and identical:
                out.append(
                    f"{mode}: noisy physical mode unexpectedly "
                    "bit-identical across noise seeds"
                )
        return out

    @property
    def certificate_ok(self) -> Optional[bool]:
        """Certificate/observation agreement; ``None`` if not certified."""
        if not self.certificate_verdicts:
            return None
        return not self.certificate_mismatches()

    def report(self) -> str:
        lines = [
            f"fault sweep: fault_seed={self.fault_seed}, "
            f"noise_seeds={list(self.noise_seeds)}"
        ]
        for mode, fps in self.fingerprints.items():
            verdict = self.certificate_verdicts.get(mode)
            expected = (
                f"certified {verdict}" if verdict is not None
                else "may differ (noisy)" if mode in NOISY_MODES
                else "must be identical"
            )
            status = "identical" if self.identical(mode) else "differs"
            lines.append(
                f"  {mode:8s} {status:10s} ({expected}; "
                f"{len(set(fps))} trace / "
                f"{len(set(self.profile_fingerprints[mode]))} profile "
                f"fingerprints; restarts "
                f"{self.n_restarts[mode]}, sanitizer errors "
                f"{self.sanitizer_errors[mode]})"
            )
        if self.certificate_verdicts:
            for mismatch in self.certificate_mismatches():
                lines.append(f"  certificate mismatch: {mismatch}")
            lines.append(
                f"  certificate sha256: {self.certificate_hash} "
                f"({'agrees with observation' if self.certificate_ok else 'REFUTED'})"
            )
        lines.append(
            "PASS: deterministic logical timers are bit-identical across "
            "noise under faults" if self.deterministic_ok
            else "FAIL: a deterministic mode diverged (or a trace failed "
                 "to sanitize)"
        )
        return "\n".join(lines)


def run_fault_sweep(
    fault_seed: int = 99,
    reps: int = 3,
    base_noise_seed: int = 3,
    modes: Tuple[str, ...] = MODES,
    fault_config: Optional[FaultConfig] = None,
    program: Optional[Program] = None,
    sanitize: bool = True,
    certify: bool = True,
    max_restarts: int = 8,
) -> FaultSweepResult:
    """Sweep noise seeds under one fixed fault realization.

    For each mode in ``modes`` and each of ``reps`` noise seeds
    (``base_noise_seed + rep``), runs ``program`` (default: a 4-rank
    :class:`CheckpointedRing`) through :func:`repro.sim.run_with_recovery`
    with a :class:`~repro.machine.faults.FaultModel` seeded by
    ``fault_seed``, timestamps the recovered trace and fingerprints it
    and its wait-state profile.
    The ``lthwctr`` counter seed is held fixed (derived from
    ``fault_seed`` only) so any divergence is attributable to machine
    noise, not counter noise.

    With ``certify`` (the default), the static determinism prover runs
    first and its per-mode verdicts are stored on the result; use
    :attr:`FaultSweepResult.certificate_ok` /
    :meth:`FaultSweepResult.certificate_mismatches` to check the
    certificate against the observed fingerprints.
    """
    cluster = small_test_cluster()
    result = FaultSweepResult(
        fault_seed=fault_seed,
        noise_seeds=tuple(base_noise_seed + r for r in range(reps)),
    )
    if certify:
        cert = analyze_determinism(
            program if program is not None else CheckpointedRing()
        )
        result.certificate_verdicts = dict(cert.mode_verdicts)
        result.certificate_hash = cert.certificate.get("hash", "")
    with obs.span("faultsweep", fault_seed=fault_seed, reps=reps):
        for mode in modes:
            result.fingerprints[mode] = []
            result.profile_fingerprints[mode] = []
            result.n_restarts[mode] = []
            result.sanitizer_errors[mode] = 0
            for noise_seed in result.noise_seeds:
                prog = program if program is not None else CheckpointedRing()
                faults = FaultModel(
                    fault_config if fault_config is not None
                    else default_fault_config(),
                    seed=fault_seed,
                )
                measurement = Measurement(mode)

                def cost_factory(seed=noise_seed):
                    return CostModel(
                        cluster,
                        noise=NoiseModel(NoiseConfig(), seed=seed),
                    )

                outcome = run_with_recovery(
                    prog, cluster, cost_factory, faults,
                    measurement=measurement,
                    recovery=RecoveryConfig(max_restarts=max_restarts),
                )
                trace = outcome.result.trace
                if sanitize:
                    diags = sanitize_raw(trace)
                    if has_errors(diags):
                        result.sanitizer_errors[mode] += sum(
                            1 for d in diags if d.severity == Severity.ERROR
                        )
                tt = timestamp_trace(
                    trace, mode,
                    counter_seed=stream_seed(fault_seed, "faultsweep-ctr"),
                )
                result.fingerprints[mode].append(trace_fingerprint(tt))
                result.profile_fingerprints[mode].append(
                    profile_fingerprint(tt))
                result.n_restarts[mode].append(outcome.n_restarts)
            obs.counter(
                "faultsweep.modes_swept", mode=mode,
                identical=result.identical(mode),
            ).inc()
    return result

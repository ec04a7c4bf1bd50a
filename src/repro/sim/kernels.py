"""Kernel work specifications and work deltas between trace events.

A :class:`KernelSpec` describes one *unit* of a compute kernel along two
axes:

* the **physical** axis -- flops and bytes of memory traffic, which the
  roofline cost model turns into seconds, and
* the **static-count** axis -- OpenMP loop iterations, LLVM basic blocks,
  LLVM statements and machine instructions per unit.  In the paper these
  counts are produced by an LLVM instrumentation plugin at compile time;
  here every kernel declares the counts the compiler would have derived
  (see DESIGN.md section 1 for the substitution argument).

A :class:`WorkDelta` is the aggregate work executed on one location since
its previous recorded trace event; the logical clocks of
:mod:`repro.clocks` compute their increments exclusively from it, exactly
as the paper's Sec. II-A models prescribe:

=========  ===============================================================
lt_1       +1 per event (burst events included)
lt_loop    additionally +1 per OpenMP loop iteration (``omp_iters``)
lt_bb      +1 per event + ``bb`` + X * ``omp_calls``       (X = 100)
lt_stmt    +1 per event + ``stmt`` + Y * ``omp_calls``     (Y = 4300)
lt_hwctr   +Delta(instruction counter), spin-wait instructions included
=========  ===============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_nonnegative

__all__ = ["KernelSpec", "WorkDelta", "EMPTY_DELTA"]


@dataclass(frozen=True)
class KernelSpec:
    """Per-unit work description of a compute kernel.

    Parameters
    ----------
    name:
        Identifier used in diagnostics only (call paths are determined by
        the program's ``Enter``/``Leave``/``CallBurst`` structure).
    flops_per_unit / bytes_per_unit:
        Physical work per unit (roofline inputs).
    omp_iters_per_unit:
        OpenMP loop iterations per unit.  Only loops executed via
        ``ParallelFor`` count these at run time; serial compute has the
        field on its spec but the engine zeroes it (matching Opari2, which
        instruments only OpenMP loop constructs).
    bb_per_unit / stmt_per_unit / instr_per_unit:
        Static LLVM basic-block / statement and dynamic instruction counts.
    memory_scope:
        Which resource domain the kernel's memory traffic contends on:
        ``"numa"`` (default), ``"socket"`` (irregular access patterns that
        stress the shared L3 / cross-CCX fabric) or ``"none"``
        (compute-bound; contention-free).
    additive:
        Roofline composition.  ``False`` (default): streaming code whose
        ALU work overlaps memory traffic -- duration is
        ``max(t_flops, t_mem)`` and extra flop-side instrumentation hides
        under memory stalls.  ``True``: latency-bound, dependent-load code
        (assembly/pointer chasing) where nothing overlaps -- duration is
        ``t_flops + t_mem`` and counting instrumentation is fully exposed
        (the MiniFE-init vs CG-solve overhead asymmetry in the paper's
        Table I).
    jitter:
        Extra per-execution, per-thread lognormal sigma on the physical
        duration -- *intrinsic* kernel variability (data-dependent
        branches, bank conflicts).  It perturbs physical time only, never
        the static counts: this is what creates the paper's
        "wait states that are balanced in terms of basic blocks and
        statements" (LULESH nodal barrier waits, TeaLeaf-4 all-to-all
        waits) which only tsc and lt_hwctr can see.
    """

    name: str
    flops_per_unit: float = 0.0
    bytes_per_unit: float = 0.0
    omp_iters_per_unit: float = 0.0
    bb_per_unit: float = 0.0
    stmt_per_unit: float = 0.0
    instr_per_unit: float = 0.0
    memory_scope: str = "numa"
    additive: bool = False
    jitter: float = 0.0

    def __post_init__(self):
        for f in ("flops_per_unit", "bytes_per_unit", "omp_iters_per_unit",
                  "bb_per_unit", "stmt_per_unit", "instr_per_unit", "jitter"):
            check_nonnegative(f, getattr(self, f))
        if self.memory_scope not in ("numa", "socket", "none"):
            raise ValueError(f"memory_scope must be numa/socket/none, got {self.memory_scope!r}")

    @staticmethod
    def balanced(
        name: str,
        flops_per_unit: float,
        bytes_per_unit: float,
        omp_iters_per_unit: float = 0.0,
        stmt_per_flop: float = 1.0,
        memory_scope: str = "numa",
    ) -> "KernelSpec":
        """Build a spec with plausible default count ratios.

        Typical compiled numerical code has ~3 statements per basic block
        and ~1.3 machine instructions per statement; ``stmt_per_flop``
        scales statement density relative to floating-point work (integer
        and pointer-heavy code has more statements per flop).
        """
        stmt = flops_per_unit * stmt_per_flop
        return KernelSpec(
            name=name,
            flops_per_unit=flops_per_unit,
            bytes_per_unit=bytes_per_unit,
            omp_iters_per_unit=omp_iters_per_unit,
            bb_per_unit=stmt / 3.0,
            stmt_per_unit=stmt,
            instr_per_unit=stmt * 1.3,
            memory_scope=memory_scope,
        )

    def scaled_counts(self, units: float) -> "WorkDelta":
        """Total static counts for ``units`` units of this kernel."""
        check_nonnegative("units", units)
        return WorkDelta(
            omp_iters=self.omp_iters_per_unit * units,
            bb=self.bb_per_unit * units,
            stmt=self.stmt_per_unit * units,
            instr=self.instr_per_unit * units,
        )


@dataclass(frozen=True)
class WorkDelta:
    """Aggregate work on one location since its previous trace event.

    ``burst_calls`` is the number of instrumented enter/leave *pairs*
    represented by an aggregated ``CallBurst`` event (each pair contributes
    two recorded events to the lt_1 count and two per-event overheads).
    ``omp_calls`` counts calls into the OpenMP runtime (parallel, for,
    fork, join, barrier), each worth X basic blocks / Y statements under
    the paper's fitted external-effort constants.
    """

    omp_iters: float = 0.0
    bb: float = 0.0
    stmt: float = 0.0
    instr: float = 0.0
    burst_calls: float = 0.0
    omp_calls: float = 0.0

    def __add__(self, other: "WorkDelta") -> "WorkDelta":
        return WorkDelta(
            omp_iters=self.omp_iters + other.omp_iters,
            bb=self.bb + other.bb,
            stmt=self.stmt + other.stmt,
            instr=self.instr + other.instr,
            burst_calls=self.burst_calls + other.burst_calls,
            omp_calls=self.omp_calls + other.omp_calls,
        )

    def without_omp_iters(self) -> "WorkDelta":
        """A copy with OpenMP loop iterations zeroed (serial execution)."""
        if self.omp_iters == 0.0:
            return self
        return replace(self, omp_iters=0.0)

    @property
    def is_empty(self) -> bool:
        return (
            self.omp_iters == 0.0
            and self.bb == 0.0
            and self.stmt == 0.0
            and self.instr == 0.0
            and self.burst_calls == 0.0
            and self.omp_calls == 0.0
        )


EMPTY_DELTA = WorkDelta()

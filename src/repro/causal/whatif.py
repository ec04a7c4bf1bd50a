"""What-if replay: edit a trace's cost vectors and re-run the clocks.

The causal counterpart of profiling: *what would the run look like if
this kernel were twice as fast / this straggler were fixed / this
injected delay had not happened?*  Edits operate on the recorded
work-delta columns -- every event attributed to the edited region (or
rank) has its work fields multiplied by the edit factor, as if the
program had performed scaled work; an event is attributed by the call
path of its interval in the trace's analysis plan, so an OpenMP worker's
work belongs to the regions around its fork -- and the **vectorized
columnar clock replay** (:func:`repro.clocks.columnar.lamport_assign_columnar`,
reusing the trace's compiled replay plan) produces the edited logical
timeline.  Synchronisation structure is preserved: every event, message
match and collective group of the original trace survives the edit,
which is exactly the regime in which logical-clock replay is a faithful
predictor (see ``docs/causal.md`` for the validity conditions).

Validation (:func:`validate_whatif`) is deliberately expensive and
independent: it re-runs the **full engine simulation** from scratch
(deterministic programs regenerate the trace), applies the same edits
through a *scalar per-event* Lamport walk with a region stack of its
own -- the one clock walk and the one region stack in ``src/`` besides
the plans, kept on purpose so the check does not compare the plans with
themselves -- and demands the final clock of
every location match the vectorized prediction **bit for bit**.
Scaling factors that are powers of two keep even the float
multiplications exact, so ``factor=2.0``/``0.5``/``0.0`` edits carry the
bit-identity guarantee end to end.

Only the four deterministic static modes (``lt1``, ``ltloop``, ``ltbb``,
``ltstmt``) support what-if replay: ``tsc`` waits are physical and
cannot be re-derived from edited work, and ``lthwctr``'s counter
perturbation is magnitude-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.analyzer import analysis_plan
from repro.clocks.columnar import (
    columnar_increments,
    lamport_assign_columnar,
    trace_columns,
)
from repro.measure.config import (
    LT1,
    LTBB,
    LTLOOP,
    LTSTMT,
    X_BB_PER_OMP_CALL,
    Y_STMT_PER_OMP_CALL,
    validate_mode,
)
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    FORK,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_ENTER,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
)

__all__ = [
    "REPLAYABLE_MODES",
    "WhatIfEdit",
    "WhatIfResult",
    "WhatIfValidation",
    "scale_region",
    "scale_rank",
    "drop_region",
    "run_whatif",
    "validate_whatif",
]

#: modes whose edited replay is exact (deterministic static increments)
REPLAYABLE_MODES = (LT1, LTLOOP, LTBB, LTSTMT)


@dataclass(frozen=True)
class WhatIfEdit:
    """One edit of the trace's cost vectors.

    ``kind`` is ``"scale_region"`` (scale all work attributed inside the
    named region subtree, optionally on one rank) or ``"scale_rank"``
    (scale every location of one rank -- ``factor < 1`` removes a
    straggler, ``factor > 1`` injects one).  ``factor = 0`` drops the
    work entirely (see :func:`drop_region`).  Multiple edits compose
    multiplicatively where they overlap.
    """

    kind: str
    region: Optional[str] = None
    rank: Optional[int] = None
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("scale_region", "scale_rank"):
            raise ValueError(f"unknown what-if edit kind {self.kind!r}")
        if self.kind == "scale_region" and not self.region:
            raise ValueError("scale_region edit needs a region name")
        if self.factor < 0.0:
            raise ValueError(f"negative what-if factor {self.factor}")

    def describe(self) -> str:
        if self.kind == "scale_rank":
            return f"rank {self.rank} x{self.factor:g}"
        where = f" on rank {self.rank}" if self.rank is not None else ""
        return f"{self.region} x{self.factor:g}{where}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "region": self.region,
                "rank": self.rank, "factor": self.factor}


def scale_region(region: str, factor: float,
                 rank: Optional[int] = None) -> WhatIfEdit:
    """Scale all work attributed inside ``region`` by ``factor``."""
    return WhatIfEdit("scale_region", region=region, rank=rank,
                      factor=factor)


def scale_rank(rank: int, factor: float) -> WhatIfEdit:
    """Scale every location of ``rank`` (straggler removal/injection)."""
    return WhatIfEdit("scale_rank", rank=rank, factor=factor)


def drop_region(region: str, rank: Optional[int] = None) -> WhatIfEdit:
    """Remove the work of ``region`` entirely (an injected one-off delay).

    The region's *events* survive (structure-preserving edit); only
    their work goes to zero -- exactly the increments a run of the same
    program with the delay's units set to zero would record.
    """
    return WhatIfEdit("scale_region", region=region, rank=rank, factor=0.0)


@dataclass
class WhatIfResult:
    """Prediction of the edited run's logical timeline."""

    mode: str
    edits: Tuple[WhatIfEdit, ...]
    baseline_final: List[float]  # per-location final clock, unedited
    final: List[float]  # per-location final clock, edited
    baseline_makespan: float
    makespan: float
    n_events: int

    @property
    def speedup(self) -> float:
        return (self.baseline_makespan / self.makespan
                if self.makespan > 0 else float("inf"))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "edits": [e.to_json() for e in self.edits],
            "baseline_makespan": self.baseline_makespan,
            "makespan": self.makespan,
            "speedup": self.speedup,
            "n_events": self.n_events,
            "baseline_final": self.baseline_final,
            "final": self.final,
        }


@dataclass
class WhatIfValidation:
    """Outcome of the engine re-simulation oracle."""

    ok: bool
    predicted_final: List[float]
    oracle_final: List[float]
    max_abs_diff: float = field(default=0.0)

    def to_json(self) -> dict:
        return {"ok": self.ok, "max_abs_diff": self.max_abs_diff}


# ---------------------------------------------------------------------------
# edit application: per-event scale factors
# ---------------------------------------------------------------------------


def _edit_factors(edits: Sequence[WhatIfEdit], regions,
                  rank: int) -> Tuple[float, Dict[int, float]]:
    """``(rank factor, {target region id: factor})`` of ``edits`` on
    ``rank``: each factor composed in edit order, targets in the order
    of their first edit; a region absent from the trace matches
    nothing."""
    rf = 1.0
    factor_of: Dict[int, float] = {}
    for e in edits:
        if e.kind == "scale_rank":
            if e.rank == rank:
                rf *= e.factor
        elif e.region in regions and e.rank in (None, rank):
            rid = regions.id_of(e.region)
            factor_of[rid] = factor_of.get(rid, 1.0) * e.factor
    return rf, factor_of


def _event_scales(cols, edits: Sequence[WhatIfEdit]) -> List[np.ndarray]:
    """Per-location per-event work scale factors for ``edits``.

    An event's work delta covers the interval since the previous event on
    its location, so it is scaled by the edits that hold for the call
    path of that interval, the analysis plan's ``cp``: an ``ENTER``'s
    delta belongs to the parent, a ``LEAVE``'s to the region being left,
    a worker's to the path under its fork's frame.  One scale per (rank,
    call path) multiplies the rank factor, then each target region on
    the path in edit order; a ``BURST`` is scaled by its own region
    last, unless its frame already holds that region.
    """
    factors = [_edit_factors(edits, cols.regions, r) for r, _t in cols.locations]
    if not any(f for _rf, f in factors):
        return [np.full(len(lc), rf) for lc, (rf, _f) in zip(cols.locs, factors)]
    plan = analysis_plan(cols)
    names = cols.regions.names
    cp = plan.by_location(plan.cp)
    bounds = cols.offsets().tolist()
    tables: Dict[tuple, np.ndarray] = {}
    out: List[np.ndarray] = []
    for loc, (lc, (rf, factor_of)) in enumerate(zip(cols.locs, factors)):
        by_name = {names[rid]: f for rid, f in factor_of.items()}
        key = (rf, tuple(by_name.items()))
        table = tables.get(key)
        if table is None:
            # column 0: the scale of work in the path's frame; column 1: a
            # BURST's, whose path ends in its own region
            table = tables[key] = np.empty((len(plan.paths), 2))
            for pid, path in enumerate(plan.paths):
                frame = path[:-1]
                f = g = rf
                for name, fac in by_name.items():
                    if name in path:
                        f *= fac
                    if name in frame:
                        g *= fac
                if path and path[-1] in by_name and path[-1] not in frame:
                    g *= by_name[path[-1]]
                table[pid] = f, g
        out.append(table[cp[bounds[loc]:bounds[loc + 1]],
                         (lc.etype == BURST).astype(np.intp)])
    return out


# ---------------------------------------------------------------------------
# the fast path: vectorized edited replay
# ---------------------------------------------------------------------------


def run_whatif(
    trace_like,
    edits: Sequence[WhatIfEdit],
    mode: Optional[str] = None,
    x_bb: float = X_BB_PER_OMP_CALL,
    y_stmt: float = Y_STMT_PER_OMP_CALL,
) -> WhatIfResult:
    """Predict the edited run's timeline via the columnar clock replay.

    Computes edited increment arrays (work-delta fields scaled per
    event) and re-executes the trace's compiled replay plan over them --
    the same vectorized machinery as :func:`repro.clocks.
    timestamp_columns`, so an empty edit list reproduces the unedited
    timestamps bit for bit.
    """
    mode = validate_mode(mode or trace_like.mode)
    if mode not in REPLAYABLE_MODES:
        raise ValueError(
            f"what-if replay needs a deterministic logical mode "
            f"{REPLAYABLE_MODES}, not {mode!r}"
        )
    edits = tuple(edits)
    cols = trace_columns(trace_like)
    base_inc = columnar_increments(cols, mode, x_bb=x_bb, y_stmt=y_stmt)
    base_times = lamport_assign_columnar(cols, base_inc)
    scales = _event_scales(cols, edits)
    edited_inc = columnar_increments(cols, mode, x_bb=x_bb, y_stmt=y_stmt,
                                     scales=scales)
    edited_times = lamport_assign_columnar(cols, edited_inc)
    baseline_final = [float(t[-1]) if len(t) else 0.0 for t in base_times]
    final = [float(t[-1]) if len(t) else 0.0 for t in edited_times]
    return WhatIfResult(
        mode=mode,
        edits=edits,
        baseline_final=baseline_final,
        final=final,
        baseline_makespan=max(baseline_final, default=0.0),
        makespan=max(final, default=0.0),
        n_events=cols.n_events,
    )


# ---------------------------------------------------------------------------
# the oracle: engine re-simulation + independent scalar edited replay
# ---------------------------------------------------------------------------


def _scalar_inc(mode: str, x_bb: float, y_stmt: float):
    """Scaled scalar increment ``(delta, s) -> float``.

    Performs the exact float operations of the ``scales`` path of
    :func:`repro.clocks.columnar.columnar_increments`, element for
    element, so scalar and vectorized edited replays are bit-identical.
    """
    if mode == LT1:
        def inc(d, s):
            return 1.0 + 2.0 * (d.burst_calls * s)
    elif mode == LTLOOP:
        def inc(d, s):
            return 1.0 + 2.0 * (d.burst_calls * s) + d.omp_iters * s
    elif mode == LTBB:
        def inc(d, s):
            return (1.0 + 2.0 * (d.burst_calls * s) + d.bb * s
                    + x_bb * (d.omp_calls * s))
    else:  # LTSTMT
        def inc(d, s):
            return (1.0 + 2.0 * (d.burst_calls * s) + d.stmt * s
                    + y_stmt * (d.omp_calls * s))
    return inc


def _edited_stream_finals(
    trace, edits: Sequence[WhatIfEdit], mode: str,
    x_bb: float, y_stmt: float,
) -> List[float]:
    """Per-event edited clock replay (the independent oracle path).

    Algorithm 1 event by event over ``trace.merged()`` -- send/receive
    max-exchange, group maximum on completion, fork/team-begin adoption --
    with per-event scale factors tracked through a live region stack: no
    columnar arrays, no replay or analysis plan.  The stack follows the
    analysis' rule: ``ENTER`` and ``OBAR_ENTER`` push, ``LEAVE`` and
    ``OBAR_LEAVE`` pop, and a team begin adopts the stack its fork saw
    before its own work is scaled.
    """
    n = trace.n_locations
    inc = _scalar_inc(mode, x_bb, y_stmt)
    factors = [_edit_factors(edits, trace.regions, r)
               for r, _t in trace.locations]
    stacks: List[List[int]] = [[] for _ in range(n)]

    counter = [0.0] * n
    send_clock: Dict[int, float] = {}
    fork_clock: Dict[int, float] = {}
    fork_stack: Dict[int, List[int]] = {}
    groups: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}

    for loc, ev in trace.merged():
        et = ev.etype
        if et == TEAM_BEGIN:
            stacks[loc] = list(fork_stack[ev.aux])
        stack = stacks[loc]
        s, f_of = factors[loc]
        for rid, f in f_of.items():
            if rid in stack:
                s *= f
        if et == BURST and ev.region in f_of and ev.region not in stack:
            s *= f_of[ev.region]
        c = counter[loc] + inc(ev.delta, s)

        if et == ENTER or et == OBAR_ENTER:
            stack.append(ev.region)
            counter[loc] = c
            continue
        if et == LEAVE:
            if stack:
                stack.pop()
            counter[loc] = c
            continue

        if et == MPI_SEND:
            counter[loc] = c
            send_clock[ev.aux[0]] = c
        elif et == MPI_RECV:
            partner = send_clock.pop(ev.aux)
            counter[loc] = max(c, partner + 1.0)
        elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
            if et == OBAR_LEAVE and stack:
                stack.pop()
            gid, size = ev.aux
            key = (et, gid)
            members = groups.setdefault(key, [])
            members.append((loc, c))
            counter[loc] = c
            if len(members) == size:
                m = max(pre for (_l, pre) in members)
                for (l2, _pre) in members:
                    counter[l2] = m
                del groups[key]
        elif et == FORK:
            counter[loc] = c
            fork_clock[ev.aux] = c
            fork_stack[ev.aux] = list(stack)
        elif et == TEAM_BEGIN:
            counter[loc] = max(c, fork_clock[ev.aux] + 1.0)
        else:
            counter[loc] = c

    if groups:
        raise AssertionError(
            f"{len(groups)} incomplete synchronisation groups in oracle "
            "replay"
        )
    return counter


def validate_whatif(
    result: WhatIfResult,
    rerun: Callable[[], "object"],
    x_bb: float = X_BB_PER_OMP_CALL,
    y_stmt: float = Y_STMT_PER_OMP_CALL,
) -> WhatIfValidation:
    """Validate a what-if prediction against a full engine re-simulation.

    ``rerun()`` must re-execute the original simulation from scratch and
    return the fresh :class:`~repro.measure.trace.RawTrace`; for a
    deterministic program it is bit-identical to the trace the
    prediction was computed from.  The oracle applies ``result.edits``
    through an independent scalar per-event replay over the fresh trace
    and compares every location's final clock **bit for bit** with the
    vectorized prediction.
    """
    fresh = rerun()
    oracle = _edited_stream_finals(fresh, result.edits, result.mode,
                                   x_bb, y_stmt)
    predicted = result.final
    ok = len(oracle) == len(predicted) and all(
        o == p for o, p in zip(oracle, predicted)
    )
    diff = max((abs(o - p) for o, p in zip(oracle, predicted)),
               default=float("inf") if len(oracle) != len(predicted) else 0.0)
    return WhatIfValidation(ok=ok, predicted_final=list(predicted),
                            oracle_final=list(oracle), max_abs_diff=diff)

"""The Lamport replay (Algorithm 1) over columnar traces.

This is the one replay behind every logical-clock result: timestamps
(:func:`repro.clocks.timestamp_trace`), final clocks
(:func:`repro.clocks.streaming.stream_clock_replay`), the causal DAG's
node clocks (:func:`repro.causal.build_dag`) and what-if predictions
(:func:`repro.causal.run_whatif`).  It exploits the structure of the
replay:

* Between synchronisation events a location's clock is a plain running
  sum of its work increments, so the increments are computed **in bulk**
  per location (one NumPy expression per mode) and the timestamp stretches
  between synchronisation points are filled by sequential accumulation of
  those precomputed values.
* Only the synchronisation events -- sends, receives, collective/barrier
  completions, forks and team begins, typically a third of a trace --
  are walked in merged order, performing the ``max``-exchanges of
  Algorithm 1.

The result is **bit-identical** to the per-event walk
(``tests/oracles.LamportClock``) for every mode: ``itertools.accumulate``
performs exactly the sequential left-to-right float additions of that
loop, the synchronisation events are visited in the trace's merged order
(:meth:`TraceColumns.sync_plan` filters the same
:func:`~repro.measure.trace.merged_order` that ``RawTrace.merged``
walks), and the group-completion counter overwrite is replayed at the
exact merged position at which the walk performs it (including the
corner case of a member recording further events between its own
completion record and the group's last arrival).
``tests/test_columnar.py`` and ``tests/test_properties.py`` lock this
equivalence for all six modes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.machine.noise import CounterNoise, NoiseConfig
from repro.measure.columnar import TraceColumns
from repro.measure.config import (
    LT1,
    LTBB,
    LTHWCTR,
    LTLOOP,
    LTSTMT,
    TSC,
    X_BB_PER_OMP_CALL,
    Y_STMT_PER_OMP_CALL,
)
from repro.sim.events import COLL_END, OBAR_LEAVE, TEAM_BEGIN

__all__ = ["PlanReplay", "columnar_increments", "lamport_assign_columnar",
           "mode_increments", "replay_columnar", "timestamp_columns",
           "trace_columns"]

#: gap length above which segment fills switch from the plain Python
#: accumulate loop to ``itertools.accumulate`` (both perform the same
#: sequential left-to-right float additions, so both are bit-exact; the
#: C iterator only wins once its constant call overhead is amortized)
_BULK_FILL = 6


def columnar_increments(
    cols: TraceColumns,
    mode: str,
    counter_noise: Optional[CounterNoise] = None,
    x_bb: float = X_BB_PER_OMP_CALL,
    y_stmt: float = Y_STMT_PER_OMP_CALL,
    scales: Optional[List[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Per-location clock-increment arrays for a logical mode.

    The effort models of the paper's Sec. II-A, one NumPy expression per
    location: ``lt1`` counts one unit per recorded event, ``ltloop`` adds
    the OpenMP loop iterations, ``ltbb`` the executed basic blocks plus
    ``x_bb`` per OpenMP runtime call, ``ltstmt`` the executed statements
    plus ``y_stmt`` per call.  A ``BURST`` record stands for ``2 *
    burst_calls`` recorded enter/leave events, so its "+1" scales
    accordingly.  ``lthwctr`` reads the simulated
    PERF_COUNT_HW_INSTRUCTIONS delta (kernel instructions, including
    those retired busy-polling inside MPI) through
    :meth:`CounterNoise.perturb_many`, in one keyed pass over the
    trace's location-major ``instr`` column, and clamps it to at least 1
    so a location's clock still advances.  Every element equals the
    per-event callables of ``tests/oracles.py`` bit for bit.

    ``scales`` (per-location per-event factors, what-if replay --
    :mod:`repro.causal.whatif`) multiplies every *work-delta field*
    before the mode formula is applied, as if the program had performed
    scaled work: a factor of 0 reproduces the increments of a run whose
    edited kernels did no work at all.  Only the four deterministic
    static modes support scaling (``lthwctr``'s counter perturbation is
    magnitude-dependent, so scaled replay would not commute with the
    noise draw).
    """
    if mode == LTHWCTR:
        if scales is not None:
            raise ValueError("what-if scaling is not defined for lthwctr "
                             "(counter noise is magnitude-dependent)")
        if counter_noise is None:
            raise ValueError("lthwctr increments need a CounterNoise")
        bounds = cols.offsets()
        inc = np.maximum(1.0, counter_noise.perturb_many(
            cols.locations, np.diff(bounds), cols.column("instr")))
        bounds = bounds.tolist()
        return [inc[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    out: List[np.ndarray] = []
    for loc, lc in enumerate(cols.locs):
        if scales is not None:
            s = scales[loc]
            base = 1.0 + 2.0 * (lc.burst_calls * s)
            if mode == LT1:
                inc = base
            elif mode == LTLOOP:
                inc = base + lc.omp_iters * s
            elif mode == LTBB:
                inc = base + lc.bb * s + x_bb * (lc.omp_calls * s)
            elif mode == LTSTMT:
                inc = base + lc.stmt * s + y_stmt * (lc.omp_calls * s)
            else:
                raise ValueError(f"no increment model for mode {mode!r}")
            out.append(inc)
            continue
        base = 1.0 + 2.0 * lc.burst_calls
        if mode == LT1:
            inc = base
        elif mode == LTLOOP:
            inc = base + lc.omp_iters
        elif mode == LTBB:
            inc = base + lc.bb + x_bb * lc.omp_calls
        elif mode == LTSTMT:
            inc = base + lc.stmt + y_stmt * lc.omp_calls
        else:
            raise ValueError(f"no increment model for mode {mode!r}")
        out.append(inc)
    return out


#: replay-plan opcodes
OP_RECORD = 0  # publish the clock (sends, forks, waiting group members)
OP_MAXSRC = 1  # max-exchange with an earlier record (receives, team begins)
OP_FINAL = 2  # last group member: apply the group max to all members


def _build_replay_plan(cols: TraceColumns):
    """Compile the synchronisation walk into a flat, mode-independent plan.

    Everything about the replay's control flow is static per trace: which
    send each receive pairs with and which arrival completes each group
    (both decided by the trace's :class:`~repro.measure.columnar.SyncPlan`),
    the fill range in front of every synchronisation event, and the
    merged position at which each member's counter is overwritten by the
    group maximum.  Only the *float values* depend on the mode.  Compiling
    the walk once therefore moves all group/searchsorted bookkeeping out
    of the per-mode replay, which then just dispatches over plan records.

    Returns ``(records, tails)``: one record per synchronisation event,
    in merged order, ``records[s] = (loc, i, a, op, arg)`` meaning "fill
    events ``a..i`` of ``loc``, then apply ``op``"; ``arg`` is the
    record's value slot ``s`` (:data:`OP_RECORD`), ``(source slot, s)``
    (:data:`OP_MAXSRC`), or ``(s, member_slots, overwrites)`` for
    :data:`OP_FINAL`, the member slots in arrival order, with overwrite
    entries ``(l2, i2, a2, b2)`` (set event ``i2`` to the group max after
    filling ``a2..b2-1``).  ``tails`` is the per-location index of the
    last planned event.  Raises exactly the errors the per-event walk
    raises for malformed traces (receive before send, team begin without
    fork, incomplete groups).
    """
    sync = cols.sync_plan()
    if len(sync.unsourced):
        s = int(sync.unsourced[0])
        if sync.kind[s] == TEAM_BEGIN:
            raise KeyError(int(sync.a[s]))
        raise AssertionError(
            f"receive of message {int(sync.a[s])} before/without its send -- "
            "merged order is not topological"
        )
    perm, _loc = cols.merged_order()
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))  # merged position of every event
    bounds = cols.offsets().tolist()
    last = [-1] * cols.n_locations  # highest event index already planned
    starts = sync.starts.tolist()
    members = sync.members.tolist()
    # the arrival that closes each complete group -> that group
    closing = {members[starts[g + 1] - 1]: g for g in range(sync.n_complete)}
    ops = np.where(sync.src >= 0, OP_MAXSRC, OP_RECORD)
    ops[list(closing)] = OP_FINAL
    s_loc, s_idx, s_pos, s_src = (
        x.tolist() for x in (sync.loc, sync.idx, sync.pos, sync.src))
    records = []

    for s, (loc, i, op) in enumerate(zip(s_loc, s_idx, ops.tolist())):
        a = last[loc] + 1
        last[loc] = i
        if op == OP_RECORD:  # sends, forks, arrivals of an open group
            records.append((loc, i, a, OP_RECORD, s))
        elif op == OP_MAXSRC:  # receives, team begins
            records.append((loc, i, a, OP_MAXSRC, (s_src[s], s)))
        else:
            g = closing[s]
            pos = s_pos[s]
            slots = tuple(members[starts[g]:starts[g + 1]])
            overwrites = []
            for slot in slots:
                l2 = s_loc[slot]
                # The group max lands on member l2 at the exact merged
                # position of this (last) arrival: events l2 recorded
                # after its own completion but before this point keep
                # their provisional timestamps.
                nxt = last[l2] + 1
                lo, hi = bounds[l2], bounds[l2 + 1]
                if l2 == loc or lo + nxt >= hi or rank[lo + nxt] > pos:
                    p2 = nxt
                else:
                    p2 = int(np.searchsorted(rank[lo:hi], pos))
                if p2 > nxt:
                    last[l2] = p2 - 1
                overwrites.append((l2, s_idx[slot], nxt, p2))
            records.append((loc, i, a, OP_FINAL, (s, slots, overwrites)))

    opened = sync.members[sync.starts[sync.n_complete:-1]]
    if len(opened):
        # the leftover group keys as the per-event walk formatted them
        keys = [("c" if et == COLL_END else "b" if et == OBAR_LEAVE else "r",
                 gid) for et, gid in zip(sync.kind[opened[:3]].tolist(),
                                         sync.a[opened[:3]].tolist())]
        raise AssertionError(
            f"{len(opened)} incomplete synchronisation groups at end of "
            f"trace (first keys: {keys})"
        )
    return records, last


def replay_plan(cols: TraceColumns):
    """The trace's compiled replay plan (built once, shared by all modes
    and by the causal DAG, which takes its nodes from the records)."""
    plan = cols._replay_plan
    if plan is None:
        with obs.span("replay.plan_compile", events=cols.n_events):
            plan = cols._replay_plan = _build_replay_plan(cols)
        obs.counter("clocks.plan_compiles").inc()
    return plan


class PlanReplay(NamedTuple):
    """One execution of a trace's replay plan."""

    #: per-location timestamp arrays
    times: List[np.ndarray]
    #: per plan record, the clock just before its operation ran (after
    #: the event's own increment, before any max-exchange)
    pre: List[float]
    #: per location, the clock after its last event -- the group maximum
    #: where a group completes after the member's last event, so not
    #: always the last timestamp
    final: List[float]


def replay_columnar(cols: TraceColumns,
                    increments: List[np.ndarray]) -> PlanReplay:
    """Algorithm 1 over ``cols`` with per-event ``increments``.

    Executes the trace's compiled replay plan (:func:`_build_replay_plan`):
    per record, a sequential fill of the work stretch in front of the
    synchronisation event followed by one of three opcodes.  This loop is
    the replay's only per-event Python cost.
    """
    records, tails = replay_plan(cols)
    with obs.span("replay.fill", events=cols.n_events):
        out, repaired, pre, final = _execute_plan(cols, records, tails,
                                                  increments)
    obs.counter("clocks.violations_repaired").add(repaired)
    return PlanReplay(out, pre, final)


def lamport_assign_columnar(
    cols: TraceColumns, increments: List[np.ndarray]
) -> List[np.ndarray]:
    """Logical timestamps per location (:func:`replay_columnar`'s times)."""
    return replay_columnar(cols, increments).times


def _execute_plan(cols, records, tails, increments):
    """The fill walk proper; returns (timestamps, repaired-receive count,
    per-record clocks before their operation, final clocks)."""
    inc_lists = [arr.tolist() for arr in increments]
    times: List[list] = [[0.0] * len(l) for l in inc_lists]
    clock = [0.0] * cols.n_locations
    val = [0.0] * len(records)  # clock before the operation, per record
    val_get = val.__getitem__
    repaired = 0  # receives whose clock a max-exchange pushed forward

    for loc, i, a, op, arg in records:
        c = clock[loc]
        g = i - a
        if g == 0:
            c += inc_lists[loc][i]
            times[loc][i] = c
        elif g > _BULK_FILL:
            b = i + 1
            seg = list(accumulate(inc_lists[loc][a:b], initial=c))
            times[loc][a:b] = seg[1:]
            c = seg[-1]
        elif g > 0:
            il = inc_lists[loc]
            tl = times[loc]
            for j in range(a, i + 1):
                c += il[j]
                tl[j] = c
        # g < 0: a group overwrite already timestamped this stretch

        if op == OP_RECORD:
            clock[loc] = c
            val[arg] = c
        elif op == OP_MAXSRC:
            src, slot = arg
            val[slot] = c
            p1 = val[src] + 1.0
            if p1 > c:
                repaired += 1
                c = p1
                times[loc][i] = c
            clock[loc] = c
        else:  # OP_FINAL
            slot, slots, overwrites = arg
            val[slot] = c
            m = max(map(val_get, slots))
            for l2, i2, a2, b2 in overwrites:
                if b2 > a2:
                    il2 = inc_lists[l2]
                    tl2 = times[l2]
                    c2 = clock[l2]
                    for j in range(a2, b2):
                        c2 += il2[j]
                        tl2[j] = c2
                clock[l2] = m
                times[l2][i2] = m

    out: List[np.ndarray] = []
    for loc in range(cols.n_locations):
        tl = times[loc]
        lo = tails[loc] + 1
        if lo < len(tl):
            seg = list(accumulate(inc_lists[loc][lo:], initial=clock[loc]))
            tl[lo:] = seg[1:]
            clock[loc] = seg[-1]
        out.append(np.asarray(tl, dtype=np.float64))
    return out, repaired, val, clock


def trace_columns(trace_like) -> TraceColumns:
    """The columns of a ``RawTrace``, or of a ``ShardedTrace`` read whole
    (see DESIGN.md on why replays do not stream shards)."""
    columns = getattr(trace_like, "columns", None)
    if columns is not None:
        return columns()
    return trace_like.to_raw().columns()


def mode_increments(
    cols: TraceColumns,
    mode: str,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> List[np.ndarray]:
    """:func:`columnar_increments` of a logical mode; for ``lthwctr`` with
    the instruction-counter noise of repetition ``counter_seed`` (the
    config defaults to :class:`NoiseConfig`; ``ZeroNoise`` makes the
    counter exact)."""
    noise = None
    if mode == LTHWCTR:
        cfg = counter_noise_config if counter_noise_config is not None \
            else NoiseConfig()
        noise = CounterNoise(counter_seed, cfg)
    return columnar_increments(cols, mode, noise)


def timestamp_columns(
    cols: TraceColumns,
    mode: str,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> List[np.ndarray]:
    """Mode-dispatched timestamp assignment over a columnar trace."""
    if mode == TSC:
        return [lc.t.copy() for lc in cols.locs]
    return lamport_assign_columnar(
        cols, mode_increments(cols, mode, counter_seed, counter_noise_config))

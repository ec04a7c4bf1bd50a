"""Salvage: repair recoverable damage in a parsed foreign trace.

The parser (:mod:`repro.ingest.chrome`) delivers
:class:`~repro.measure.columnar.TraceColumns` that may break any
invariant the sanitizer checks.  :func:`salvage_trace` repairs them with
column edits -- a drop mask, inserted LEAVE rows, a size rewrite, a time
edit -- whose rows the trace's synchronisation plan chooses, the plan
the sanitizer reads.  Every repair is an ING diagnostic; the result is
accepted only if :func:`repro.verify.sanitize_raw` finds no errors, and
repairs that do not converge reject with ING014.

Pass order (each structural edit on a plan of the current columns):

1. repeated ids: a send or receive repeating a match id (the plan's
   ``dup``), or a group arrival, fork or team begin repeating its
   (location, kind, id), first in location order kept (ING011);
2. ENTER/LEAVE balance, a per-location stack walk (ING009);
3. receives ``unsourced`` with no ``late`` send and ``unreceived`` sends
   no receive claims (ING006), FAULTs of unreceived messages (ING012);
4. ``unforked`` team begins (ING012);
5. a timestamp loop to fixpoint: group sizes, restart coverage and
   member-time alignment over the sanitizer's group spans (ING007), a
   per-location skew shift (ING008) and per-edge bumps (a receive after
   its send) over the plan's send->receive edges, and clamps to each
   location's running maximum (ING005).  Ids are unique by then, so the
   loop reads the edges and groups of one plan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ingest.limits import IngestBudget
from repro.ingest.report import IngestReport
from repro.measure.columnar import COLUMN_FIELDS, GROUP_KINDS, TraceColumns
from repro.measure.trace import RawTrace
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    FAULT,
    FORK,
    LEAVE,
    MPI_RECV,
    RESTART,
    TEAM_BEGIN,
)
from repro.verify.sanitizer import _group_spans

__all__ = ["salvage_trace"]

#: timestamp-loop iterations before salvage gives up with ING014
_MAX_PASSES = 10
#: incoming causality violations on one location before the whole
#: location is shifted (ING008) instead of bumping edges one by one
_SKEW_MIN_EDGES = 3
#: kinds of which a location holds one record per id
_UNIQUE_PER_LOCATION = GROUP_KINDS + (FORK, TEAM_BEGIN)


def _per_location(cols: TraceColumns, rows: np.ndarray) -> List[int]:
    """How many of ``rows`` (row indices of :meth:`TraceColumns.column`)
    each location holds."""
    return np.bincount(cols.row_locations()[rows],
                       minlength=cols.n_locations).tolist()


def _drop(cols: TraceColumns, rows: np.ndarray, report: IngestReport,
          rule_id: str, message: str) -> TraceColumns:
    """``cols`` without ``rows``; one ``rule_id`` repair per location that
    loses some, ``message`` formatted with their count."""
    if not len(rows):
        return cols
    for loc, n in enumerate(_per_location(cols, rows)):
        if n:
            report.repair(rule_id, message.format(n), location=loc)
    report.n_dropped += len(rows)
    keep = np.ones(cols.n_events, dtype=bool)
    keep[rows] = False
    return cols.select(keep)


def _drop_repeated_ids(cols: TraceColumns,
                       report: IngestReport) -> TraceColumns:
    """Keep the first record of every must-be-unique id (ING011)."""
    sync = cols.sync_plan()
    sel = np.flatnonzero(np.isin(sync.kind, _UNIQUE_PER_LOCATION))
    key = (sync.loc[sel], sync.kind[sel], sync.a[sel])
    o = np.lexsort((sync.flat[sel],) + key[::-1])
    same = np.ones(max(len(o) - 1, 0), dtype=bool)
    for k in key:
        same &= k[o][1:] == k[o][:-1]
    repeated = np.concatenate((np.flatnonzero(sync.dup >= 0), sel[o[1:][same]]))
    return _drop(cols, np.sort(sync.flat[repeated]), report, "ING011",
                 "dropped {} duplicate record(s)")


def _repair_balance(cols: TraceColumns,
                    report: IngestReport) -> TraceColumns:
    """Make every location's ENTER/LEAVE stack balance (ING009): a LEAVE
    of no open region is dropped, a LEAVE of an outer one first closes
    the regions inside it, and regions still open at the end close at
    the location's last time."""
    et, rg, t = cols.column("etype"), cols.column("region"), cols.column("t")
    bounds = cols.offsets().tolist()
    keep = np.ones(len(et), dtype=bool)
    inserts: List[Tuple[int, int, int, float]] = []  # loc, row, region, t
    for loc, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        sel = lo + np.flatnonzero((et[lo:hi] == ENTER) | (et[lo:hi] == LEAVE))
        stack: List[int] = []
        dropped = synthesized = 0
        for i, e, r in zip(sel.tolist(), et[sel].tolist(), rg[sel].tolist()):
            if e == ENTER:
                stack.append(r)
            elif r not in stack:
                keep[i] = False
                dropped += 1
            else:
                while stack[-1] != r:
                    inserts.append((loc, i, stack.pop(), t[i]))
                    synthesized += 1
                stack.pop()
        if stack:
            t_end = t[lo + np.flatnonzero(keep[lo:hi])[-1]]
            while stack:
                inserts.append((loc, hi, stack.pop(), t_end))
                synthesized += 1
        if dropped or synthesized:
            report.n_dropped += dropped
            report.repair(
                "ING009",
                f"dropped {dropped} stray LEAVE(s), synthesized "
                f"{synthesized} missing LEAVE(s)", location=loc)
    if not inserts:
        return cols.select(keep)
    # each LEAVE goes in before the row it names (or after its location's
    # last row), in the order of the walk
    ins_loc, pos, region, t_ins = map(np.array, zip(*inserts))
    added = dict.fromkeys(COLUMN_FIELDS, 0)
    added.update(etype=LEAVE, region=region, t=t_ins, aux_a=-1, aux_b=-1)
    before = np.concatenate(([0], np.cumsum(keep)))[pos]
    flat = {f: np.insert(cols.column(f)[keep], before, added[f])
            for f in COLUMN_FIELDS}
    counts = np.bincount(np.r_[cols.row_locations()[keep], ins_loc],
                         minlength=cols.n_locations)
    return cols.with_rows(flat, counts.tolist())


def _repair_matching(cols: TraceColumns,
                     report: IngestReport) -> TraceColumns:
    """Drop receives without a send and sends no receive claims (ING006),
    and FAULT markers of messages without receive records (ING012)."""
    sync = cols.sync_plan()
    recv = sync.unsourced[(sync.kind[sync.unsourced] == MPI_RECV)
                          & (sync.late[sync.unsourced] < 0)]
    send = sync.unreceived[~np.isin(sync.unreceived, sync.late)]
    unmatched = sync.flat[np.concatenate((recv, send))]
    faults = np.flatnonzero(
        (cols.column("etype") == FAULT)
        & ~np.isin(cols.column("aux_a"), np.setdiff1d(sync.received,
                                                      sync.a[recv])))
    if not len(unmatched) and not len(faults):
        return cols
    for loc, (n_u, n_f) in enumerate(zip(_per_location(cols, unmatched),
                                         _per_location(cols, faults))):
        if n_u:
            report.repair("ING006", f"dropped {n_u} unmatched send/receive "
                          "record(s)", location=loc)
        if n_f:
            report.repair("ING012", f"dropped {n_f} FAULT marker(s) "
                          "referencing messages without receive records",
                          location=loc)
    report.n_dropped += len(unmatched) + len(faults)
    keep = np.ones(cols.n_events, dtype=bool)
    keep[unmatched] = keep[faults] = False
    return cols.select(keep)


def _drop_unforked(cols: TraceColumns, report: IngestReport) -> TraceColumns:
    """Drop team begins without a FORK of their construct (ING012)."""
    sync = cols.sync_plan()
    return _drop(cols, np.sort(sync.flat[sync.unforked]), report, "ING012",
                 "dropped {} TEAM_BEGIN record(s) without a FORK")


def _group_sizes(cols: TraceColumns,
                 report: IngestReport) -> Tuple[TraceColumns, int]:
    """The group fixups of the first timestamp pass (ING007): a group's
    size claims become its member count (a restart's, the rank count), a
    restart without one record per rank is dropped, and each group's
    member-time alignment (done by :meth:`_Timeline.align_groups`) is
    reported.  Returns the edited columns and the records dropped."""
    sync = cols.sync_plan()
    t = cols.column("t")
    keys, count, lo_b, hi_b = _group_spans(sync, sync.b)
    t_max = _group_spans(sync, t[sync.flat])[3]
    m = np.flatnonzero(sync.first >= 0)
    rows, key, kind, gid = sync.flat[m], sync.first[m], sync.kind, sync.a
    ranks = np.array([r for r, _t in cols.locations], dtype=np.int64)
    n_ranks = len(np.unique(ranks))
    r = m[kind[m] == RESTART]
    distinct = np.unique(np.stack((sync.first[r], ranks[sync.loc[r]])), axis=1)
    covers = (count == n_ranks) & (
        np.bincount(distinct[0], minlength=len(sync)) == n_ranks)
    is_key = np.zeros(len(sync), dtype=bool)
    is_key[keys] = True
    size = np.where(kind == RESTART, n_ranks, count)
    resized = is_key & ((lo_b != size) | (hi_b != size))
    dropped = is_key & (kind == RESTART) & ~covers
    moved = np.bincount(key[(t[rows] != t_max[key]) & ~dropped[key]],
                        minlength=len(sync))
    for f in keys[resized[keys] | (moved[keys] > 0) | dropped[keys]].tolist():
        what = f"restart {gid[f]}" if kind[f] == RESTART else \
            f"{'coll' if kind[f] == COLL_END else 'obar'} instance {gid[f]}"
        loc = int(sync.loc[f])
        if dropped[f]:
            report.repair("ING007", f"{what} does not cover every rank; its "
                          f"{count[f]} record(s) were dropped", location=loc)
            continue
        if resized[f]:
            report.repair("ING007", f"{what}: group size corrected to "
                          + (f"{n_ranks} rank(s)" if kind[f] == RESTART else
                             f"its {count[f]} present member(s)"),
                          location=loc)
        if moved[f]:
            report.repair("ING007", f"{what}: aligned {moved[f]} "
                          + ("resume time(s) to" if kind[f] == RESTART else
                             "member time(s) to the group completion at")
                          + f" t={t_max[f]:.9g}", location=loc)
    if resized.any():
        flat = {f: cols.column(f) for f in COLUMN_FIELDS}
        grown = resized[key]
        flat["aux_b"][rows[grown]] = size[key[grown]]
        cols = cols.with_rows(flat, np.diff(cols.offsets()).tolist())
    gone = rows[dropped[key]]
    keep = np.ones(cols.n_events, dtype=bool)
    keep[gone] = False
    report.n_dropped += len(gone)
    return cols.select(keep), len(gone)


class _Timeline:
    """The times the timestamp loop edits, with the send->receive edges
    and group members of one plan, all as rows of
    :meth:`TraceColumns.column`."""

    def __init__(self, cols: TraceColumns):
        sync = cols.sync_plan()
        self.t = cols.column("t").copy()
        self.t_enter = cols.column("t_enter").copy()
        self.burst = cols.column("etype") == BURST
        self.bounds = cols.offsets().tolist()
        m = np.flatnonzero(sync.first >= 0)
        self.members, self.key = sync.flat[m], sync.first[m]
        self.n_slots = len(sync)
        src = np.where(sync.src >= 0, sync.src, sync.late)
        r = np.flatnonzero((sync.kind == MPI_RECV) & (src >= 0))
        r = r[np.argsort(sync.flat[r])]  # receives in location order
        self.recv, self.send = sync.flat[r], sync.flat[src[r]]
        self.recv_loc, self.send_loc = sync.loc[r], sync.loc[src[r]]
        self.mid = sync.a[r]

    def align_groups(self) -> int:
        """Move every group member to its group's latest time (ING007)."""
        t, rows = self.t, self.members
        t_max = np.full(self.n_slots, -np.inf)
        np.maximum.at(t_max, self.key, t[rows])
        want = t_max[self.key]
        moved = int(np.count_nonzero(t[rows] != want))
        t[rows] = want
        return moved

    def causal(self, report: Optional[IngestReport]) -> int:
        """Receives strictly after their sends: shift a location whose
        clock lags over several messages (ING008), then bump each
        receive still too early (ING005)."""
        t, recv = self.t, self.recv
        # a receive on a later location may share its send's time (the
        # merged order breaks ties by location); the send times are taken
        # before any shift
        t_send = t[self.send]
        need = np.where(self.send_loc < self.recv_loc, t_send,
                        np.nextafter(t_send, np.inf))
        late = t[recv] < need
        n_loc = len(self.bounds) - 1
        edges = np.bincount(self.recv_loc[late], minlength=n_loc)
        lags = np.zeros(n_loc)
        np.maximum.at(lags, self.recv_loc[late], (need - t[recv])[late])
        changes = 0
        for loc in np.flatnonzero(edges >= _SKEW_MIN_EDGES).tolist():
            lo, hi = self.bounds[loc], self.bounds[loc + 1]
            t[lo:hi] += lags[loc]
            t_enter = self.t_enter[lo:hi]
            t_enter[t_enter != 0] += lags[loc]
            changes += hi - lo
            if report is not None:
                report.repair(
                    "ING008",
                    f"location clock ran {lags[loc]:.3g}s behind its "
                    f"peers over {edges[loc]} message(s); timeline shifted "
                    "forward", location=loc)
        bumped = np.flatnonzero(t[recv] < need)
        t[recv[bumped]] = need[bumped]
        if report is not None:
            for loc, mid in zip(self.recv_loc[bumped].tolist(),
                                self.mid[bumped].tolist()):
                report.repair("ING005", f"receive of message {mid} moved "
                              "after its send", location=loc)
        return changes + len(bumped)

    def monotone(self, report: Optional[IngestReport]) -> int:
        """Clamp every location's times to their running maximum, and a
        burst's start to its end (ING005)."""
        t, t_enter = self.t, self.t_enter
        early = self.burst & (t_enter > t)
        t_enter[early] = t[early]
        changes = 0
        for loc, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            seg = t[lo:hi]
            run = np.maximum.accumulate(seg)
            clamped = int(np.count_nonzero(seg != run)
                          + np.count_nonzero(early[lo:hi]))
            seg[:] = run
            changes += clamped
            if clamped and report is not None:
                report.repair(
                    "ING005",
                    f"clamped {clamped} decreasing timestamp(s) to "
                    "non-decreasing order", location=loc)
        return changes


def salvage_trace(cols: TraceColumns, report: IngestReport,
                  budget: Optional[IngestBudget] = None) -> RawTrace:
    """Repair the parsed ``cols`` and return the accepted, column-backed
    :class:`RawTrace`.

    Raises :class:`~repro.ingest.limits.IngestCapError` on deadline
    overrun.  Appends ING014 to ``report.rejections`` and raises
    ``ValueError`` when repairs do not converge or the repaired trace
    still fails :func:`repro.verify.sanitize_raw` -- the caller turns
    that into a structured rejection.
    """
    def tick():
        if budget is not None:
            budget.check_deadline()

    cols = _drop_repeated_ids(cols, report)
    tick()
    cols = _repair_balance(cols, report)
    tick()
    cols = _repair_matching(cols, report)
    cols = _drop_unforked(cols, report)
    tick()

    cols, changes = _group_sizes(cols, report)
    timeline = _Timeline(cols)
    for it in range(_MAX_PASSES):
        first = report if it == 0 else None
        changes += timeline.align_groups()
        changes += timeline.causal(first)
        changes += timeline.monotone(first)
        tick()
        if not changes:
            break
        changes = 0
    else:
        report.reject(
            "ING014",
            f"timestamp repairs did not converge in {_MAX_PASSES} passes")
        raise ValueError("salvage did not converge")

    if it:  # some pass moved times
        cols = cols.with_rows({**{f: cols.column(f) for f in COLUMN_FIELDS},
                               "t": timeline.t, "t_enter": timeline.t_enter},
                              np.diff(cols.offsets()).tolist())
    ends = [lc.t[-1] for lc in cols.locs if len(lc)]
    cols.runtime = max(cols.runtime, float(max(ends, default=0.0)))
    trace = RawTrace.from_columns(cols)

    from repro.verify.rules import Severity
    from repro.verify.sanitizer import sanitize_raw

    residual = [d for d in sanitize_raw(trace)
                if d.severity == Severity.ERROR]
    if residual:
        worst = "; ".join(f"{d.rule_id}: {d.message}" for d in residual[:3])
        report.reject(
            "ING014",
            f"{len(residual)} sanitizer error(s) survive salvage ({worst})")
        raise ValueError("repaired trace still fails the sanitizer")
    return trace

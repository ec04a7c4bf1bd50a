"""Happened-before trace sanitizer.

Verifies a recorded :class:`~repro.measure.trace.RawTrace` and the
logical/physical timestamps derived from it against the invariants the
paper's analysis relies on:

* **structure** (mode-independent): per-location physical monotonicity
  (TRC001), ENTER/LEAVE balance per location (TRC006), message-matching
  integrity -- every match id on exactly one ``MPI_SEND`` and one
  ``MPI_RECV`` (TRC002) -- and complete synchronisation groups: each
  collective / OpenMP-barrier instance with exactly its group size of
  member events, each ``TEAM_BEGIN`` preceded by its ``FORK`` (TRC007),
  plus equal physical completion times within a group (TRC004);
  recovered traces additionally need consistent ``RESTART`` groups --
  one record per rank at one common resume time (TRC008) -- and every
  ``FAULT`` marker referencing a message that completes (TRC009);

* **clock condition** (per timestamp mode): derived timestamps must be
  non-decreasing per location (TRC005), every send->recv edge must
  satisfy the Lamport condition ``C(send) < C(recv)`` (TRC003), and all
  members of a synchronisation group must carry the group timestamp
  (TRC004).

Both passes read the trace's columns: the per-location checks scan the
time, kind and region columns, and everything about matching -- pairs,
groups, forks and their defects -- comes from the trace's
:class:`~repro.measure.columnar.SyncPlan`, the one the clock replay uses.
Findings come in the order of a location-by-location walk of the trace
(the per-rule cap keeps the first ones of that order).

``sanitize_trace`` bundles both passes over any subset of the paper's
six clock modes; ``check_timestamps`` takes an existing
:class:`~repro.clocks.base.TimestampedTrace` so externally supplied (or
forged) timestamp arrays can be audited too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.clocks.columnar import trace_columns
from repro.measure.config import LOGICAL_MODES, MODES
from repro.measure.trace import RawTrace
from repro.sim.events import (
    COLL_END,
    ENTER,
    FAULT,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
)
from repro.verify.diagnostics import Diagnostic, format_diagnostics, has_errors

__all__ = ["SanitizeReport", "sanitize_raw", "check_timestamps",
           "sanitize_trace"]

#: tolerance for "equal" physical timestamps within a group
_REL_TOL = 1e-9
#: cap duplicate findings of one rule per pass (keeps reports readable)
_MAX_PER_RULE = 8

#: report name and sort rank of each group kind
_GROUP_NAME = {COLL_END: "coll", OBAR_LEAVE: "obar", RESTART: "restart"}
_GROUP_RANK = np.zeros(max(_GROUP_NAME) + 1, dtype=np.int64)
_GROUP_RANK[[COLL_END, OBAR_LEAVE, RESTART]] = (0, 1, 2)


@dataclass
class SanitizeReport:
    """Outcome of sanitizing one trace over one or more modes."""

    trace_mode: str
    n_locations: int
    n_events: int
    modes: Tuple[str, ...]
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: rule id -> findings dropped beyond the per-rule cap; nothing is
    #: lost silently, the remainder is counted here
    suppressed: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    @property
    def n_suppressed(self) -> int:
        return sum(self.suppressed.values())

    def rule_ids(self) -> Set[str]:
        return {d.rule_id for d in self.diagnostics}

    def format(self, with_hints: bool = True) -> str:
        status = "clean" if not self.diagnostics else (
            f"{len(self.diagnostics)} finding(s)"
        )
        if self.n_suppressed:
            status += f" (+{self.n_suppressed} suppressed)"
        header = (
            f"sanitize trace [{self.trace_mode}]: {self.n_locations} "
            f"locations, {self.n_events} events, modes "
            f"{'/'.join(self.modes)} -- {status}"
        )
        if not self.diagnostics:
            return header
        out = format_diagnostics(self.diagnostics, header=header,
                                 with_hints=with_hints)
        for rule_id in sorted(self.suppressed):
            out += (
                f"\n[{rule_id}] (+{self.suppressed[rule_id]} more suppressed)"
            )
        return out


def _capped(diagnostics: List[Diagnostic],
            suppressed: Optional[Dict[str, int]]) -> List[Diagnostic]:
    """The first :data:`_MAX_PER_RULE` findings of each rule, in order.

    Truncation is never silent: the count dropped beyond the cap is
    added, per rule, to ``suppressed`` when given, for the report to
    surface.
    """
    seen: Dict[str, int] = {}
    out = []
    for d in diagnostics:
        n = seen[d.rule_id] = seen.get(d.rule_id, 0) + 1
        if n <= _MAX_PER_RULE:
            out.append(d)
    if suppressed is not None:
        for rule_id, n in sorted(seen.items()):
            if n > _MAX_PER_RULE:
                suppressed[rule_id] = (suppressed.get(rule_id, 0) + n
                                       - _MAX_PER_RULE)
    return out


def _namer(regions):
    """Region id -> name, tolerating ids the registry does not hold."""
    def name(rid: int) -> str:
        try:
            return regions.name(rid)
        except IndexError:
            return f"<region {rid}>"
    return name


def _running_max(x: np.ndarray) -> np.ndarray:
    """Per element, the largest earlier value (-inf first; NaN ignored)."""
    return np.fmax.accumulate(np.concatenate(([-np.inf], x[:-1])))


def _group_spans(sync, values: np.ndarray):
    """Per group key (slot of its first member in location order): the
    member count and the lowest and highest of ``values`` (per slot)."""
    m = np.flatnonzero(sync.first >= 0)
    key = sync.first[m]
    n = len(sync)
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    np.minimum.at(lo, key, values[m])
    np.maximum.at(hi, key, values[m])
    keys = np.unique(key)
    keys = keys[np.lexsort((sync.a[keys], _GROUP_RANK[sync.kind[keys]]))]
    return keys, np.bincount(key, minlength=n), lo, hi


def _spread(lo: float, hi: float) -> bool:
    return hi - lo > _REL_TOL * max(1.0, abs(hi))


# ---------------------------------------------------------------------------
# structural pass (mode-independent)
# ---------------------------------------------------------------------------


def sanitize_raw(
    trace,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Mode-independent structural checks on a raw trace.

    ``trace`` is a ``RawTrace`` or a ``ShardedTrace`` (read whole).
    ``suppressed``, when given, accumulates per-rule counts of findings
    dropped beyond the per-rule cap.
    """
    with obs.span("verify.sanitize", n_events=trace.n_events):
        cols = trace_columns(trace)
        return _capped(_structure(cols, cols.sync_plan()), suppressed)


def _structure(cols, sync) -> List[Diagnostic]:
    """Every structural finding, in location-by-location walk order: per
    location its events' findings and then its unclosed regions, then
    the cross-location ones."""
    name = _namer(cols.regions)
    found = []  # ((loc, index, 0 before 1), finding) of per-event findings
    for loc, lc in enumerate(cols.locs):
        t = lc.t
        seen = _running_max(t)
        for i in np.flatnonzero(t < seen - 1e-15).tolist():
            found.append(((loc, i, 0), Diagnostic(
                "TRC001",
                f"event #{i} ({name(int(lc.region[i]))}) at "
                f"t={float(t[i]):.9g} after t={float(seen[i]):.9g}",
                location=loc,
            )))
        found.extend(_region_stack(loc, lc, name))

    n = len(sync)
    s_loc, a, b = sync.loc.tolist(), sync.a.tolist(), sync.b.tolist()
    kind = sync.kind.tolist()

    def at(s: int, rule_id: str, message: str) -> None:
        found.append(((s_loc[s], int(sync.idx[s]), 1),
                      Diagnostic(rule_id, message, location=s_loc[s])))

    dup = sync.dup
    for s in np.flatnonzero(dup >= 0).tolist():
        what = "MPI_SEND" if kind[s] == MPI_SEND else "MPI_RECV"
        at(s, "TRC002", f"duplicate {what} for match id {a[s]} (also on "
           f"location {s_loc[dup[s]]})")
    first = sync.first
    for s in np.flatnonzero((first >= 0)
                            & (sync.b != sync.b[first])).tolist():
        f = first[s]
        if kind[s] == RESTART:
            at(s, "TRC008", f"restart {a[s]}: conflicting group sizes "
               f"{b[f]} and {b[s]}")
        else:
            at(s, "TRC007", f"{_GROUP_NAME[kind[s]]} instance {a[s]}: "
               f"conflicting group sizes {b[f]} and {b[s]}")
    for s in sync.unforked.tolist():
        at(s, "TRC007", f"TEAM_BEGIN for OpenMP construct {a[s]} without "
           "a FORK on the master")
    found.sort(key=itemgetter(0))
    out = [d for _key, d in found]

    # match ids carried on one side only, at the side's last location
    last = np.ones(n, dtype=bool)
    last[dup[dup >= 0]] = False
    for k, other, message in (
            (MPI_SEND, MPI_RECV, "MPI_SEND with match id {} has no MPI_RECV "
             "(dropped receive record?)"),
            (MPI_RECV, MPI_SEND, "MPI_RECV with match id {} has no MPI_SEND "
             "(dropped send record?)")):
        sel = np.flatnonzero(last & (sync.kind == k))
        sel = sel[~np.isin(sync.a[sel], sync.a[sync.kind == other])]
        for s in sel[np.argsort(sync.a[sel], kind="stable")].tolist():
            out.append(Diagnostic("TRC002", message.format(a[s]),
                                  location=s_loc[s]))

    keys, count, lo, hi = _group_spans(sync, cols.column("t")[sync.flat])
    for f in keys.tolist():
        gid, size, members = a[f], b[f], int(count[f])
        g_lo, g_hi = float(lo[f]), float(hi[f])
        if kind[f] == RESTART:
            if members != size:
                out.append(Diagnostic(
                    "TRC008", f"restart {gid} has {members} record(s) but "
                    f"{size} rank(s)", location=s_loc[f]))
            elif _spread(g_lo, g_hi):
                out.append(Diagnostic(
                    "TRC008", f"restart {gid}: resume times spread over "
                    f"[{g_lo:.9g}, {g_hi:.9g}] instead of one common time",
                    location=s_loc[f]))
        elif members != size:
            out.append(Diagnostic(
                "TRC007", f"{_GROUP_NAME[kind[f]]} instance {gid} has "
                f"{members} member event(s) but group size {size}",
                location=s_loc[f]))
        elif _spread(g_lo, g_hi):
            out.append(Diagnostic(
                "TRC004", f"{_GROUP_NAME[kind[f]]} instance {gid}: physical "
                f"completion times spread over [{g_lo:.9g}, {g_hi:.9g}]",
                location=s_loc[f]))

    faults = np.flatnonzero(cols.column("etype") == FAULT)
    mids = cols.column("aux_a")[faults]
    bad = ~np.isin(mids, sync.received)
    locs = np.searchsorted(cols.offsets(), faults[bad], side="right") - 1
    for loc, mid in zip(locs.tolist(), mids[bad].tolist()):
        out.append(Diagnostic(
            "TRC009", f"FAULT marker references message {mid} which has no "
            "receive record", location=loc))
    return out


def _region_stack(loc: int, lc, name) -> list:
    """TRC006 findings of one location's ENTER/LEAVE nesting, keyed like
    :func:`_structure`'s per-event findings."""
    et = lc.etype
    sel = np.flatnonzero((et == ENTER) | (et == LEAVE))
    stack: List[int] = []
    found = []
    for i, e, r in zip(sel.tolist(), et[sel].tolist(), lc.region[sel].tolist()):
        if e == ENTER:
            stack.append(r)
        elif not stack:
            found.append(((loc, i, 1), Diagnostic(
                "TRC006", f"LEAVE {name(r)} (event #{i}) with no open ENTER",
                location=loc)))
        else:
            top = stack.pop()
            if top != r:
                found.append(((loc, i, 1), Diagnostic(
                    "TRC006", f"LEAVE {name(r)} (event #{i}) closes "
                    f"ENTER {name(top)}", location=loc)))
    if stack:
        found.append(((loc, len(lc), 0), Diagnostic(
            "TRC006", "ENTER(s) never left: "
            + " > ".join(name(r) for r in stack), location=loc)))
    return found


# ---------------------------------------------------------------------------
# timestamp pass (per mode)
# ---------------------------------------------------------------------------


def check_timestamps(
    tt,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Clock-condition checks on a :class:`TimestampedTrace`.

    Works for physical (``tsc``) and all logical modes; forged or
    corrupted timestamp arrays are reported against the event structure
    of the underlying raw trace: its synchronisation plan's message
    pairs and late edges (TRC003) and groups (TRC004).  ``suppressed`` accumulates
    per-rule counts of findings beyond the per-rule cap.
    """
    cols = tt.trace.columns()
    mode: str = tt.mode
    times = [np.asarray(ts, dtype=np.float64) for ts in tt.times]
    if [len(ts) for ts in times] != [len(lc) for lc in cols.locs]:
        raise ValueError("timestamp arrays do not match the trace's events")
    out: List[Diagnostic] = []

    # per-location monotonicity of the derived timestamps
    for loc, ts in enumerate(times):
        seen = _running_max(ts)
        for i in np.flatnonzero(ts < seen - 1e-12).tolist():
            out.append(Diagnostic(
                "TRC005",
                f"timestamp of event #{i} ({float(ts[i]):.9g}) below its "
                f"predecessor ({float(seen[i]):.9g})",
                location=loc, mode=mode,
            ))

    # send->recv Lamport condition over the plan's pairs (and the edges
    # of receives that precede their send), receives in location order:
    # C(recv) >= C(send) + 1 for logical clocks, strict order only for
    # physical time
    sync = cols.sync_plan()
    flat_t = np.concatenate(times) if times else np.empty(0)
    src = np.where(sync.src >= 0, sync.src, sync.late)
    recv = np.flatnonzero((sync.kind == MPI_RECV) & (src >= 0))
    recv = recv[np.argsort(sync.flat[recv], kind="stable")]
    c_recv = flat_t[sync.flat[recv]]
    c_send = flat_t[sync.flat[src[recv]]]
    bound = c_send + 1.0 - 1e-9 if mode in LOGICAL_MODES else c_send
    bad = c_recv < bound
    for r, c_r, c_s in zip(recv[bad].tolist(), c_recv[bad].tolist(),
                           c_send[bad].tolist()):
        out.append(Diagnostic(
            "TRC003",
            f"message {int(sync.a[r])}: recv timestamp {c_r:.9g} "
            f"does not follow send timestamp {c_s:.9g}",
            location=int(sync.loc[r]), mode=mode,
        ))

    keys, _count, lo, hi = _group_spans(sync, flat_t[sync.flat])
    for f in keys.tolist():
        g_lo, g_hi = float(lo[f]), float(hi[f])
        if _spread(g_lo, g_hi):
            out.append(Diagnostic(
                "TRC004",
                f"{_GROUP_NAME[int(sync.kind[f])]} instance {int(sync.a[f])}: "
                f"group timestamps spread over [{g_lo:.9g}, {g_hi:.9g}] "
                "instead of one group value",
                location=int(sync.loc[f]), mode=mode,
            ))
    return _capped(out, suppressed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def sanitize_trace(
    trace: RawTrace,
    modes: Optional[Sequence[str]] = None,
    counter_seed: int = 0,
) -> SanitizeReport:
    """Run the structural pass plus the timestamp pass for each mode.

    ``modes`` defaults to all six of the paper's clock modes; pass e.g.
    ``("tsc", "lt1")`` to restrict.  ``counter_seed`` feeds the simulated
    hardware-counter noise of ``lthwctr``.
    """
    from repro.clocks import timestamp_trace

    mode_list = tuple(modes) if modes is not None else MODES
    suppressed: Dict[str, int] = {}
    diagnostics = sanitize_raw(trace, suppressed=suppressed)
    structural_errors = has_errors(diagnostics)
    for mode in mode_list:
        if structural_errors:
            # replaying clocks over a structurally broken trace can crash
            # (incomplete groups) or mislead; report structure first
            break
        tt = timestamp_trace(trace, mode, counter_seed=counter_seed)
        diagnostics.extend(check_timestamps(tt, suppressed=suppressed))
    return SanitizeReport(
        trace_mode=trace.mode,
        n_locations=trace.n_locations,
        n_events=trace.n_events,
        modes=mode_list,
        diagnostics=diagnostics,
        suppressed=suppressed,
    )

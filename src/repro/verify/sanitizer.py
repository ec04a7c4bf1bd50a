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

``sanitize_trace`` bundles both passes over any subset of the paper's
six clock modes; ``check_timestamps`` takes an existing
:class:`~repro.clocks.base.TimestampedTrace` so externally supplied (or
forged) timestamp arrays can be audited too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.measure.config import LOGICAL_MODES, MODES
from repro.measure.trace import RawTrace
from repro.sim.events import (
    COLL_END,
    ENTER,
    FAULT,
    FORK,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
)
from repro.verify.diagnostics import Diagnostic, format_diagnostics, has_errors

__all__ = ["SanitizeReport", "StructuralPass", "sanitize_raw",
           "sanitize_stream", "check_timestamps", "sanitize_trace"]

#: tolerance for "equal" physical timestamps within a group
_REL_TOL = 1e-9
#: cap duplicate findings of one rule per pass (keeps reports readable)
_MAX_PER_RULE = 8


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


class _Capped:
    """Collects diagnostics, truncating repeats of the same rule.

    Truncation is never silent: :attr:`suppressed` counts the findings
    dropped beyond the cap, per rule, for the report to surface.
    """

    def __init__(self, limit: int = _MAX_PER_RULE):
        self.out: List[Diagnostic] = []
        self._limit = limit
        self._counts: Dict[str, int] = {}

    def add(self, diag: Diagnostic) -> None:
        n = self._counts.get(diag.rule_id, 0) + 1
        self._counts[diag.rule_id] = n
        if n <= self._limit:
            self.out.append(diag)

    @property
    def suppressed(self) -> Dict[str, int]:
        return {
            rule_id: n - self._limit
            for rule_id, n in sorted(self._counts.items())
            if n > self._limit
        }

    def finish(self) -> List[Diagnostic]:
        return self.out


# ---------------------------------------------------------------------------
# structural pass (mode-independent)
# ---------------------------------------------------------------------------


class StructuralPass:
    """Incremental form of the mode-independent structural checks.

    Feed events one at a time in any order that preserves per-location
    order (per-location walks and global merged order both qualify);
    :meth:`finish` closes every location and runs the cross-location
    checks.  :func:`sanitize_raw` drives it per location over an
    in-memory trace; :func:`sanitize_stream` drives it in merged order
    over a sharded archive, so state stays bounded by open regions and
    in-flight synchronisation groups rather than trace length.
    """

    def __init__(self, regions, n_locations: int):
        self._regions = regions
        self._cap = _Capped()
        self._sends: Dict[int, int] = {}  # match id -> send location
        self._recvs: Dict[int, int] = {}
        self._groups: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
        self._group_size: Dict[Tuple[str, int], int] = {}
        self._forks: Set[int] = set()
        self._restart_groups: Dict[int, List[Tuple[int, float]]] = {}
        self._restart_size: Dict[int, int] = {}
        self._fault_refs: List[Tuple[int, int]] = []  # (loc, match id)
        self._prev_t = [-float("inf")] * n_locations
        self._stack: List[List[int]] = [[] for _ in range(n_locations)]
        self._idx = [0] * n_locations
        self._closed = [False] * n_locations
        self._finished = False

    def _region(self, rid: int) -> str:
        try:
            return self._regions.name(rid)
        except IndexError:
            return f"<region {rid}>"

    def feed(self, loc: int, ev) -> None:
        """Check one event of location ``loc`` (events per location in order)."""
        cap = self._cap
        region = self._region
        i = self._idx[loc]
        self._idx[loc] = i + 1
        prev_t = self._prev_t[loc]
        if ev.t < prev_t - 1e-15:
            cap.add(Diagnostic(
                "TRC001",
                f"event #{i} ({region(ev.region)}) at t={ev.t:.9g} "
                f"after t={prev_t:.9g}",
                location=loc,
            ))
        self._prev_t[loc] = max(prev_t, ev.t)
        et = ev.etype
        stack = self._stack[loc]
        if et == ENTER:
            stack.append(ev.region)
        elif et == LEAVE:
            if not stack:
                cap.add(Diagnostic(
                    "TRC006",
                    f"LEAVE {region(ev.region)} (event #{i}) with no "
                    "open ENTER",
                    location=loc,
                ))
            elif stack[-1] != ev.region:
                cap.add(Diagnostic(
                    "TRC006",
                    f"LEAVE {region(ev.region)} (event #{i}) closes "
                    f"ENTER {region(stack[-1])}",
                    location=loc,
                ))
                stack.pop()
            else:
                stack.pop()
        elif et == MPI_SEND:
            mid = ev.aux[0]
            if mid in self._sends:
                cap.add(Diagnostic(
                    "TRC002",
                    f"duplicate MPI_SEND for match id {mid} (also on "
                    f"location {self._sends[mid]})",
                    location=loc,
                ))
            self._sends[mid] = loc
        elif et == MPI_RECV:
            mid = ev.aux
            if mid in self._recvs:
                cap.add(Diagnostic(
                    "TRC002",
                    f"duplicate MPI_RECV for match id {mid} (also on "
                    f"location {self._recvs[mid]})",
                    location=loc,
                ))
            self._recvs[mid] = loc
        elif et == COLL_END or et == OBAR_LEAVE:
            gid, size = ev.aux
            key = ("coll" if et == COLL_END else "obar", gid)
            self._groups.setdefault(key, []).append((loc, ev.t))
            if self._group_size.setdefault(key, size) != size:
                cap.add(Diagnostic(
                    "TRC007",
                    f"{key[0]} instance {gid}: conflicting group sizes "
                    f"{self._group_size[key]} and {size}",
                    location=loc,
                ))
        elif et == RESTART:
            gid, size = ev.aux
            self._restart_groups.setdefault(gid, []).append((loc, ev.t))
            if self._restart_size.setdefault(gid, size) != size:
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid}: conflicting group sizes "
                    f"{self._restart_size[gid]} and {size}",
                    location=loc,
                ))
        elif et == FAULT:
            self._fault_refs.append((loc, ev.aux))
        elif et == FORK:
            self._forks.add(ev.aux)
        elif et == TEAM_BEGIN:
            if ev.aux not in self._forks:
                cap.add(Diagnostic(
                    "TRC007",
                    f"TEAM_BEGIN for OpenMP construct {ev.aux} without "
                    "a FORK on the master",
                    location=loc,
                ))

    def end_location(self, loc: int) -> None:
        """Close location ``loc``: report ENTERs never left (idempotent)."""
        if self._closed[loc]:
            return
        self._closed[loc] = True
        if self._stack[loc]:
            self._cap.add(Diagnostic(
                "TRC006",
                "ENTER(s) never left: "
                + " > ".join(self._region(r) for r in self._stack[loc]),
                location=loc,
            ))

    def finish(self, suppressed: Optional[Dict[str, int]] = None) -> List[Diagnostic]:
        """Close all locations, run cross-location checks, return findings."""
        if self._finished:
            raise RuntimeError("StructuralPass.finish() called twice")
        self._finished = True
        for loc in range(len(self._closed)):
            self.end_location(loc)
        cap = self._cap
        sends, recvs = self._sends, self._recvs
        groups, group_size = self._groups, self._group_size
        restart_groups, restart_size = self._restart_groups, self._restart_size
        fault_refs = self._fault_refs
        for mid in sorted(set(sends) - set(recvs)):
            cap.add(Diagnostic(
                "TRC002",
                f"MPI_SEND with match id {mid} has no MPI_RECV (dropped "
                "receive record?)",
                location=sends[mid],
            ))
        for mid in sorted(set(recvs) - set(sends)):
            cap.add(Diagnostic(
                "TRC002",
                f"MPI_RECV with match id {mid} has no MPI_SEND (dropped send "
                "record?)",
                location=recvs[mid],
            ))

        for key in sorted(groups):
            kind, gid = key
            members = groups[key]
            size = group_size[key]
            if len(members) != size:
                cap.add(Diagnostic(
                    "TRC007",
                    f"{kind} instance {gid} has {len(members)} member event(s) "
                    f"but group size {size}",
                    location=members[0][0],
                ))
                continue
            ts = [t for (_loc, t) in members]
            lo, hi = min(ts), max(ts)
            if hi - lo > _REL_TOL * max(1.0, abs(hi)):
                cap.add(Diagnostic(
                    "TRC004",
                    f"{kind} instance {gid}: physical completion times spread "
                    f"over [{lo:.9g}, {hi:.9g}]",
                    location=members[0][0],
                ))

        for gid in sorted(restart_groups):
            members = restart_groups[gid]
            size = restart_size[gid]
            if len(members) != size:
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid} has {len(members)} record(s) but "
                    f"{size} rank(s)",
                    location=members[0][0],
                ))
                continue
            ts = [t for (_loc, t) in members]
            lo, hi = min(ts), max(ts)
            if hi - lo > _REL_TOL * max(1.0, abs(hi)):
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid}: resume times spread over "
                    f"[{lo:.9g}, {hi:.9g}] instead of one common time",
                    location=members[0][0],
                ))

        for loc, mid in fault_refs:
            if mid not in recvs:
                cap.add(Diagnostic(
                    "TRC009",
                    f"FAULT marker references message {mid} which has no "
                    "receive record",
                    location=loc,
                ))
        if suppressed is not None:
            for rule_id, n in cap.suppressed.items():
                suppressed[rule_id] = suppressed.get(rule_id, 0) + n
        return cap.finish()


def sanitize_raw(
    trace: RawTrace,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Mode-independent structural checks on a raw trace.

    ``suppressed``, when given, accumulates per-rule counts of findings
    dropped beyond the per-rule cap.
    """
    with obs.span("verify.sanitize", n_events=trace.n_events):
        p = StructuralPass(trace.regions, trace.n_locations)
        for loc, evs in enumerate(trace.events):
            feed = p.feed
            for ev in evs:
                feed(loc, ev)
            p.end_location(loc)
        return p.finish(suppressed)


def sanitize_stream(
    trace_like,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Structural checks over any trace-like object via its ``merged()``
    iterator -- the bounded-memory entry point for sharded archives.

    Accepts anything exposing ``regions``, ``n_locations`` and
    ``merged()`` (:class:`~repro.measure.trace.RawTrace`,
    :class:`~repro.measure.shards.ShardedTrace`).  Findings are identical
    to :func:`sanitize_raw` up to diagnostic order (compare sorted, or
    via :class:`SanitizeReport` fingerprints, when the per-rule cap may
    bite -- the cap keeps the *first* findings seen, and merged order
    interleaves locations).
    """
    with obs.span("verify.sanitize", n_events=trace_like.n_events):
        p = StructuralPass(trace_like.regions, trace_like.n_locations)
        feed = p.feed
        for loc, ev in trace_like.merged():
            feed(loc, ev)
        return p.finish(suppressed)


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
    of the underlying raw trace.  ``suppressed`` accumulates per-rule
    counts of findings beyond the per-rule cap.
    """
    trace: RawTrace = tt.trace
    mode: str = tt.mode
    logical = mode in LOGICAL_MODES
    cap = _Capped()

    # per-location monotonicity of the derived timestamps
    for loc, ts in enumerate(tt.times):
        prev = -float("inf")
        for i in range(len(ts)):
            if ts[i] < prev - 1e-12:
                cap.add(Diagnostic(
                    "TRC005",
                    f"timestamp of event #{i} ({ts[i]:.9g}) below its "
                    f"predecessor ({prev:.9g})",
                    location=loc, mode=mode,
                ))
            prev = max(prev, float(ts[i]))

    # send->recv Lamport condition; sends collected first because the
    # per-location walk does not follow the global causal order
    send_ts: Dict[int, Tuple[int, float]] = {}
    for loc, evs in enumerate(trace.events):
        for i, ev in enumerate(evs):
            if ev.etype == MPI_SEND:
                send_ts[ev.aux[0]] = (loc, float(tt.times[loc][i]))

    groups: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
    for loc, evs in enumerate(trace.events):
        for i, ev in enumerate(evs):
            et = ev.etype
            if et == MPI_RECV:
                hit = send_ts.get(ev.aux)
                if hit is None:
                    continue  # structural pass reports the missing send
                _sloc, c_send = hit
                c_recv = float(tt.times[loc][i])
                # Lamport: C(recv) >= C(send) + 1 for logical clocks;
                # physical time needs strict order only
                bound = c_send + 1.0 - 1e-9 if logical else c_send
                if c_recv < bound:
                    cap.add(Diagnostic(
                        "TRC003",
                        f"message {ev.aux}: recv timestamp {c_recv:.9g} "
                        f"does not follow send timestamp {c_send:.9g}",
                        location=loc, mode=mode,
                    ))
            elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
                kind = ("coll" if et == COLL_END
                        else "obar" if et == OBAR_LEAVE else "restart")
                key = (kind, ev.aux[0])
                groups.setdefault(key, []).append((loc, float(tt.times[loc][i])))

    for key in sorted(groups):
        kind, gid = key
        ts = [t for (_loc, t) in groups[key]]
        lo, hi = min(ts), max(ts)
        if hi - lo > _REL_TOL * max(1.0, abs(hi)):
            cap.add(Diagnostic(
                "TRC004",
                f"{kind} instance {gid}: group timestamps spread over "
                f"[{lo:.9g}, {hi:.9g}] instead of one group value",
                location=groups[key][0][0], mode=mode,
            ))
    if suppressed is not None:
        for rule_id, n in cap.suppressed.items():
            suppressed[rule_id] = suppressed.get(rule_id, 0) + n
    return cap.finish()


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

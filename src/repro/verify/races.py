"""Happened-before race detection over a recorded trace.

A FastTrack-style vector-clock pass over a :class:`~repro.measure.trace.
RawTrace`: every location carries a vector clock, synchronisation events
join them (message matches, collective/barrier groups, fork/team-begin,
restart groups), and two kinds of conflicting accesses are tested for
concurrency:

``RACE001`` *wildcard message races*
    Two messages consumed by the same wildcard receive site (region
    ``MPI_Recv_any`` / ``MPI_Irecv_any``) whose *sends* are concurrent
    under happened-before -- either could have matched first, so the
    recorded order is one noise realization out of several.  The static
    prover (DET001/DET002) predicts these; this pass confirms them in
    the trace and attaches the witness.

``RACE002`` *OpenMP shared-write races*
    ``omp_shared_write_<var>`` region entries (emitted by the engine for
    :attr:`~repro.sim.actions.ParallelFor.shared_writes`) that are
    concurrent on different locations for the same variable.

``RACE003`` (info) marks wildcard receive sites whose candidate sends
are all happened-before-ordered: the wildcard was benign *in this
trace*.

Each diagnostic carries a ``witness``: the two concurrent events with
their vector clocks, plus the receive site that exposes the race.  Like
the sanitizer, the reporter caps diagnostics per rule and counts the
suppressed remainder instead of dropping it silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.clocks.columnar import trace_columns
from repro.sim.events import ENTER, MPI_RECV, MPI_SEND
from repro.verify.diagnostics import Diagnostic
from repro.verify.rules import Severity

__all__ = ["RaceReport", "find_races"]

#: per-rule diagnostic cap (suppressed remainder is counted, not dropped)
_MAX_PER_RULE = 8

#: region-name prefix the engine uses for declared OpenMP shared writes
_SHARED_WRITE_PREFIX = "omp_shared_write_"

#: wildcard receive region names (see Engine._do_recv/_do_irecv)
_ANY_REGIONS = ("MPI_Recv_any", "MPI_Irecv_any")


@dataclass(frozen=True)
class _EvRef:
    """An event pinned by (location, per-location index) with context."""

    loc: int
    index: int
    region: str
    vec: Tuple[int, ...]

    def describe(self, locations) -> str:
        rank, thread = locations[self.loc]
        return (
            f"rank {rank} thread {thread} event #{self.index} "
            f"[{self.region}] vc={list(self.vec)}"
        )


def _concurrent(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    va, vb = np.asarray(a), np.asarray(b)
    return not (
        bool(np.all(va <= vb)) or bool(np.all(vb <= va))
    )


@dataclass
class RaceReport:
    """Result of :func:`find_races` on one trace."""

    n_locations: int
    n_events: int
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: rule id -> diagnostics suppressed beyond the per-rule cap
    suppressed: Dict[str, int] = field(default_factory=dict)
    #: wildcard receive sites seen (region name -> matches consumed)
    wildcard_sites: Dict[str, int] = field(default_factory=dict)

    @property
    def has_races(self) -> bool:
        return any(d.severity == Severity.ERROR for d in self.diagnostics)

    def add(self, diag: Diagnostic) -> None:
        n = sum(1 for d in self.diagnostics if d.rule_id == diag.rule_id)
        if n >= _MAX_PER_RULE:
            self.suppressed[diag.rule_id] = (
                self.suppressed.get(diag.rule_id, 0) + 1
            )
            return
        self.diagnostics.append(diag)

    def format(self) -> str:
        lines = [
            f"race detection: {self.n_events} events on "
            f"{self.n_locations} locations, "
            f"{len(self.diagnostics)} finding(s)"
        ]
        for d in self.diagnostics:
            lines.append(d.format())
        for rule_id in sorted(self.suppressed):
            lines.append(f"[{rule_id}] (+{self.suppressed[rule_id]} more suppressed)")
        return "\n".join(lines)


def find_races(trace) -> RaceReport:
    """Vector-clock happened-before race detection over ``trace``.

    ``trace`` is a ``RawTrace`` or a ``ShardedTrace`` (read whole).  One
    vector clock per location; a location's own component at its event
    ``i`` is ``i + 1``, and the others change only at joins along the
    trace's synchronisation plan: message pairs, fork -> team-begin edges
    and completed groups (collectives, OpenMP barriers, restarts).  So
    only the synchronisation events and the shared-write entries are
    walked, in merged order.  A group joins its members when its last
    member arrives, which is safe because group members share one
    timestamp and every member's *next* event is strictly later.  On a
    malformed trace the detector joins along what matched only.
    """
    with obs.span("verify.races", n_events=trace.n_events):
        cols = trace_columns(trace)
        sync = cols.sync_plan()
        report = RaceReport(
            n_locations=cols.n_locations, n_events=cols.n_events
        )
        n = cols.n_locations
        names = cols.regions.names
        current = [np.zeros(n, dtype=np.int64) for _ in range(n)]

        # shared-write ENTERs and every sync slot, by merged position
        shared = np.array([nm.startswith(_SHARED_WRITE_PREFIX)
                           for nm in names], dtype=bool)
        region = cols.column("region")
        perm, m_loc = cols.merged_order()
        w_pos = np.flatnonzero(((cols.column("etype") == ENTER)
                                & shared[region])[perm])
        writes, w_loc = perm[w_pos], m_loc[w_pos]
        n_sync = len(sync)
        walk = np.argsort(np.concatenate((sync.pos, w_pos)), kind="stable")
        w_loc_l = w_loc.tolist()
        w_idx_l = (writes - cols.offsets()[w_loc]).tolist()
        w_region_l = region[writes].tolist()

        s_loc, s_idx, s_kind, s_src = (x.tolist() for x in (
            sync.loc, sync.idx, sync.kind, sync.src))
        s_region = region[sync.flat].tolist()
        # sends and forks some slot takes its clock from, and the group
        # of every member (closed groups only: open ones never join)
        needed = set(sync.src[sync.src >= 0].tolist())
        sizes = np.diff(sync.starts)[:sync.n_complete]
        group_of = dict(zip(
            sync.members[:sync.starts[sync.n_complete]].tolist(),
            np.repeat(np.arange(sync.n_complete), sizes).tolist()))
        closes = {int(sync.members[sync.starts[g + 1] - 1]): g
                  for g in range(sync.n_complete)}

        #: source slot -> (vector at it, _EvRef of a send)
        sources: Dict[int, Tuple[np.ndarray, Optional[_EvRef]]] = {}
        group_max: Dict[int, np.ndarray] = {}

        #: wildcard receive site (loc, region) -> consumed matches
        any_matches: Dict[Tuple[int, str], List[Tuple[_EvRef, _EvRef]]] = {}
        #: shared variable -> [(write _EvRef)]
        shared_writes: Dict[str, List[_EvRef]] = {}

        for k in walk.tolist():
            if k >= n_sync:
                k -= n_sync
                loc = w_loc_l[k]
                v = current[loc]
                v[loc] = w_idx_l[k] + 1
                name = names[w_region_l[k]]
                shared_writes.setdefault(
                    name[len(_SHARED_WRITE_PREFIX):], []).append(
                    _EvRef(loc, w_idx_l[k], name, tuple(v.tolist())))
                continue
            loc = s_loc[k]
            idx = s_idx[k]
            v = current[loc]
            v[loc] = idx + 1
            et = s_kind[k]
            if k in needed:  # a send or fork some slot pairs with
                ref = (_EvRef(loc, idx, names[s_region[k]], tuple(v.tolist()))
                       if et == MPI_SEND else None)
                sources[k] = (v.copy(), ref)
            src = s_src[k]
            if src >= 0:  # a receive or team begin with its source
                src_v, src_ref = sources.pop(src) if et == MPI_RECV \
                    else sources[src]
                np.maximum(v, src_v, out=v)
                region_name = names[s_region[k]]
                if et == MPI_RECV and region_name in _ANY_REGIONS:
                    any_matches.setdefault((loc, region_name), []).append(
                        (src_ref, _EvRef(loc, idx, region_name,
                                         tuple(v.tolist()))))
            g = group_of.get(k)
            if g is not None:
                gm = group_max.get(g)
                if gm is None:
                    group_max[g] = v.copy()
                else:
                    np.maximum(gm, v, out=gm)
                if k in closes:
                    merged = group_max.pop(g)
                    for slot in sync.group_slots(g).tolist():
                        l2 = s_loc[slot]
                        np.maximum(current[l2], merged, out=current[l2])

        _report(report, cols.locations, any_matches, shared_writes)
        obs.counter(
            "verify.races.checked", has_races=report.has_races,
        ).inc()
        return report


def _report(report: RaceReport, locations, any_matches: dict,
            shared_writes: dict) -> None:
    """Add the RACE findings of the walked accesses to ``report``:
    ``any_matches`` maps each wildcard receive site ``(loc, region)`` to
    its ``(send, receive)`` pairs, ``shared_writes`` each shared variable
    to its writes, all as :class:`_EvRef` with their vector clocks."""
    # RACE001 / RACE003: wildcard message races.  Within one receive
    # site, test successive matches' *send* events for concurrency:
    # concurrent sends mean the matching order was a timing accident.
    for (loc, region), matches in sorted(any_matches.items()):
        report.wildcard_sites[region] = (
            report.wildcard_sites.get(region, 0) + len(matches)
        )
        racy = False
        for i in range(len(matches)):
            for j in range(i + 1, len(matches)):
                s_a, _r_a = matches[i]
                s_b, r_b = matches[j]
                if s_a.loc == s_b.loc:
                    continue  # same sender: program-ordered
                if _concurrent(s_a.vec, s_b.vec):
                    racy = True
                    rank, _ = locations[loc]
                    report.add(Diagnostic(
                        "RACE001",
                        f"wildcard receives at {region} matched "
                        "concurrent sends: the recorded order is one "
                        "noise realization",
                        rank=rank, location=loc,
                        witness=(
                            "send A: " + s_a.describe(locations),
                            "send B: " + s_b.describe(locations),
                            "neither vector clock dominates: "
                            "sends are concurrent",
                            "consumed by: " + r_b.describe(locations),
                        ),
                    ))
        if matches and not racy:
            rank, _ = locations[loc]
            first_send, first_recv = matches[0]
            report.add(Diagnostic(
                "RACE003",
                f"wildcard receive site {region}: all "
                f"{len(matches)} candidate send(s) are "
                "happened-before ordered (benign in this trace)",
                rank=rank, location=loc,
                witness=(
                    "first match: " + first_send.describe(locations)
                    + " -> " + first_recv.describe(locations),
                ),
            ))

    # RACE002: concurrent unsynchronised writes to one shared var.
    for var, writes in sorted(shared_writes.items()):
        reported = 0
        for i in range(len(writes)):
            for j in range(i + 1, len(writes)):
                w_a, w_b = writes[i], writes[j]
                if w_a.loc == w_b.loc:
                    continue
                if _concurrent(w_a.vec, w_b.vec):
                    rank_a, thr_a = locations[w_a.loc]
                    report.add(Diagnostic(
                        "RACE002",
                        f"shared variable {var!r} written "
                        "concurrently by two locations",
                        rank=rank_a, location=w_a.loc,
                        witness=(
                            "write A: " + w_a.describe(locations),
                            "write B: " + w_b.describe(locations),
                            "neither vector clock dominates: "
                            "writes are concurrent",
                        ),
                    ))
                    reported += 1
                    break  # one pair per left-hand write is enough
            if reported >= _MAX_PER_RULE:
                break

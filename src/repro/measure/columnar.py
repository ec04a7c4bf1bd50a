"""Structure-of-arrays (columnar) trace representation.

A :class:`TraceColumns` holds the same information as the event lists of a
:class:`~repro.measure.trace.RawTrace`, but as per-location NumPy arrays:
one array per field (event kind, region, timestamp, work-delta components,
auxiliary payload) instead of one Python object per event.  It is the
form a trace is born in -- :class:`~repro.measure.measurement.Measurement`
records columns, and the npz and shards readers return them -- and the
layout the vectorized clock replay (:mod:`repro.clocks.columnar`), the
wait-state analysis plan (:mod:`repro.analysis.analyzer`) and the bulk
archive I/O (:mod:`repro.measure.io`) operate on.

The ``aux`` payload of :class:`~repro.sim.events.Ev` is kind-specific --
a ``(match_id, rendezvous)`` pair for sends, a match id for receives, a
``(group_id, size)`` pair for collective and barrier completions, an OpenMP
construct id for fork/join/team events, and absent otherwise.  Columnar
storage decomposes it into two integer columns ``aux_a``/``aux_b`` with
``-1`` marking "no payload"; :func:`aux_values` reconstructs the exact
original Python values from the kind table below.

=============  =========  =========
event kind     aux_a      aux_b
=============  =========  =========
MPI_SEND       match id   rendezvous (0/1)
MPI_RECV       match id   --
COLL_END       coll id    group size
FORK/JOIN      omp id     --
TEAM_BEGIN     omp id     --
OBAR_LEAVE     omp id     team size
FAULT          match id   --
RESTART        restart id n_ranks
(all others)   --         --
=============  =========  =========

Conversion (:meth:`TraceColumns.from_fields`, shared by the measurement
and :meth:`TraceColumns.from_raw`) is strict: traces whose ``aux``
payloads do not follow the engine's conventions (possible for hand-built
test traces) raise :class:`ColumnarConversionError`.  Every replay and
analysis runs on columns, so such a trace has no timestamps; the archive
writers refuse it and the JSON-lines reader rejects records that break
the table (:data:`AUX_ARITY`).

The way back to events is one bulk builder, :func:`events_from_columns`,
shared by :meth:`TraceColumns.event_lists` (what
:attr:`RawTrace.events <repro.measure.trace.RawTrace.events>` builds on
demand) and the sharded archive's streaming reader.  It
interns :class:`~repro.sim.kernels.WorkDelta` instances by value
(:class:`DeltaTable`): a trace holds few distinct deltas -- LULESH-2 has
835 distinct values across 113,589 events -- and ``WorkDelta`` is frozen,
so events may share them, as the engine's own events already do.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.events import (
    COLL_END,
    FAULT,
    FORK,
    JOIN,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
    Ev,
    RegionRegistry,
)
from repro.sim.kernels import EMPTY_DELTA, WorkDelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.topology import Pinning
    from repro.measure.trace import RawTrace

__all__ = ["AUX_ARITY", "COLUMN_FIELDS", "ColumnarConversionError", "DeltaTable",
           "LocationColumns", "SyncPlan", "TraceColumns", "aux_values",
           "events_from_columns", "location_counts", "split_columns"]

#: event kinds that participate in clock synchronisation (send/fork are
#: producers, the rest consumers); everything else only accumulates work
SYNC_KINDS = (MPI_SEND, MPI_RECV, COLL_END, FORK, TEAM_BEGIN, OBAR_LEAVE, RESTART)

_PAIR_AUX = (MPI_SEND, COLL_END, OBAR_LEAVE, RESTART)
_SCALAR_AUX = (MPI_RECV, FORK, JOIN, TEAM_BEGIN, FAULT)

#: the kind table as payload arity: 2 for an int pair, 1 for one int;
#: kinds not listed carry no payload
AUX_ARITY = {**dict.fromkeys(_PAIR_AUX, 2), **dict.fromkeys(_SCALAR_AUX, 1)}

_DELTA_FIELDS = ("omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")
_delta_values = attrgetter(*_DELTA_FIELDS)

#: every column, in ``LocationColumns`` slot order; the integer ones
#: hold event kind, region and aux payload, the rest are float64
COLUMN_FIELDS = ("etype", "region", "t", "t_enter", "aux_a", "aux_b") + _DELTA_FIELDS
_INT_FIELDS = ("etype", "region", "aux_a", "aux_b")

_INT_TYPES = (int, np.integer)


class ColumnarConversionError(ValueError):
    """A trace's events do not follow the engine's payload conventions."""


class LocationColumns:
    """The event columns of one location (all arrays share one length)."""

    __slots__ = COLUMN_FIELDS

    def __init__(self, **arrays):
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    def __len__(self) -> int:
        return len(self.etype)


class DeltaTable(dict):
    """``WorkDelta`` instances interned by value (the six fields in order)."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> WorkDelta:
        delta = self[key] = WorkDelta(*key)
        return delta


def _require_ints(values: list, what: str, kinds) -> None:
    """Every value an integer (``int`` or NumPy integer), else raise."""
    if all(issubclass(tp, _INT_TYPES) for tp in set(map(type, values))):
        return
    bad = next(v for v in values if not isinstance(v, _INT_TYPES))
    raise ColumnarConversionError(f"non-integer {what} {bad!r} on event kind "
                                  f"in {sorted(kinds)}")


def _aux_columns(etype: np.ndarray, aux: list) -> Tuple[np.ndarray, np.ndarray]:
    """Split per-event ``aux`` payloads into the two integer columns."""
    aux_a = np.full(len(aux), -1, dtype=np.int64)
    aux_b = np.full(len(aux), -1, dtype=np.int64)
    pair = np.flatnonzero(np.isin(etype, _PAIR_AUX))
    if len(pair):
        pairs = [aux[i] for i in pair.tolist()]
        first = [a for a, _b in pairs]
        second = [b for _a, b in pairs]
        _require_ints(first + second, "aux pair member", _PAIR_AUX)
        aux_a[pair] = first
        aux_b[pair] = second
    scalar = np.flatnonzero(np.isin(etype, _SCALAR_AUX))
    if len(scalar):
        values = [aux[i] for i in scalar.tolist()]
        _require_ints(values, "aux", _SCALAR_AUX)
        aux_a[scalar] = values
    # the checks above reject None, so payload-free kinds own every None
    if list(map(type, aux)).count(type(None)) != len(aux) - len(pair) - len(scalar):
        rest = np.flatnonzero(~np.isin(etype, _PAIR_AUX + _SCALAR_AUX)).tolist()
        i = next(i for i in rest if aux[i] is not None)
        raise ColumnarConversionError(
            f"unexpected aux payload {aux[i]!r} on event kind {int(etype[i])}")
    return aux_a, aux_b


def _delta_columns(deltas: list) -> List[np.ndarray]:
    """The six work-delta columns of per-event ``WorkDelta`` objects."""
    ids = list(map(id, deltas))
    distinct = dict(zip(ids, deltas))
    row_of = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(map(row_of.__getitem__, ids), dtype=np.int64,
                       count=len(ids))
    # falsy fields (zeros, including -0.0) are stored as 0.0; one flat
    # list, so no per-delta container reaches the cyclic collector
    table = np.array([v if v else 0.0 for d in distinct.values()
                      for v in _delta_values(d)],
                     dtype=np.float64).reshape(-1, len(_DELTA_FIELDS))
    return [table[:, j][rows] for j in range(len(_DELTA_FIELDS))]


def aux_values(etype: np.ndarray, aux_a: np.ndarray, aux_b: np.ndarray) -> list:
    """Per-event Python ``aux`` payloads rebuilt from the integer columns."""
    aux = [None] * len(etype)
    pair = np.flatnonzero(np.isin(etype, _PAIR_AUX))
    for i, v in zip(pair.tolist(),
                    zip(aux_a[pair].tolist(), aux_b[pair].tolist())):
        aux[i] = v
    scalar = np.flatnonzero(np.isin(etype, _SCALAR_AUX))
    for i, v in zip(scalar.tolist(), aux_a[scalar].tolist()):
        aux[i] = v
    return aux


def events_from_columns(columns: Mapping[str, np.ndarray],
                        deltas: DeltaTable) -> List[Ev]:
    """One :class:`Ev` per row of ``columns`` (the bulk event builder).

    ``columns`` maps every name of :data:`COLUMN_FIELDS` to a 1-D array
    (a NumPy structured array qualifies).  Work deltas are interned in
    ``deltas``; rows whose six delta fields are all zero share
    :data:`~repro.sim.kernels.EMPTY_DELTA`.
    """
    etype = columns["etype"]
    n = len(etype)
    dcols = [columns[f] for f in _DELTA_FIELDS]
    nonzero = np.flatnonzero(np.logical_or.reduce([d != 0 for d in dcols]))
    delta_l = [EMPTY_DELTA] * n
    keys = zip(*(d[nonzero].tolist() for d in dcols))
    for i, d in zip(nonzero.tolist(), map(deltas.__getitem__, keys)):
        delta_l[i] = d
    return list(map(Ev, etype.tolist(), columns["region"].tolist(),
                    columns["t"].tolist(), delta_l,
                    aux_values(etype, columns["aux_a"], columns["aux_b"]),
                    columns["t_enter"].tolist()))


def split_columns(path, columns: Mapping[str, np.ndarray], n_locations: int,
                  offsets=None, loc=None) -> List[LocationColumns]:
    """Validated per-location views of flat archive columns.

    Rows are either location-major with ``offsets`` (the npz layout) or
    in any order that keeps each location's own order, tagged by ``loc``
    (the shard layout).  Raises :class:`~repro.measure.io.TraceFormatError`
    naming the member whose offsets, length, dtype or location ids do not
    describe a trace of ``n_locations`` locations.
    """
    from repro.measure.io import TraceFormatError

    cols = {}
    n = None
    for f in COLUMN_FIELDS:
        arr = columns[f]
        want = "iu" if f in _INT_FIELDS else "f"
        if arr.ndim != 1 or arr.dtype.kind not in want:
            raise TraceFormatError(
                path, f"column {f} has dtype {arr.dtype} and shape "
                f"{arr.shape}, expected a 1-D "
                f"{'integer' if f in _INT_FIELDS else 'float'} column",
                offset=f)
        if n is None:
            n = len(arr)
        elif len(arr) != n:
            raise TraceFormatError(
                path, f"column {f} has {len(arr)} rows, column etype {n}",
                offset=f)
        cols[f] = arr.astype(np.int64 if f in _INT_FIELDS else np.float64,
                             copy=False)
    if loc is not None:
        counts = location_counts(path, loc, n_locations, "loc")
        order = np.argsort(loc, kind="stable")
        cols = {f: a[order] for f, a in cols.items()}
        offsets = np.concatenate(([0], np.cumsum(counts)))
    offsets = np.asarray(offsets)
    if (offsets.ndim != 1 or offsets.dtype.kind not in "iu"
            or len(offsets) != n_locations + 1 or offsets[0] != 0
            or offsets[-1] != n or np.any(np.diff(offsets) < 0)):
        raise TraceFormatError(
            path, f"offsets {offsets.tolist()[:8]}... do not split {n} rows "
            f"into {n_locations} locations", offset="offsets")
    return _location_views(cols, offsets.tolist())


def _location_views(flat: Mapping[str, np.ndarray],
                    bounds: List[int]) -> List[LocationColumns]:
    """Per-location views of location-major columns split at ``bounds``."""
    return [LocationColumns(**{f: a[lo:hi] for f, a in flat.items()})
            for lo, hi in zip(bounds, bounds[1:])]


def location_counts(path, loc: np.ndarray, n_locations: int,
                    member: str) -> np.ndarray:
    """Rows per location of a ``loc`` column (``TraceFormatError`` if any
    id lies outside ``[0, n_locations)``)."""
    from repro.measure.io import TraceFormatError

    if len(loc) and (int(loc.min()) < 0 or int(loc.max()) >= n_locations):
        bad = int(loc.min()) if int(loc.min()) < 0 else int(loc.max())
        raise TraceFormatError(
            path, f"location id {bad} outside the {n_locations} locations",
            offset=member)
    return np.bincount(loc, minlength=n_locations)


class TraceColumns:
    """Columnar view of a whole trace (the SoA analogue of ``RawTrace``).

    Attributes mirror :class:`~repro.measure.trace.RawTrace`; ``locs[l]``
    is the :class:`LocationColumns` of location ``l``.  Treated as
    immutable: it memoizes the merged order, the synchronisation plan
    (:meth:`sync_plan`), the compiled replay plan and the compiled
    analysis plan, each shared by all clock modes.  A column-backed ``RawTrace`` owns one and drops
    it -- plans included -- when a caller first takes its event lists (see
    :attr:`RawTrace.events <repro.measure.trace.RawTrace.events>`), so
    edits to those lists reach the next conversion.  A trace built from
    events converts on first use and memoizes the result: a snapshot that
    later edits to its lists do not reach.
    """

    def __init__(
        self,
        mode: str,
        regions: RegionRegistry,
        locations: List[Tuple[int, int]],
        locs: List[LocationColumns],
        runtime: float = 0.0,
        pinning: Optional["Pinning"] = None,
    ):
        if len(locations) != len(locs):
            raise ValueError(
                f"{len(locations)} locations but {len(locs)} column sets"
            )
        self.mode = mode
        self.regions = regions
        self.locations = locations
        self.locs = locs
        self.runtime = runtime
        self.pinning = pinning
        self._order = None
        self._sync_plan = None
        self._replay_plan = None  # compiled by repro.clocks.columnar
        self._analysis_plan = None  # compiled by repro.analysis.analyzer

    # -- construction ----------------------------------------------------
    @classmethod
    def from_fields(cls, mode: str, regions: RegionRegistry,
                    locations: List[Tuple[int, int]], counts: List[int],
                    etype, region, t, delta, aux, t_enter,
                    runtime: float = 0.0,
                    pinning: Optional["Pinning"] = None) -> "TraceColumns":
        """Columns of per-event field sequences (the one field conversion).

        The six sequences list every event location-major, ``counts[l]``
        of them on location ``l``, in :class:`~repro.sim.events.Ev`
        argument order: kind, region, timestamp, ``WorkDelta``, ``aux``
        payload and enter time.  Falsy delta fields are stored as 0.0;
        payloads that do not follow the engine's conventions, and integers
        outside int64, raise :class:`ColumnarConversionError`.
        """
        try:
            etype = np.array(etype, dtype=np.int64)
            flat = {
                "etype": etype,
                "region": np.array(region, dtype=np.int64),
                "t": np.array(t, dtype=np.float64),
                "t_enter": np.array(t_enter, dtype=np.float64),
            }
            flat["aux_a"], flat["aux_b"] = _aux_columns(etype, aux)
            flat.update(zip(_DELTA_FIELDS, _delta_columns(delta)))
        except ColumnarConversionError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ColumnarConversionError(
                f"event payload not columnar-convertible: {exc}"
            ) from exc
        bounds = np.cumsum([0] + list(counts)).tolist()
        return cls(mode, regions, list(locations),
                   _location_views(flat, bounds), runtime, pinning)

    @classmethod
    def from_raw(cls, trace: "RawTrace") -> "TraceColumns":
        """The columns of ``trace``: its own while it is column-backed,
        else a fresh conversion of its event lists (see
        :meth:`from_fields`)."""
        if trace.column_backed:
            return trace.columns()
        evs = list(chain.from_iterable(trace.events))
        return cls.from_fields(
            trace.mode, trace.regions, trace.locations,
            [len(e) for e in trace.events],
            [ev.etype for ev in evs], [ev.region for ev in evs],
            [ev.t for ev in evs], [ev.delta for ev in evs],
            [ev.aux for ev in evs], [ev.t_enter for ev in evs],
            runtime=trace.runtime, pinning=trace.pinning)

    def event_lists(self) -> List[List[Ev]]:
        """Fresh per-location ``Ev`` lists of these rows (built in bulk by
        :func:`events_from_columns`)."""
        evs = events_from_columns(
            {f: self.column(f) for f in COLUMN_FIELDS}, DeltaTable())
        bounds = self.offsets().tolist()
        return [evs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    # -- queries ---------------------------------------------------------
    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_events(self) -> int:
        return sum(len(lc) for lc in self.locs)

    def column(self, field: str) -> np.ndarray:
        """One field over all locations, concatenated location-major."""
        parts = [getattr(lc, field) for lc in self.locs]
        if parts:
            return np.concatenate(parts)
        return np.empty(0, dtype=np.int64 if field in _INT_FIELDS else np.float64)

    def offsets(self) -> np.ndarray:
        """Start of every location's rows in :meth:`column` (plus the end)."""
        return np.cumsum([0] + [len(lc) for lc in self.locs])

    def merged_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(perm, loc)`` arrays of the global merged order (memoized;
        see :func:`repro.measure.trace.merged_order`)."""
        if self._order is None:
            from repro.measure.trace import merged_order

            self._order = merged_order([lc.t for lc in self.locs])
        return self._order

    def sync_plan(self) -> "SyncPlan":
        """The trace's :class:`SyncPlan` (built once, mode-independent;
        dropped with these columns like the replay and analysis plans)."""
        if self._sync_plan is None:
            from repro import obs

            with obs.span("sync.plan_compile", events=self.n_events):
                self._sync_plan = SyncPlan(self)
            obs.counter("sync.plan_compiles").inc()
        return self._sync_plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceColumns(mode={self.mode!r}, locations={self.n_locations}, "
            f"events={self.n_events}, runtime={self.runtime:.4g}s)"
        )


#: synchronisation kinds whose arrivals form groups, keyed by kind and id
GROUP_KINDS = (COLL_END, OBAR_LEAVE, RESTART)


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where a new run of equal ``keys`` tuples begins (keys sorted)."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


class SyncPlan:
    """The happened-before skeleton of a trace: who syncs with whom.

    Decided once per trace (:meth:`TraceColumns.sync_plan`) and read by
    every consumer -- the clock replay plan, the wait-state analysis, the
    causal DAG, the sanitizer and the race detector -- so the trace's
    matching lives here only.  Its *slots* are the synchronisation events
    (:data:`SYNC_KINDS`) in global merged order; per slot ``s`` the
    integer arrays ``loc``, ``idx`` (index on the location), ``flat``
    (row of the location-major :meth:`TraceColumns.column` layout, so
    sorting by ``flat`` is *location order*), ``kind``, ``a``/``b`` (the
    payload columns) and ``pos`` (position in the merged order) describe
    the event.

    ``src[s]`` is the slot that gives ``s`` its clock, or -1 when no such
    slot comes earlier in merged order: for a receive, the latest earlier
    send of its match id that no receive has taken yet; for a team begin,
    the latest earlier fork of its construct.

    Groups are ``COLL_END``, ``OBAR_LEAVE`` and ``RESTART`` arrivals keyed
    by kind and id; a group closes at the arrival that brings its member
    count up to that arrival's size claim.  ``members[starts[g]:starts[g +
    1]]`` are group ``g``'s slots in arrival order; the first
    ``n_complete`` groups closed, in completion order, the rest were still
    open at the end of the trace, in order of their first arrival.

    Defects are data, not exceptions.  Besides the open groups:

    * ``unsourced`` -- receives and team begins with ``src == -1``, in
      merged order;
    * ``late[s]`` -- for an unsourced receive, the unreceived send of its
      match id that comes later in merged order, else -1: the edge a
      trace whose physical clocks contradict its messages still claims;
    * ``unreceived`` -- sends still unpaired at the end of the trace (a
      send whose match id a later send reuses before a receive takes it
      is a duplicate instead);
    * ``received`` -- the sorted match ids that receives carry;

    and, in location order (computed on first use, for the sanitizer),
    :attr:`dup`, :attr:`first` and :attr:`unforked`.
    """

    def __init__(self, cols: TraceColumns):
        perm, mloc = cols.merged_order()
        etype = cols.column("etype")[perm]
        self.pos = pos = np.flatnonzero(np.isin(etype, SYNC_KINDS))
        self.flat = flat = perm[pos]
        self.loc = loc = mloc[pos]
        self.idx = flat - cols.offsets()[loc]
        self.kind = kind = etype[pos]
        self.a = a = cols.column("aux_a")[flat]
        self.b = cols.column("aux_b")[flat]

        # the one merged-order walk: pair, fork and group
        src = [-1] * len(pos)
        ids = a.tolist()
        sends, forks, open_groups, done = {}, {}, {}, []
        for s, (et, x, size) in enumerate(zip(kind.tolist(), ids,
                                              self.b.tolist())):
            if et == MPI_SEND:
                sends[x] = s
            elif et == MPI_RECV:
                src[s] = sends.pop(x, -1)
            elif et == FORK:
                forks[x] = s
            elif et == TEAM_BEGIN:
                src[s] = forks.get(x, -1)
            else:  # a group arrival
                key = (et, x)
                grp = open_groups.get(key)
                if grp is None:
                    grp = open_groups[key] = []
                grp.append(s)
                if len(grp) >= size:
                    done.append(grp)
                    del open_groups[key]
        self.src = np.array(src, dtype=np.int64)
        groups = done + list(open_groups.values())
        self.n_complete = len(done)
        self.starts = np.cumsum([0] + [len(g) for g in groups], dtype=np.int64)
        self.members = np.fromiter(chain.from_iterable(groups), dtype=np.int64,
                                   count=int(self.starts[-1]))
        self.unsourced = np.flatnonzero(
            ((kind == MPI_RECV) | (kind == TEAM_BEGIN)) & (self.src < 0))
        self.late = np.full(len(pos), -1, dtype=np.int64)
        for s in self.unsourced.tolist():
            if kind[s] == MPI_RECV:
                self.late[s] = sends.get(ids[s], -1)
        self.unreceived = np.array(sorted(sends.values()), dtype=np.int64)
        self.received = np.unique(a[kind == MPI_RECV])

    def __len__(self) -> int:
        return len(self.pos)

    def group_slots(self, g: int) -> np.ndarray:
        """The member slots of group ``g``, in arrival order."""
        return self.members[self.starts[g]:self.starts[g + 1]]

    @cached_property
    def dup(self) -> np.ndarray:
        """Per slot: for a send or receive, the previous one of its kind
        with its match id in location order, else -1."""
        dup = np.full(len(self), -1, dtype=np.int64)
        for k in (MPI_SEND, MPI_RECV):
            sel = np.flatnonzero(self.kind == k)
            o = sel[np.lexsort((self.flat[sel], self.a[sel]))]
            same = ~_run_starts(self.a[o])[1:]
            dup[o[1:][same]] = o[:-1][same]
        return dup

    @cached_property
    def first(self) -> np.ndarray:
        """Per slot: for a group member, the member of its kind and id
        that comes first in location order -- its size claim is the
        group's, and a member claiming another size is a conflict --
        else -1."""
        kind, a = self.kind, self.a
        sel = np.flatnonzero(np.isin(kind, GROUP_KINDS))
        o = sel[np.lexsort((self.flat[sel], a[sel], kind[sel]))]
        new = _run_starts(kind[o], a[o])
        first = np.full(len(self), -1, dtype=np.int64)
        first[o] = o[new][np.cumsum(new) - 1]
        return first

    @cached_property
    def unforked(self) -> np.ndarray:
        """Team begins with no fork of their construct earlier in
        location order."""
        kind, a, flat = self.kind, self.a, self.flat
        sel = np.flatnonzero(kind == FORK)
        o = sel[np.lexsort((flat[sel], a[sel]))]
        o = o[_run_starts(a[o])]  # each construct's first fork
        teams = np.flatnonzero(kind == TEAM_BEGIN)
        j = np.searchsorted(a[o], a[teams])
        forked = j < len(o)
        j = j[forked]
        forked[forked] = (a[o][j] == a[teams][forked]) \
            & (flat[o][j] < flat[teams][forked])
        return teams[~forked]

"""The raw trace: per-location event sequences plus definitions.

A :class:`RawTrace` is what one instrumented run produces -- the analogue
of an OTF2 archive.  It stores *physical* timestamps and work deltas; the
clock modules (:mod:`repro.clocks`) derive the mode's final timestamps
from it, and the analyzer (:mod:`repro.analysis`) replays it.

A trace holds its events in one of two forms, never both as sources of
truth: *column-backed* (a :class:`~repro.measure.columnar.TraceColumns`;
what the measurement, every archive reader and ingestion produce) or
*event-backed* (per-location ``Ev`` lists; hand-built traces and any
trace whose :attr:`RawTrace.events` was taken).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.topology import Pinning
from repro.sim.events import Ev, RegionRegistry

__all__ = ["RawTrace", "merged_order"]


def merged_order(t_by_location: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The global merged order of per-location timestamp sequences.

    Returns ``(perm, loc)``: ``perm[k]`` is the position of the ``k``-th
    merged event in the location-major concatenation of the sequences,
    ``loc[k]`` its location.  Events are sorted by three keys: the
    running maximum of ``t`` on the event's location, then the location,
    then the index within it.  That is exactly the order of a heap merge
    keyed ``(t, loc)`` that holds one head per location (the historical
    :meth:`RawTrace.merged`): an event whose timestamp is below an
    earlier one on its location enters the heap as its smallest key and
    leaves it right behind its predecessor, i.e. it sorts as if it
    carried the running maximum.  One stable argsort of the running
    maxima does the rest, since the concatenation is already ordered by
    location and index.
    """
    counts = [len(t) for t in t_by_location]
    if not sum(counts):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys = np.concatenate([np.maximum.accumulate(np.asarray(t, dtype=np.float64))
                           for t in t_by_location])
    perm = np.argsort(keys, kind="stable")
    loc = np.repeat(np.arange(len(counts), dtype=np.int64), counts)[perm]
    return perm, loc


class RawTrace:
    """Trace of one instrumented run.

    Attributes
    ----------
    mode:
        Measurement mode the run was taken with.
    regions:
        Region-name registry shared by all events.
    locations:
        ``[(rank, thread), ...]`` indexed by location id.
    events:
        ``events[loc]`` is the time-ordered event list of that location
        (built on first access for a column-backed trace).
    runtime:
        Total wall runtime of the run (physical virtual-seconds).
    """

    def __init__(
        self,
        mode: str,
        regions: RegionRegistry,
        locations: List[Tuple[int, int]],
        events: List[List[Ev]],
        runtime: float = 0.0,
        pinning: Optional[Pinning] = None,
    ):
        if len(locations) != len(events):
            raise ValueError(
                f"{len(locations)} locations but {len(events)} event lists"
            )
        self.mode = mode
        self.regions = regions
        self.locations = locations
        self._events: Optional[List[List[Ev]]] = events
        self.runtime = runtime
        self.pinning = pinning
        #: provenance manifest read back from an archive (see
        #: :mod:`repro.obs.provenance`), ``None`` for in-memory traces
        self.provenance: Optional[dict] = None
        self._loc_index: Dict[Tuple[int, int], int] = {
            lt: i for i, lt in enumerate(locations)
        }
        self._columns = None
        self._order = None

    @classmethod
    def from_columns(cls, cols) -> "RawTrace":
        """A column-backed trace over ``cols`` (a
        :class:`~repro.measure.columnar.TraceColumns`, which it owns)."""
        trace = cls(cols.mode, cols.regions, list(cols.locations),
                    [[] for _ in cols.locations], cols.runtime, cols.pinning)
        trace._events = None
        trace._columns = cols
        return trace

    @property
    def events(self) -> List[List[Ev]]:
        """Per location, the time-ordered ``Ev`` list.

        A column-backed trace builds the lists on first access and from
        then on is event-backed: it drops its columns and merged order, so
        a later :meth:`columns` or :meth:`merged_order` converts the lists
        -- including any edit made to them -- afresh.
        """
        if self._events is None:
            self._events = self._columns.event_lists()
            self._columns = self._order = None
        return self._events

    @property
    def column_backed(self) -> bool:
        """True while the columns are the trace's source of truth, i.e.
        until a caller takes :attr:`events`."""
        return self._events is None

    # -- queries ---------------------------------------------------------
    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_events(self) -> int:
        if self._events is None:
            return self._columns.n_events
        return sum(len(e) for e in self._events)

    @property
    def n_ranks(self) -> int:
        return len({r for (r, _t) in self.locations})

    def loc_id(self, rank: int, thread: int) -> int:
        return self._loc_index[(rank, thread)]

    def threads_of(self, rank: int) -> List[int]:
        return sorted(t for (r, t) in self.locations if r == rank)

    def master_locations(self) -> List[int]:
        """Location ids of the master thread of every rank."""
        return [self._loc_index[(r, 0)] for r in sorted({r for (r, _t) in self.locations})]

    def columns(self):
        """Columnar (structure-of-arrays) view of this trace.

        A column-backed trace returns its own columns.  An event-backed
        one converts its lists on the first call and memoizes the result,
        a snapshot that later edits to the lists do not reach.  Used by
        the vectorized clock replay, the analyzer and the bulk archive
        writers.  Raises
        :class:`repro.measure.columnar.ColumnarConversionError` for traces
        whose event payloads do not follow the engine's conventions.
        """
        if self._columns is None:
            from repro.measure.columnar import TraceColumns

            self._columns = TraceColumns.from_raw(self)
        return self._columns

    def merged_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(perm, loc)`` arrays of :func:`merged_order`, built once.

        Memoized like :meth:`columns`: on an event-backed trace, editing
        timestamps or event lists after the first call is not reflected.
        """
        if self._order is None:
            if self._columns is not None:
                self._order = self._columns.merged_order()
            else:
                self._order = merged_order(
                    [[ev.t for ev in evs] for evs in self.events])
        return self._order

    def merged(self) -> Iterator[Tuple[int, Ev]]:
        """All events in a global order consistent with happens-before.

        Per-location order is preserved; across locations, events are
        merged by physical timestamp (ties broken by location id; see
        :func:`merged_order` for timestamps that step backwards).  In
        this simulator physical timestamps respect causality, so the
        merged order is a valid topological order of the event DAG -- the
        property the logical-clock replay relies on.
        """
        flat = list(chain.from_iterable(self.events))
        perm, loc = self.merged_order()
        return zip(loc.tolist(), map(flat.__getitem__, perm.tolist()))

    def validate(self) -> None:
        """Check per-location monotonicity and matching consistency.

        Runs the full structural pass of the trace sanitizer
        (:func:`repro.verify.sanitize_raw`): per-location monotonicity,
        ENTER/LEAVE stack discipline, send/recv match-id integrity and
        collective-epoch consistency.  Raises ``AssertionError`` on the
        first rule violation (preserving the historical contract of this
        method); use :func:`repro.verify.sanitize_trace` directly for a
        structured report instead of an exception.
        """
        from repro.verify.diagnostics import format_diagnostics, has_errors
        from repro.verify.sanitizer import sanitize_raw

        diagnostics = sanitize_raw(self)
        if has_errors(diagnostics):
            raise AssertionError(format_diagnostics(
                diagnostics, header="trace failed validation:"
            ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawTrace(mode={self.mode!r}, locations={self.n_locations}, "
            f"events={self.n_events}, runtime={self.runtime:.4g}s)"
        )

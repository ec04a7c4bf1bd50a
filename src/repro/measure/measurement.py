"""The measurement object: event sink + perturbation source for the engine."""

from __future__ import annotations

from itertools import chain
from typing import Callable, List, Optional, Tuple

from repro.measure.config import validate_mode
from repro.measure.filtering import FilterRules
from repro.measure.overhead import OverheadModel
from repro.measure.trace import RawTrace
from repro.sim.events import Ev
from repro.sim.kernels import WorkDelta

__all__ = ["Measurement"]

#: fields per recorded event: etype, region, t, delta, aux, t_enter
RECORD_WIDTH = 6


class Measurement:
    """Collects trace events for one run and models instrumentation cost.

    One instance serves exactly one engine run (mirroring one Score-P
    experiment directory).  Construct a fresh instance per run.

    Events are recorded as fields, never as :class:`~repro.sim.events.Ev`
    objects: every location owns one buffer, a flat list holding each
    event's kind, region, timestamp, work delta, aux payload and enter
    time back to back (:data:`RECORD_WIDTH` entries in ``Ev`` argument
    order).  The engine's emission sites append to it through
    :meth:`sinks`, the only way in.  :meth:`finish` converts the buffers
    into the :class:`~repro.measure.columnar.TraceColumns` of a
    column-backed :class:`RawTrace` and releases them.
    """

    def __init__(
        self,
        mode: str,
        overhead: Optional[OverheadModel] = None,
        filter_rules: Optional[FilterRules] = None,
        sanitize: bool = False,
    ):
        self.mode = validate_mode(mode)
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.filter_rules = filter_rules if filter_rules is not None else FilterRules()
        #: per location: the fields of its events, RECORD_WIDTH per event
        self._buffers: List[list] = []
        self._locations: List[Tuple[int, int]] = []
        self._engine = None
        self._footprint = 0.0
        self._finished = False
        self._sanitize = sanitize
        self._sanitizer = None

    def enable_sanitize(self) -> None:
        """Opt in to online invariant checking (before the engine run)."""
        if self._engine is not None:
            raise RuntimeError("enable_sanitize() must precede begin()")
        self._sanitize = True

    # -- engine hookup ----------------------------------------------------
    def begin(self, engine) -> None:
        """Called by the engine before the run starts."""
        if self._engine is not None:
            raise RuntimeError("a Measurement instance serves exactly one run")
        self._engine = engine
        pinning = engine.pinning
        locs: List[Tuple[int, int]] = list(pinning.locations())
        self._locations = locs
        self._buffers = [[] for _ in locs]
        sockets = {}
        for (r, t) in locs:
            sid = pinning.core_of(r, t).socket_id
            sockets[sid] = sockets.get(sid, 0) + 1
        per_socket = (len(locs) / len(sockets)) if sockets else 0.0
        self._footprint = self.overhead.footprint(self.mode, per_socket)
        if self._sanitize:
            from repro.verify.online import OnlineSanitizer

            self._sanitizer = OnlineSanitizer(region_names=engine.regions.name)

    def rebind(self, engine) -> None:
        """Attach a restart-attempt engine, keeping recorded events.

        Used by :mod:`repro.sim.recovery`: after a simulated crash the
        next attempt runs on a *fresh* engine (clean scheduler state) but
        must append to the trace prefix this measurement already holds.
        The online sanitizer is per-run state and cannot span attempts.
        """
        if self._engine is None:
            raise RuntimeError("rebind() before begin()")
        if self._finished:
            raise RuntimeError("rebind() after finish()")
        if self._sanitize:
            raise RuntimeError(
                "online sanitize cannot span restart attempts; "
                "run the offline sanitizer on the finished trace instead"
            )
        self._engine = engine

    def sinks(self) -> List[Callable[[tuple], None]]:
        """Per location, the callable that records its events.

        Emission sites pass it one event's fields as a tuple, ``(etype,
        region, t, delta, aux, t_enter)``, or several events' fields back
        to back.  Without an online sanitizer it is the buffer's
        ``extend``; with one, it first shows the sanitizer every event of
        the tuple, in order, and then appends them.
        """
        if self._sanitizer is None:
            return [buf.extend for buf in self._buffers]
        observe = self._sanitizer.observe

        def observed(loc: int, extend):
            def sink(fields: tuple) -> None:
                for j in range(0, len(fields), RECORD_WIDTH):
                    observe(loc, Ev(*fields[j:j + RECORD_WIDTH]))
                extend(fields)
            return sink

        return [observed(loc, buf.extend) for loc, buf in enumerate(self._buffers)]

    def mark(self) -> List[int]:
        """Snapshot of per-location event counts (a checkpoint mark)."""
        return [len(buf) // RECORD_WIDTH for buf in self._buffers]

    def rewind(self, mark: Optional[List[int]]) -> None:
        """Drop every event recorded after ``mark`` (``None`` = drop all)."""
        if self._finished:
            raise RuntimeError("rewind() after finish()")
        if mark is None:
            mark = [0] * len(self._buffers)
        if len(mark) != len(self._buffers):
            raise ValueError(
                f"mark covers {len(mark)} locations, trace has {len(self._buffers)}"
            )
        for buf, n in zip(self._buffers, mark):
            del buf[n * RECORD_WIDTH:]

    def finish(self, runtime: float) -> RawTrace:
        """Build the RawTrace at the end of the run."""
        if self._engine is None:
            raise RuntimeError("finish() before begin()")
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        if self._sanitizer is not None:
            self._sanitizer.final_check()
        trace = RawTrace.from_columns(self._drain_columns(runtime))
        if self._sanitize:
            # Sanitized runs also get the happened-before race check:
            # wildcard message races and OpenMP shared-write races void
            # the bit-identity the sanitizer exists to protect.
            from repro.verify.online import TraceInvariantError
            from repro.verify.races import find_races

            report = find_races(trace)
            if report.has_races:
                raise TraceInvariantError([
                    d for d in report.diagnostics if d.severity == "error"
                ])
        return trace

    def _drain_columns(self, runtime: float):
        """The buffers as :class:`TraceColumns`, leaving them empty.

        Emptied in place: the engine and its fast path hold the buffers'
        ``extend`` methods in a reference cycle with this object, which
        would keep the recorded fields alive until the next cyclic
        collection.
        """
        from repro.measure.columnar import TraceColumns

        counts = self.mark()
        flat = list(chain.from_iterable(self._buffers))
        for buf in self._buffers:
            buf.clear()
        return TraceColumns.from_fields(
            self.mode, self._engine.regions, self._locations, counts,
            *(flat[j::RECORD_WIDTH] for j in range(RECORD_WIDTH)),
            runtime=runtime, pinning=self._engine.pinning)

    # -- perturbation queries (hot path; engine caches most of these) ------
    def event_cost(self) -> float:
        return self.overhead.event_cost(self.mode)

    def count_cost(self, delta: WorkDelta) -> float:
        return self.overhead.count_cost(self.mode, delta)

    def mpi_sync_cost(self) -> float:
        return self.overhead.sync_cost(self.mode)

    def footprint_per_socket(self) -> float:
        return self._footprint

    def omp_team_sync_cost(self) -> float:
        return self.overhead.omp_team_sync_cost

    def overlap_relief(self) -> float:
        return self.overhead.overlap_relief

    def filtered(self, region: str) -> bool:
        return self.filter_rules.is_filtered(region)

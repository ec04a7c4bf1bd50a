"""Test-only oracles for the columnar trace recording.

:class:`EvListMeasurement` keeps the storage the measurement used before
traces were born as columns: one list of :class:`~repro.sim.events.Ev`
objects per location.  Every event reaches it through ``record`` (it
offers the engine no direct sinks), so under the legacy drain it holds
the very objects the engine built, and its finished trace is
event-backed.  :func:`event_bits` is the field-for-field comparison key.
"""

from repro.measure import Measurement, RawTrace


class EvListMeasurement(Measurement):
    """``record``/``mark``/``rewind`` over per-location ``Ev`` lists."""

    def begin(self, engine) -> None:
        super().begin(engine)
        self._events = [[] for _ in self._locations]

    def sinks(self):
        return None

    def record(self, loc, ev) -> None:
        self._events[loc].append(ev)

    def mark(self):
        return [len(evs) for evs in self._events]

    def rewind(self, mark) -> None:
        for evs, n in zip(self._events, mark or [0] * len(self._events)):
            del evs[n:]

    def finish(self, runtime) -> RawTrace:
        self._finished = True
        return RawTrace(self.mode, self._engine.regions, self._locations,
                        self._events, runtime, self._engine.pinning)


def _bits(x):
    """A number's type and, for floats, its IEEE-754 bits."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def event_bits(trace) -> list:
    """Every event of ``trace`` as comparable fields, float bits included."""
    return [
        (loc, _bits(ev.etype), _bits(ev.region), _bits(ev.t),
         _bits(ev.t_enter), repr(ev.aux),
         tuple(_bits(getattr(ev.delta, f)) for f in (
             "omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")))
        for loc, evs in enumerate(trace.events) for ev in evs
    ]

"""Final clocks of a replay, for raw and sharded traces alike.

:func:`stream_clock_replay` returns a :class:`ClockReplaySummary` -- the
final clock value per location, the global maximum (the mode's makespan
measure) and per-location event counts -- instead of per-event
timestamp arrays.  It runs the trace's compiled replay plan
(:func:`repro.clocks.columnar.replay_columnar`), so its finals are the
plan's final clocks: bit-identical to the per-event walk's last counters
(``tests/oracles.LamportClock``), which equal the last timestamps except
where a group completes after a member's last event.  ``tsc`` passes the
physical timestamps through.

A :class:`~repro.measure.shards.ShardedTrace` is read whole
(``to_raw()``) first: every ``.shards`` archive was written from a trace
that fit in memory, and DESIGN.md records why the replay no longer walks
shards one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.clocks.columnar import mode_increments, replay_columnar, trace_columns
from repro.machine.noise import NoiseConfig
from repro.measure.config import TSC, validate_mode

__all__ = ["ClockReplaySummary", "stream_clock_replay"]


@dataclass
class ClockReplaySummary:
    """Bounded-size result of a clock replay."""

    mode: str
    final: List[float]  # last clock value per location
    n_events: List[int]  # events replayed per location
    max_clock: float  # global maximum over all locations

    def __post_init__(self):
        if not self.final:
            self.max_clock = 0.0


def stream_clock_replay(
    trace_like,
    mode: Optional[str] = None,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> ClockReplaySummary:
    """Final clocks of ``trace_like`` under ``mode``.

    ``trace_like`` is a :class:`~repro.measure.trace.RawTrace` or a
    :class:`~repro.measure.shards.ShardedTrace`; the counter arguments
    are those of :func:`repro.clocks.timestamp_trace`.
    """
    mode = validate_mode(mode or trace_like.mode)
    cols = trace_columns(trace_like)
    if mode == TSC:
        final = [float(lc.t[-1]) if len(lc) else 0.0 for lc in cols.locs]
    else:
        final = replay_columnar(cols, mode_increments(
            cols, mode, counter_seed, counter_noise_config)).final
    obs.counter("clocks.replays", mode=mode).inc()
    return ClockReplaySummary(mode, final, [len(lc) for lc in cols.locs],
                              max(final, default=0.0))

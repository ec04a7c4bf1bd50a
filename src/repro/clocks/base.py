"""Timestamped traces and the mode dispatcher."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.clocks.columnar import timestamp_columns
from repro.machine.noise import NoiseConfig
from repro.measure.config import validate_mode
from repro.measure.trace import RawTrace

__all__ = ["TimestampedTrace", "timestamp_trace"]


@dataclass
class TimestampedTrace:
    """A raw trace plus the final (mode-specific) per-event timestamps.

    ``times[loc][i]`` is the timestamp of ``trace.events[loc][i]``.  For
    ``tsc`` these are virtual seconds; for logical modes, dimensionless
    clock units.  The analyzer consumes this object; severities are later
    normalised per the paper ("We normalize all values by the total
    severity of the *time* metric").
    """

    trace: RawTrace
    times: List[np.ndarray]
    mode: str

    def validate_monotone(self) -> None:
        for loc, arr in enumerate(self.times):
            if len(arr) > 1 and np.any(np.diff(arr) < 0):
                bad = int(np.argmax(np.diff(arr) < 0))
                raise AssertionError(
                    f"location {loc}: timestamps decrease at event {bad + 1}"
                )


def timestamp_trace(
    trace: RawTrace,
    mode: Optional[str] = None,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> TimestampedTrace:
    """Assign timestamps to ``trace`` under ``mode``.

    ``mode`` defaults to the mode the trace was recorded with.  For
    ``lthwctr``, ``counter_seed``/``counter_noise_config`` control the
    simulated run-to-run variability of the instruction counter (pass the
    repetition seed to reproduce the paper's five-repetition studies;
    a ``ZeroNoise`` config makes the counter exact).

    Runs the compiled replay plan over the trace's columns (see
    :mod:`repro.clocks.columnar`); a trace whose payloads do not follow
    the engine's conventions raises
    :class:`~repro.measure.columnar.ColumnarConversionError`.
    """
    mode = validate_mode(mode or trace.mode)
    cols = trace.columns()
    with obs.span("replay", mode=mode):
        times = timestamp_columns(cols, mode, counter_seed=counter_seed,
                                  counter_noise_config=counter_noise_config)
    obs.counter("clocks.replays", mode=mode).inc()
    return TimestampedTrace(trace, times, mode)

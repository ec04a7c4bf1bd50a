"""Shared utilities: deterministic RNG streams, statistics, table rendering.

These helpers are deliberately dependency-light so every other subpackage
(:mod:`repro.machine`, :mod:`repro.sim`, :mod:`repro.analysis`, ...) can use
them without import cycles.
"""

from repro.util.rng import RngStreams, stream_seed
from repro.util.stats import mean_ci, summarize, welford
from repro.util.tables import format_table, format_grouped_bars
from repro.util.validation import check_positive

__all__ = [
    "RngStreams",
    "stream_seed",
    "mean_ci",
    "summarize",
    "welford",
    "format_table",
    "format_grouped_bars",
    "check_positive",
]

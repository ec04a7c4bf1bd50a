"""Shared utilities: deterministic RNG streams, table rendering, validation.

These helpers are deliberately dependency-light so every other subpackage
(:mod:`repro.machine`, :mod:`repro.sim`, :mod:`repro.analysis`, ...) can use
them without import cycles.
"""

from repro.util.rng import RngStreams, stream_seed
from repro.util.tables import format_table, format_grouped_bars
from repro.util.validation import check_positive

__all__ = [
    "RngStreams",
    "stream_seed",
    "format_table",
    "format_grouped_bars",
    "check_positive",
]

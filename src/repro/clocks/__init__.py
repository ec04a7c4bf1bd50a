"""Clocks: timestamp assignment for raw traces.

``timestamp_trace`` is the main entry point: it turns a
:class:`~repro.measure.trace.RawTrace` into per-location timestamp arrays
under the chosen measurement mode -- physical time for ``tsc``, Lamport
logical time with the paper's increment models for the ``lt*`` modes.
All logical results come from one replay, the compiled plan of
:mod:`repro.clocks.columnar`.

Logical timestamps depend only on the event DAG (per-location order plus
message/collective/fork/barrier edges) and the deterministic work counts,
never on the physical timing -- which is precisely the noise-resilience
property the paper investigates.
"""

from repro.clocks.base import TimestampedTrace, timestamp_trace
from repro.clocks.columnar import (
    columnar_increments,
    lamport_assign_columnar,
    timestamp_columns,
)
from repro.clocks.sync import SyncMechanism, overhead_for_mechanism

__all__ = [
    "TimestampedTrace",
    "timestamp_trace",
    "columnar_increments",
    "lamport_assign_columnar",
    "timestamp_columns",
    "SyncMechanism",
    "overhead_for_mechanism",
]

"""Scalasca analogue: wait-state analysis, delay costs, profile building.

``analyze_trace`` replays a timestamped trace and produces a
:class:`~repro.cube.profile.CubeProfile` with the metric hierarchy of the
paper's Fig. 1 plus the delay-cost metrics used in Sec. V.
"""

from repro.analysis.metrics import (
    COMP,
    MPI_P2P_LATESENDER,
    MPI_P2P_LATERECEIVER,
    MPI_P2P_REST,
    MPI_COLL_WAIT_NXN,
    MPI_COLL_WAIT_BARRIER,
    MPI_COLL_REST,
    OMP_MANAGEMENT,
    OMP_BARRIER_WAIT,
    OMP_BARRIER_OVERHEAD,
    IDLE_THREADS,
    DELAY_N2N,
    DELAY_LATESENDER,
    TIME_LEAVES,
    METRIC_TREE,
    render_metric_tree,
    group_totals,
)
from repro.analysis.patterns import (
    nxn_waits,
    nxn_waits_batch,
    barrier_split_batch,
    late_sender_wait,
    late_sender_wait_many,
    late_receiver_wait_many,
)
from repro.analysis.analyzer import analyze_trace
from repro.analysis.report import render_report, top_callpaths, load_balance_summary
from repro.analysis.plain_profile import plain_profile, PLAIN_TIME

__all__ = [
    "COMP",
    "MPI_P2P_LATESENDER",
    "MPI_P2P_LATERECEIVER",
    "MPI_P2P_REST",
    "MPI_COLL_WAIT_NXN",
    "MPI_COLL_WAIT_BARRIER",
    "MPI_COLL_REST",
    "OMP_MANAGEMENT",
    "OMP_BARRIER_WAIT",
    "OMP_BARRIER_OVERHEAD",
    "IDLE_THREADS",
    "DELAY_N2N",
    "DELAY_LATESENDER",
    "TIME_LEAVES",
    "METRIC_TREE",
    "render_metric_tree",
    "group_totals",
    "nxn_waits",
    "nxn_waits_batch",
    "barrier_split_batch",
    "late_sender_wait",
    "late_sender_wait_many",
    "late_receiver_wait_many",
    "analyze_trace",
    "render_report",
    "top_callpaths",
    "load_balance_summary",
    "plain_profile",
    "PLAIN_TIME",
]

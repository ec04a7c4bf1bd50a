"""Plain call-path profiling (no wait-state analysis).

The paper reconciles an apparent contradiction with Ritter, Tarraf et
al. ("Conquering noise with hardware counters on HPC systems"): that
work found instruction counters *less* noisy than run time, while the
paper's lt_hwctr Jaccard floors are *lower* than tsc's.  The explanation
(Sec. V-B): "their evaluation is concerned with plain profiles recording
the total time/total counter per call path, whereas our evaluation also
includes the additional metrics from Scalasca's wait state analysis.
Our findings indicate that wait state analysis is influenced differently
by noise than plain profiling."

This module provides exactly that plain profile -- total clock units per
(call path, location), one metric, no patterns -- so the claim can be
tested on our substrate (see ``benchmarks/test_ablations.py``).  It is an
evaluation of the trace's :class:`~repro.analysis.analyzer.AnalysisPlan`,
so its call paths are the wait-state profile's: an OpenMP worker's sit
under its fork's frame, and a barrier's under its ``omp_ibarrier_*``
frame.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.analyzer import _cells, _intern_paths, _intervals, analysis_plan
from repro.clocks.base import TimestampedTrace
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree

__all__ = ["plain_profile", "PLAIN_TIME"]

#: the single metric of a plain profile
PLAIN_TIME = "time"


def plain_profile(tt: TimestampedTrace) -> CubeProfile:
    """Exclusive time per (call path, location), and nothing else.

    Every interval the wait-state analysis counts lands on its call path,
    whatever its class.  Worker idle gaps between parallel regions are
    skipped (a plain Score-P profile records them under the idle thread's
    own root, which does not affect per-call-path noise comparisons).
    Call paths and cells are in the profile order of
    :mod:`repro.cube.profile`, and each cell sums in event order.
    """
    plan = analysis_plan(tt.trace.columns())
    n_loc = len(plan.starts) - 1
    profile = CubeProfile(SystemTree(tt.trace.locations), (PLAIN_TIME,),
                          mode=tt.mode, meta={"plain": True})
    _t, dt, active = _intervals(plan, tt.times)
    remap = _intern_paths(plan, profile.calltree, active)
    pos = np.flatnonzero(active)
    profile.set_cells(PLAIN_TIME, _cells(
        remap[plan.cp[pos]] * n_loc + plan.loc[pos], dt[pos], n_loc))
    return profile

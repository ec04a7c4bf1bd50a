"""Fitting the OpenMP external-effort constants (paper Sec. II-A/V-C3).

The paper assigns X = 100 basic blocks / Y = 4300 statements to every
call into the OpenMP runtime, "fitted to our observations in the LULESH
benchmark".  The numeric values are specific to *their* LLVM pass's count
scale; this module reproduces the fitting *procedure* against our kernel
count scale: choose X (resp. Y) such that the lt_bb (resp. lt_stmt)
profile attributes the same fraction of total time to the OpenMP runtime
as the tsc profile does in LULESH-1.

Because the OpenMP share is monotone in the constant, a few iterations of
proportional scaling converge.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis import analyze_trace
from repro.analysis.metrics import OMP_LEAVES
from repro.clocks.base import TimestampedTrace, timestamp_trace
from repro.clocks.columnar import columnar_increments, lamport_assign_columnar
from repro.experiments.configs import make_app, make_cluster
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import LTBB, LTSTMT, TSC
from repro.sim import CostModel, Engine

__all__ = ["fit_omp_effort_constants"]


def _omp_fraction(tt: TimestampedTrace) -> float:
    prof = analyze_trace(tt)
    total = prof.total_time()
    if total <= 0:
        return 0.0
    return sum(prof.metric_total(m) for m in OMP_LEAVES) / total


def fit_omp_effort_constants(
    experiment: str = "LULESH-1",
    seed: int = 0,
    iterations: int = 6,
    x0: float = 100.0,
    y0: float = 4300.0,
) -> Dict[str, float]:
    """Fit X (bb) and Y (stmt) so the logical OpenMP share matches tsc.

    Returns ``{"x_bb", "y_stmt", "target_omp_fraction", "x_omp_fraction",
    "y_omp_fraction"}``.  One trace per mode is enough: the fit only
    re-timestamps and re-analyzes, it never re-simulates.
    """
    results = {}
    traces = {}
    for mode in (TSC, LTBB, LTSTMT):
        app = make_app(experiment)
        cluster = make_cluster(experiment)
        noise = NoiseModel(NoiseConfig(), seed=seed)
        res = Engine(app, cluster, CostModel(cluster, noise=noise),
                     measurement=Measurement(mode)).run()
        traces[mode] = res.trace

    target = _omp_fraction(timestamp_trace(traces[TSC], TSC))

    def fit(mode: str, start: float) -> Tuple[float, float]:
        value = start
        frac = 0.0
        cols = traces[mode].columns()
        for _ in range(iterations):
            inc = columnar_increments(cols, mode, x_bb=value, y_stmt=value)
            tt = TimestampedTrace(traces[mode],
                                  lamport_assign_columnar(cols, inc), mode)
            frac = _omp_fraction(tt)
            if frac <= 0.0:
                value *= 4.0
                continue
            ratio = target / frac
            if abs(ratio - 1.0) < 0.02:
                break
            # Damped proportional update: the share saturates for huge
            # constants, so full Newton steps overshoot.
            value *= min(4.0, max(0.25, ratio))
        return value, frac

    x_bb, x_frac = fit(LTBB, x0)
    y_stmt, y_frac = fit(LTSTMT, y0)
    results.update(
        x_bb=x_bb,
        y_stmt=y_stmt,
        target_omp_fraction=target,
        x_omp_fraction=x_frac,
        y_omp_fraction=y_frac,
    )
    return results

"""Generalized Jaccard score for non-negative functions.

The paper generalizes the set Jaccard index to functions
``A, B: X -> R>=0`` (following Costa's multiset generalization):

    |A inter B| = sum_x min(A(x), B(x))
    |A union B| = sum_x max(A(x), B(x))
    J(A, B)     = |A inter B| / |A union B|

Two instantiations are used in the evaluation:

* ``J_(M,C)`` -- X is the set of (metric, call path) pairs, values are
  contributions to total run time in %T (Figs. 3 and 4),
* ``J_C^metric`` -- X is the set of call paths, values are relative
  contributions to one metric in %M (the bar plots, Figs. 5, 6, 9).
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Hashable, Mapping, Optional, Sequence

from repro import obs
from repro.analysis import metrics as M
from repro.cube.profile import CubeProfile

__all__ = [
    "jaccard",
    "jaccard_metric_callpath",
    "min_pairwise_jaccard",
]


def jaccard(a: Mapping[Hashable, float], b: Mapping[Hashable, float]) -> float:
    """Generalized Jaccard score of two non-negative mappings.

    Missing keys count as zero.  Both mappings empty (or all-zero) gives
    1.0 -- identical functions.  Negative values are a caller bug and
    raise.  The sums run over ``a``'s keys in insertion order, then
    ``b``'s remaining ones, so the float result does not depend on the
    interpreter's hash seed.
    """
    inter = 0.0
    union = 0.0
    for k in chain(a, [k for k in b if k not in a]):
        va = a.get(k, 0.0)
        vb = b.get(k, 0.0)
        if va < 0.0 or vb < 0.0:
            raise ValueError(f"negative value at {k!r}: {va}, {vb}")
        inter += min(va, vb)
        union += max(va, vb)
    if union == 0.0:
        return 1.0
    return inter / union


def _default_metrics(profile: CubeProfile) -> Sequence[str]:
    """All time-tree leaves plus the delay metrics present in the profile."""
    present = set(profile.metrics)
    return [m for m in (*M.TIME_LEAVES, *M.DELAY_METRICS) if m in present]


def jaccard_metric_callpath(
    a: CubeProfile, b: CubeProfile, metrics: Optional[Sequence[str]] = None
) -> float:
    """``J_(M,C)``: similarity of (metric, call path) -> %T mappings.

    This is the headline comparison of Figs. 3 and 4: how similar is a
    logical measurement's whole analysis result to the tsc result.
    """
    with obs.span("scoring.jaccard"):
        ma = a.as_mapping(metrics if metrics is not None else _default_metrics(a))
        mb = b.as_mapping(metrics if metrics is not None else _default_metrics(b))
        return jaccard(ma, mb)


def min_pairwise_jaccard(
    profiles: Sequence[CubeProfile], metrics: Optional[Sequence[str]] = None
) -> float:
    """Minimum ``J_(M,C)`` over all pairs of repetitions.

    The paper plots this as the run-to-run similarity floor: 1.0 for
    deterministic logical modes, ~0.9+ for tsc, notably lower for
    lt_hwctr in cache-sensitive configurations (0.67 in TeaLeaf-2).
    """
    if len(profiles) < 2:
        return 1.0
    return min(
        jaccard_metric_callpath(a, b, metrics) for a, b in combinations(profiles, 2)
    )

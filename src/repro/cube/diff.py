"""Profile comparison helpers."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cube.calltree import CallPath
from repro.cube.profile import CubeProfile

__all__ = ["profile_diff"]


def profile_diff(
    a: CubeProfile,
    b: CubeProfile,
    metrics: Optional[Sequence[str]] = None,
    top: int = 20,
) -> List[Tuple[str, CallPath, float, float, float]]:
    """Largest absolute differences between two profiles.

    Both profiles are normalised (fraction-of-time units) before
    comparison.  Returns ``(metric, path, value_a, value_b, |diff|)``
    rows sorted by decreasing difference, equal differences by metric
    and call path (so a ``top`` that cuts through a tie returns the same
    rows under any hash seed) -- the "where do these two measurements
    disagree" question an analyst asks when comparing a logical
    measurement to tsc.
    """
    ma = a.as_mapping(metrics)
    mb = b.as_mapping(metrics)
    rows = []
    for key in set(ma) | set(mb):
        va = ma.get(key, 0.0)
        vb = mb.get(key, 0.0)
        rows.append((key[0], key[1], va, vb, abs(va - vb)))
    rows.sort(key=lambda r: (-r[4], r[0], r[1]))
    return rows[:top]

"""Generalized Jaccard similarity of profiles (paper Sec. V-B)."""

from repro.scoring.jaccard import (
    jaccard,
    jaccard_metric_callpath,
    min_pairwise_jaccard,
)

__all__ = [
    "jaccard",
    "jaccard_metric_callpath",
    "min_pairwise_jaccard",
]

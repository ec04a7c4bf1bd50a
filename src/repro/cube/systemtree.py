"""System tree: job -> node -> rank -> thread locations."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["SystemTree"]


class SystemTree:
    """Locations of a run, with optional hardware placement metadata."""

    def __init__(
        self,
        locations: List[Tuple[int, int]],
        nodes_of_ranks: Optional[Dict[int, int]] = None,
    ):
        self.locations = list(locations)
        self._index = {lt: i for i, lt in enumerate(self.locations)}
        self.nodes_of_ranks = dict(nodes_of_ranks or {})

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def ranks(self) -> List[int]:
        return sorted({r for (r, _t) in self.locations})

    def loc_id(self, rank: int, thread: int) -> int:
        return self._index[(rank, thread)]

    def threads_of(self, rank: int) -> List[int]:
        return sorted(t for (r, t) in self.locations if r == rank)

    def master_locations(self) -> List[int]:
        return [self._index[(r, 0)] for r in self.ranks]

    def node_of(self, rank: int) -> Optional[int]:
        return self.nodes_of_ranks.get(rank)

    def __eq__(self, other) -> bool:
        return isinstance(other, SystemTree) and self.locations == other.locations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SystemTree({len(self.locations)} locations, {len(self.ranks)} ranks)"

"""Program abstraction: what the engine runs.

A :class:`Program` bundles the SPMD rank-generator factory with job-level
metadata (rank/thread counts, pinning policy, phase names for reference
timing, working-set size for the cache model).  The three mini-apps in
:mod:`repro.miniapps` subclass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Tuple

from repro.machine.topology import Cluster, Pinning
from repro.util.validation import check_positive

__all__ = ["ProgramContext", "Program"]


@dataclass(frozen=True)
class ProgramContext:
    """Per-rank view handed to the rank generator."""

    rank: int
    n_ranks: int
    n_threads: int

    def neighbors_3d(self, dims: Tuple[int, int, int]) -> dict:
        """Face neighbours of this rank on a 3-D cartesian decomposition.

        Returns ``{axis_direction: rank}`` for the up-to-six face
        neighbours, e.g. ``{"x-": 3, "x+": 5, ...}``.  Used by LULESH's
        halo exchange.
        """
        nx, ny, nz = dims
        if nx * ny * nz != self.n_ranks:
            raise ValueError(f"dims {dims} do not factor {self.n_ranks} ranks")
        r = self.rank
        ix = r % nx
        iy = (r // nx) % ny
        iz = r // (nx * ny)
        out = {}
        if ix > 0:
            out["x-"] = r - 1
        if ix < nx - 1:
            out["x+"] = r + 1
        if iy > 0:
            out["y-"] = r - nx
        if iy < ny - 1:
            out["y+"] = r + nx
        if iz > 0:
            out["z-"] = r - nx * ny
        if iz < nz - 1:
            out["z+"] = r + nx * ny
        return out


class Program:
    """Base class for simulated applications.

    Subclasses must set ``name``, ``n_ranks`` and ``threads_per_rank`` and
    implement :meth:`make_rank`.  ``phases`` lists region names whose wall
    durations the engine reports even in uninstrumented reference runs
    (mirroring the mini-apps' own timer output, which the paper uses for
    its overhead tables).
    """

    name: str = "program"
    n_ranks: int = 1
    threads_per_rank: int = 1
    #: region names tracked for reference timing
    phases: Tuple[str, ...] = ()
    #: application working set in bytes, summed over the job (cache model)
    working_set_bytes: float = 0.0
    #: pinning policy: "packed" or "spread_numa"
    pinning_policy: str = "packed"

    def make_rank(self, ctx: ProgramContext) -> Generator:
        """Return the action generator for rank ``ctx.rank``."""
        raise NotImplementedError

    def pinning(self, cluster: Cluster) -> Pinning:
        """Place the job on the cluster according to the pinning policy."""
        check_positive("n_ranks", self.n_ranks)
        check_positive("threads_per_rank", self.threads_per_rank)
        if self.pinning_policy == "spread_numa":
            return Pinning.spread_ranks_over_numa(cluster, self.n_ranks, self.threads_per_rank)
        if self.pinning_policy == "balanced_numa":
            return Pinning.balanced_numa(cluster, self.n_ranks, self.threads_per_rank)
        if self.pinning_policy == "packed":
            return Pinning.packed(cluster, self.n_ranks, self.threads_per_rank)
        raise ValueError(f"unknown pinning policy {self.pinning_policy!r}")

    def working_set_per_socket(self, pinning: Pinning) -> float:
        """Per-socket share of the working set (cache-model input).

        Counts the sockets of *all* pinned hardware threads (a single rank
        spanning both sockets, as in TeaLeaf-1, spreads its data by first
        touch).
        """
        sockets = {pinning.core_of(r, t).socket_id for (r, t) in pinning.locations()}
        if not sockets or self.working_set_bytes <= 0:
            return 0.0
        return self.working_set_bytes / len(sockets)

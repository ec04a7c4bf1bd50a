"""The profile: severities over (metric, call path, location).

Severities are stored *exclusively* per (metric leaf, call path, location)
triple.  Aggregations (over locations, over call-path subtrees) and the
paper's two percentage views are provided as queries.

Units: in a raw profile, severities are in the measurement's own units
(seconds for tsc, clock units for logical modes).  ``normalized()``
divides everything by the total *time* severity, producing the
dimensionless fractions the paper compares across clocks ("These values
should be interpreted as fractions of the total reported effort for a
given effort model"); ``mean()`` averages normalized profiles over
repetitions.

Every profile :func:`~repro.analysis.analyze_trace` and
:func:`~repro.analysis.plain_profile` build has one order, which depends
on the logical trace alone (so two runs whose logical traces agree give
byte-identical profiles, whatever the noise):

* *call paths*: the root, then every interned path in lexicographic
  order of its region-name tuple;
* *cells*: each metric's cells sorted by (call-path id, location);
* *sums*: a cell adds its inputs in the event order of the one location
  they come from (the cell's own location, or the sender's for a
  late-receiver wait); a delay-cost cell, whose inputs come from waits on
  several locations, adds them in the location-major order (location,
  then index on it) of the waiting events;
* *metrics* are created in the analyzer's code order; documents list
  them sorted.

``normalized()`` keeps its profile's call paths and cells as they are.
``mean()`` holds the union of its inputs' call paths in the order above,
each metric's cells sorted, and each cell sums the inputs in input order.
(Blame profiles, :mod:`repro.causal`, keep the DAG's own order.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.cube.calltree import CallPath, CallTree
from repro.cube.systemtree import SystemTree

__all__ = ["CubeProfile"]


class CubeProfile:
    """Severity store over metric x call path x location.

    Parameters
    ----------
    time_metrics:
        Names of the metric leaves whose sum constitutes the *time*
        metric (the normalisation denominator).  Metrics not listed here
        (e.g. delay costs) are carried along and normalised by the same
        denominator but do not contribute to it.
    """

    def __init__(
        self,
        system: SystemTree,
        time_metrics: Sequence[str],
        mode: str = "",
        meta: Optional[dict] = None,
    ):
        self.system = system
        self.calltree = CallTree()
        self.time_metrics = tuple(time_metrics)
        self.mode = mode
        self.meta = dict(meta or {})
        # metric -> {(cpid, loc): severity}
        self._sev: Dict[str, Dict[Tuple[int, int], float]] = defaultdict(dict)

    # -- writing -----------------------------------------------------------
    def add(self, metric: str, path: CallPath, loc: int, value: float) -> None:
        """Accumulate ``value`` into the (metric, path, loc) cell."""
        if value == 0.0:
            return
        cpid = self.calltree.intern(tuple(path))
        cell = self._sev[metric]
        key = (cpid, loc)
        cell[key] = cell.get(key, 0.0) + value

    def add_id(self, metric: str, cpid: int, loc: int, value: float) -> None:
        """Hot-path variant of :meth:`add` taking a pre-interned path id.

        ``cpid`` must come from this profile's own ``calltree`` (the
        analyzer builds the profile around its call tree).
        """
        if value == 0.0:
            return
        cell = self._sev[metric]
        key = (cpid, loc)
        cell[key] = cell.get(key, 0.0) + value

    def set_cells(self, metric: str, cells: Dict[Tuple[int, int], float]) -> None:
        """Install ``metric``'s cells wholesale (the analyzer's bulk form of
        :meth:`add_id`).

        ``cells`` maps ``(cpid, loc)`` to a nonzero severity, in the
        profile order (sorted by key); the metric must not exist yet.  An
        empty mapping creates nothing.
        """
        if cells:
            if metric in self._sev:
                raise ValueError(f"metric {metric!r} already has cells")
            self._sev[metric] = cells

    # -- raw access ----------------------------------------------------------
    @property
    def metrics(self) -> List[str]:
        return sorted(self._sev)

    def cells(self, metric: str) -> Mapping[Tuple[int, int], float]:
        return self._sev.get(metric, {})

    def value(self, metric: str, path: CallPath, loc: Optional[int] = None) -> float:
        """Exclusive severity of a cell (or summed over locations)."""
        cpid = self.calltree.id_of(tuple(path))
        if cpid is None:
            return 0.0
        cell = self._sev.get(metric, {})
        if loc is not None:
            return cell.get((cpid, loc), 0.0)
        return sum(v for (cp, _l), v in cell.items() if cp == cpid)

    # -- aggregations -----------------------------------------------------
    def metric_total(self, metric: str) -> float:
        """Sum of a metric over all call paths and locations."""
        return sum(self._sev.get(metric, {}).values())

    def total_time(self) -> float:
        """Total severity of the *time* metric (the %T denominator)."""
        return sum(self.metric_total(m) for m in self.time_metrics)

    def by_callpath(self, metric: str) -> Dict[CallPath, float]:
        """Exclusive metric severity per call path, summed over locations."""
        out: Dict[int, float] = defaultdict(float)
        for (cpid, _loc), v in self._sev.get(metric, {}).items():
            out[cpid] += v
        return {self.calltree.path(cpid): v for cpid, v in out.items()}

    def by_location(self, metric: str) -> Dict[int, float]:
        """Metric severity per location, summed over call paths."""
        out: Dict[int, float] = defaultdict(float)
        for (_cpid, loc), v in self._sev.get(metric, {}).items():
            out[loc] += v
        return dict(out)

    def inclusive(self, metric: str, path: CallPath) -> float:
        """Metric severity of a call path *including* its descendants."""
        cpid = self.calltree.id_of(tuple(path))
        if cpid is None:
            return 0.0
        ids = set(self.calltree.subtree(cpid))
        return sum(v for (cp, _l), v in self._sev.get(metric, {}).items() if cp in ids)

    # -- the paper's percentage views ------------------------------------
    def percent_of_time(self, metric: str, path: Optional[CallPath] = None) -> float:
        """%T: severity as a percentage of total time ("own root percent")."""
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        if path is None:
            v = self.metric_total(metric)
        else:
            v = self.inclusive(metric, path)
        return 100.0 * v / total

    def metric_selection_percent(self, metric: str) -> Dict[CallPath, float]:
        """%M: each call path's share of the metric's total (inclusive view
        collapses to exclusive because severities are stored exclusively;
        use :meth:`inclusive` for subtree percentages)."""
        total = self.metric_total(metric)
        if total <= 0.0:
            return {}
        return {p: 100.0 * v / total for p, v in self.by_callpath(metric).items()}

    # -- comparison / averaging helpers -------------------------------------
    def as_mapping(
        self, metrics: Optional[Sequence[str]] = None, per_location: bool = False
    ) -> Dict[Tuple, float]:
        """Flatten to ``{(metric, path[, loc]): fraction-of-time}``.

        This is the non-negative function the generalized Jaccard score
        compares (paper Sec. V-B).
        """
        total = self.total_time()
        if total <= 0.0:
            return {}
        use = self.metrics if metrics is None else list(metrics)
        out: Dict[Tuple, float] = {}
        for m in use:
            for (cpid, loc), v in self._sev.get(m, {}).items():
                path = self.calltree.path(cpid)
                key = (m, path, loc) if per_location else (m, path)
                out[key] = out.get(key, 0.0) + v / total
        return out

    def normalized(self) -> "CubeProfile":
        """A copy with all severities divided by the total time severity,
        call paths and cells in this profile's order."""
        with obs.span("cube.normalized", mode=self.mode):
            total = self.total_time()
            if total <= 0.0:
                raise ValueError("cannot normalize a profile with zero total time")
            out = CubeProfile(self.system, self.time_metrics, mode=self.mode,
                              meta=dict(self.meta))
            for path in self.calltree.paths():
                out.calltree.intern(path)
            for m, cell in self._sev.items():
                out._sev[m] = {key: v / total for key, v in cell.items()}
            out.meta["normalized"] = True
            return out

    @classmethod
    def mean(cls, profiles: Sequence["CubeProfile"]) -> "CubeProfile":
        """Arithmetic mean of normalized profiles (paper Sec. IV-B).

        All profiles must share the system tree.  A profile whose
        ``meta["normalized"]`` is unset is normalized first; normalized
        ones are averaged as they are.  Missing cells count as zero, as
        they would in Cube.
        """
        if not profiles:
            raise ValueError("mean() of no profiles")
        first = profiles[0]
        for p in profiles[1:]:
            if p.system != first.system:
                raise ValueError("profiles to average must share the system tree")
        with obs.span("cube.mean", profiles=len(profiles)):
            norms = [p if p.meta.get("normalized") else p.normalized()
                     for p in profiles]
            out = cls(first.system, first.time_metrics, mode=first.mode,
                      meta={"averaged_over": len(profiles)})
            ct = out.calltree
            for path in sorted(set().union(*(p.calltree.paths() for p in norms))):
                ct.intern(path)
            remaps = [[ct.id_of(path) for path in p.calltree.paths()]
                      for p in norms]
            n = float(len(profiles))
            for m in sorted(set().union(*(p._sev for p in norms))):
                cell: Dict[Tuple[int, int], float] = {}
                for p, remap in zip(norms, remaps):
                    for (cpid, loc), v in p.cells(m).items():
                        key = (remap[cpid], loc)
                        cell[key] = cell.get(key, 0.0) + v / n
                out._sev[m] = dict(sorted(cell.items()))
            out.meta["normalized"] = True
            return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CubeProfile(mode={self.mode!r}, metrics={len(self._sev)}, "
            f"callpaths={len(self.calltree)}, locations={self.system.n_locations})"
        )

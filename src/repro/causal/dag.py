"""Happened-before DAG with per-edge cost attribution and blame analysis.

:func:`build_dag` materializes **only the synchronisation events** as
DAG nodes -- sends, receives, collective/barrier/restart completions,
forks and team begins, typically a third of a trace.  They are exactly
the records of the trace's compiled replay plan
(:mod:`repro.clocks.columnar`): node ``s`` is plan record ``s``, and a
receive's or team begin's remote predecessor is its record's source
slot.  Everything between two synchronisation events on a location
collapses into the *program edge* connecting them, whose cost is the
clock advance over the stretch, broken down by the call path in which
the work happened.  Call paths are the trace's
:class:`~repro.analysis.analyzer.AnalysisPlan`'s, the ones the
wait-state profile keys its cells by, and the breakdown is held in three
flat arrays; memory is therefore bounded by the synchronisation
structure plus the trace's columns and plans, not by ``Ev`` objects or
per-node lists.

Per-edge costs follow the active clock mode: physical seconds under
``tsc``, logical units under the ``lt*`` modes, where every clock value
comes from one execution of the replay plan and is bit-identical to
:func:`repro.clocks.timestamp_trace`.  Under the Lamport semantics a
node's clock value *is* its longest-path distance from the source, so
critical-path extraction is a backward walk along whichever predecessor
determined each clock value -- no second fixpoint pass.

Wait-state **root-cause attribution** (the blame profile): every wait
interval -- a late-sender max-exchange jump at a receive, the group-max
jump of an early arriver at a collective, and their physical-timer
analogues via :mod:`repro.analysis.patterns` -- is traced *backwards*
through the DAG along the chain of edges that determined the delaying
partner's arrival, consuming compute-edge work (latest first) and
transfer edges until the wait is fully explained.  The blame lands on
the call paths that performed the originating work, aggregated into a
:class:`~repro.cube.profile.CubeProfile` so
:func:`repro.cube.diff.profile_diff` can compare blame across runs,
modes or code versions.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.analyzer import analysis_plan
from repro.analysis.patterns import late_sender_wait, nxn_waits
from repro.clocks.columnar import (
    OP_FINAL,
    OP_MAXSRC,
    mode_increments,
    replay_columnar,
    replay_plan,
    trace_columns,
)
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.machine.noise import NoiseConfig
from repro.measure.config import TSC, validate_mode
from repro.sim.events import MPI_RECV

__all__ = [
    "BLAME_COMPUTE",
    "BLAME_TRANSFER",
    "BLAME_RESIDUAL",
    "BLAME_LEAVES",
    "CAUSAL_WAIT",
    "CausalDag",
    "build_dag",
    "blame_profile",
    "critical_path_table",
]

#: blame metrics: work on the delayer's critical chain that explains a
#: wait (compute edges / transfer edges), plus the residual that reaches
#: the program source unexplained.  Their sum over the profile equals the
#: total attributed wait, so they form the profile's *time* leaves.
BLAME_COMPUTE = "blame_compute"
BLAME_TRANSFER = "blame_transfer"
BLAME_RESIDUAL = "blame_residual"
BLAME_LEAVES: Tuple[str, ...] = (BLAME_COMPUTE, BLAME_TRANSFER, BLAME_RESIDUAL)

#: the wait severities themselves, recorded at the *waiting* call path
#: (outside the blame time tree, like Scalasca's delay metrics)
CAUSAL_WAIT = "causal_wait"

#: synthetic event kind of the per-location terminal node
TERMINAL = -1

#: hard bound on DAG nodes visited per blame walk (a walk consumes
#: ``wait`` units of edge cost, so it terminates on its own; the cap
#: guards degenerate traces with near-zero edge costs)
_MAX_BLAME_HOPS = 100_000


class CausalDag:
    """The happened-before DAG of one trace under one clock mode.

    Nodes are stored as parallel lists (structure-of-arrays, like the
    trace itself); node ``0..n_nodes-1`` in creation order, which is the
    global merged order of the underlying synchronisation events plus
    one :data:`TERMINAL` node per location at the end.

    Per node: ``loc``/``idx`` locate the event, ``etype``/``region``
    describe it, ``t`` is its physical timestamp, ``clock`` its (final)
    clock value under :attr:`mode`, ``work`` the cost of the program
    edge from the previous node on the location, ``wait`` the wait-state
    severity ending at this node, ``pred_prog``/``pred_remote`` the
    program-order and remote predecessors (``-1`` when absent), and
    ``remote_critical`` whether the remote edge determined the clock
    value.  ``cpid`` is the call path the node's event sits in (a
    terminal sits at the root), an id into ``callpaths``, the analysis
    plan's name tuples.

    The program edges' work per call path is held in CSR form: node
    ``k``'s edge has entries ``seg_start[k]`` to ``seg_start[k + 1]`` of
    ``seg_cp`` (call-path ids) and ``seg_work`` (the steps of the edge's
    events in that call path, summed in event order), in the order the
    edge first touched each call path.
    """

    def __init__(self, mode: str, region_names: List[str],
                 locations: List[Tuple[int, int]]):
        self.mode = mode
        self.region_names = region_names
        self.locations = locations
        self.loc: List[int] = []
        self.idx: List[int] = []
        self.etype: List[int] = []
        self.region: List[int] = []
        self.t: List[float] = []
        self.clock: List[float] = []
        self.work: List[float] = []
        self.wait: List[float] = []
        self.pred_prog: List[int] = []
        self.pred_remote: List[int] = []
        self.remote_critical: List[bool] = []
        self.cpid: List[int] = []
        self.seg_start = np.zeros(1, dtype=np.int64)
        self.seg_cp = np.empty(0, dtype=np.int64)
        self.seg_work = np.empty(0)
        self.callpaths: List[Tuple[str, ...]] = []
        self.final: List[float] = []
        self.n_events = 0

    @property
    def n_nodes(self) -> int:
        return len(self.loc)

    @property
    def makespan(self) -> float:
        return max(self.final, default=0.0)

    def callpath(self, nid: int) -> Tuple[str, ...]:
        path = self.callpaths[self.cpid[nid]]
        return path if path else ("<program>",)

    def node_name(self, nid: int) -> str:
        if self.etype[nid] == TERMINAL:
            return "<end>"
        rid = self.region[nid]
        return self.region_names[rid] if rid >= 0 else "<none>"

    # -- critical path ---------------------------------------------------
    def sink(self) -> int:
        """Terminal node of the location with the maximal final clock."""
        best, best_c = -1, float("-inf")
        for nid in range(self.n_nodes):
            if self.etype[nid] != TERMINAL:
                continue
            c = self.clock[nid]
            if c > best_c:
                best, best_c = nid, c
        return best

    def critical_path(self) -> List[int]:
        """Node ids from the program source to the makespan sink.

        Backward walk along whichever predecessor determined each node's
        clock value: the remote edge where a max-exchange won (strictly),
        the program edge otherwise.  Under the Lamport semantics the
        resulting chain's edge costs sum to the sink's clock value.
        """
        path: List[int] = []
        cur = self.sink()
        while cur >= 0:
            path.append(cur)
            cur = (self.pred_remote[cur] if self.remote_critical[cur]
                   else self.pred_prog[cur])
        path.reverse()
        return path

    def critical_path_fingerprint(self) -> str:
        """SHA-256 over the critical path's structure and edge costs.

        Hashes, per node on the path: location, event kind, region name
        and the raw IEEE-754 bits of the program-edge work and the wait
        severity.  Two runs share a fingerprint iff their critical paths
        are bit-identical -- the paper's noise-resilience claim extended
        to causal structure.
        """
        h = hashlib.sha256()
        for nid in self.critical_path():
            h.update(struct.pack("<qq", self.loc[nid], self.etype[nid]))
            h.update(self.node_name(nid).encode("utf-8"))
            h.update(struct.pack("<dd", self.work[nid], self.wait[nid]))
        return h.hexdigest()

    def total_wait(self) -> float:
        return sum(self.wait)


def build_dag(
    trace_like,
    mode: Optional[str] = None,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> CausalDag:
    """Construct the happened-before DAG of ``trace_like`` under ``mode``.

    ``trace_like`` is a ``RawTrace`` or a ``ShardedTrace`` (read whole);
    the counter arguments are those of :func:`repro.clocks.timestamp_trace`.
    Node ``s`` is record ``s`` of the trace's compiled replay plan (one
    per synchronisation event, in merged order), followed by one terminal
    node per location.  Under a logical mode every clock value comes from
    one execution of the plan; under ``tsc`` the plan gives only the
    structure and the clocks are the physical timestamps.  Call paths
    come from the trace's analysis plan
    (:func:`repro.analysis.analyzer.analysis_plan`, compiled here unless
    an analysis of the trace already did).
    """
    mode = validate_mode(mode or trace_like.mode)
    cols = trace_columns(trace_like)
    records, _tails = replay_plan(cols)
    plan = analysis_plan(cols)
    with obs.span("causal.dag", mode=mode,
                  nodes=len(records) + cols.n_locations):
        dag = _plan_dag(cols, records, plan, mode, counter_seed,
                        counter_noise_config)
    obs.counter("clocks.replays", mode=mode).inc()
    return dag


def _plan_dag(cols, records, plan, mode, counter_seed, counter_noise_config):
    """The DAG of ``cols`` from its replay plan ``records`` and its
    analysis ``plan``."""
    n = cols.n_locations
    regions = cols.regions
    dag = CausalDag(mode, list(regions.names), list(cols.locations))
    is_tsc = mode == TSC
    sync = cols.sync_plan()
    s_loc, s_idx, s_et = sync.loc.tolist(), sync.idx.tolist(), sync.kind.tolist()
    n_sync = len(records)
    idx = sync.idx
    flat = sync.flat
    t_all = cols.column("t")
    t_sync = t_all[flat].tolist()
    if is_tsc:
        # the walk's step is the physical advance since the previous event
        steps = [np.diff(lc.t, prepend=0.0) for lc in cols.locs]
        final = [float(lc.t[-1]) if len(lc) else 0.0 for lc in cols.locs]
        pre = t_sync
        # physical time of the event in front of each record's event
        before = np.where(idx > 0, t_all[np.maximum(flat - 1, 0)], 0.0).tolist()
    else:
        steps = mode_increments(cols, mode, counter_seed, counter_noise_config)
        rep = replay_columnar(cols, steps)
        final, pre = rep.final, rep.pre

    clock = list(pre)
    work = [0.0] * n_sync
    wait = [0.0] * n_sync
    pred_prog = [-1] * n_sync
    pred_remote = [-1] * n_sync
    remote_critical = [False] * n_sync
    last_node = [-1] * n
    last_clock = [0.0] * n
    for s, (loc, _i, _a, op, arg) in enumerate(records):
        c = pre[s]
        work[s] = c - last_clock[loc]
        prog = pred_prog[s] = last_node[loc]
        last_node[loc] = s
        last_clock[loc] = c
        if op == OP_MAXSRC:  # a receive or a team begin
            src = pred_remote[s] = arg[0]
            sc = pre[src]
            team = s_et[s] != MPI_RECV
            if is_tsc:
                w = 0.0 if team else late_sender_wait(sc, before[s], c)
                rc = (prog < 0 or sc > before[s]) if team else w > 0.0
            else:
                p1 = sc + 1.0
                w = p1 - c if p1 > c else 0.0
                rc = p1 > c or (team and prog < 0)
                if p1 > c:
                    clock[s] = last_clock[loc] = p1
            wait[s] = w
            remote_critical[s] = rc
        elif op == OP_FINAL:
            slots = arg[1]
            if is_tsc:
                enters = [before[k] for k in slots]
                waits = nxn_waits(enters, c)
                win = max(range(len(slots)), key=enters.__getitem__)
            else:
                m = max(pre[k] for k in slots)
                waits = [m - pre[k] for k in slots]
                win = next(j for j, k in enumerate(slots) if pre[k] == m)
            win_nid = slots[win]
            for j, k in enumerate(slots):
                wait[k] = waits[j]
                if j != win and waits[j] > 0.0:
                    pred_remote[k] = win_nid
                    remote_critical[k] = True
                if not is_tsc:
                    clock[k] = last_clock[s_loc[k]] = m

    cp = plan.by_location(plan.cp).astype(np.int64)
    dag.callpaths = list(plan.paths)
    dag.seg_start, dag.seg_cp, dag.seg_work = _edge_work(
        cols, flat, cp, steps, len(plan.paths))
    dag.loc = list(s_loc) + list(range(n))
    dag.idx = list(s_idx) + [len(lc) for lc in cols.locs]
    dag.etype = list(s_et) + [TERMINAL] * n
    dag.region = cols.column("region")[flat].tolist() + [-1] * n
    dag.t = t_sync + [0.0] * n
    dag.clock = clock + final
    dag.work = work + [f - c for f, c in zip(final, last_clock)]
    dag.wait = wait + [0.0] * n
    dag.pred_prog = pred_prog + last_node
    dag.pred_remote = pred_remote + [-1] * n
    dag.remote_critical = remote_critical + [False] * n
    dag.cpid = cp[flat].tolist() + [0] * n
    dag.final = list(final)
    dag.n_events = cols.n_events
    return dag


def _edge_work(cols, flat, cp, steps, n_paths):
    """The program edges' work per call path, as ``(seg_start, seg_cp,
    seg_work)`` CSR arrays over all nodes, terminals last.

    ``flat`` holds the location-major index of every synchronisation
    node's event, ``cp`` every event's call path (location-major) and
    ``steps`` every event's clock advance (one array per location).  An
    event belongs to the edge of the first node at or after it on its
    location, or to the location's terminal node.  Inside an edge the
    call paths are in first-touch order, and each sum adds the steps in
    event order (``np.bincount`` adds in input order).
    """
    n_sync = len(flat)
    n_nodes = n_sync + cols.n_locations
    step = (np.concatenate(steps) if steps
            else np.empty(0, dtype=np.float64))
    # edge ends, doubled so that a location's end (odd) sorts after its
    # last event and before the next location's first
    ends = np.concatenate((2 * flat.astype(np.int64), 2 * cols.offsets()[1:] - 1))
    by_end = np.argsort(ends, kind="stable")
    edge = by_end[np.searchsorted(ends[by_end],
                                  2 * np.arange(len(step), dtype=np.int64))]
    pairs, first, inv = np.unique(edge * n_paths + cp, return_index=True,
                                  return_inverse=True)
    work = np.bincount(inv, weights=step, minlength=len(pairs))
    order = np.lexsort((first, pairs // n_paths))
    pairs = pairs[order]
    seg_start = np.searchsorted(pairs // n_paths,
                                np.arange(n_nodes + 1, dtype=np.int64))
    return seg_start, pairs % n_paths, work[order]


def blame_profile(dag: CausalDag, pinning=None) -> CubeProfile:
    """Aggregate the DAG's wait root causes into a blame profile.

    For every node with a positive wait, walks the chain of edges that
    determined the delaying partner's arrival: transfer edges contribute
    to :data:`BLAME_TRANSFER`, program-edge work (consumed latest-first
    from the edge's call-path breakdown, ``seg_*``) to
    :data:`BLAME_COMPUTE`, and whatever reaches the program source
    unexplained to :data:`BLAME_RESIDUAL`.  The wait severities
    themselves are recorded under :data:`CAUSAL_WAIT` at the *waiting*
    call path, so the profile shows both sides of every wait.  The result
    plugs directly into :func:`repro.cube.diff.profile_diff` and
    :func:`repro.cube.io.write_profile`.
    """
    nodes_of_ranks = None
    if pinning is not None:
        nodes_of_ranks = {
            r: pinning.node_of(r) for (r, _t) in dag.locations
        }
    system = SystemTree(dag.locations, nodes_of_ranks)
    prof = CubeProfile(system, BLAME_LEAVES, mode=dag.mode,
                       meta={"kind": "causal_blame"})
    with obs.span("causal.blame", mode=dag.mode, nodes=dag.n_nodes):
        segs = (dag.seg_start.tolist(), dag.seg_cp.tolist(),
                dag.seg_work.tolist())
        ids = [-1] * len(dag.callpaths)

        def path_id(cpid: int) -> int:
            """The profile's id of DAG call path ``cpid``, interned on
            first use (the root as ``<program>``)."""
            cid = ids[cpid]
            if cid < 0:
                cid = ids[cpid] = prof.calltree.intern(
                    dag.callpaths[cpid] or ("<program>",))
            return cid

        for nid in range(dag.n_nodes):
            w = dag.wait[nid]
            if w <= 0.0:
                continue
            prof.add_id(CAUSAL_WAIT, path_id(dag.cpid[nid]), dag.loc[nid], w)
            _distribute_blame(dag, segs, path_id, nid, w, prof)
    return prof


def _distribute_blame(dag: CausalDag, segs, path_id, nid: int, wait: float,
                      prof: CubeProfile) -> None:
    """Charge ``wait`` units to the edges that caused node ``nid``'s wait
    (``segs``: the DAG's ``seg_*`` arrays as lists)."""
    seg_start, seg_cp, seg_work = segs
    remaining = wait
    cur = dag.pred_remote[nid]
    if cur < 0:
        prof.add(BLAME_RESIDUAL, ("<source>",), dag.loc[nid], remaining)
        return
    # the transfer edge that ended the wait (its cost delayed the waiter
    # beyond the partner's publication)
    edge = dag.clock[nid] - dag.clock[cur]
    if edge > 0.0:
        take = min(edge, remaining)
        prof.add_id(BLAME_TRANSFER, path_id(dag.cpid[cur]), dag.loc[cur], take)
        remaining -= take
    hops = 0
    last_loc = dag.loc[cur]
    while cur >= 0 and remaining > 0.0 and hops < _MAX_BLAME_HOPS:
        hops += 1
        last_loc = dag.loc[cur]
        if dag.remote_critical[cur]:
            prev = dag.pred_remote[cur]
            edge = dag.clock[cur] - (dag.clock[prev] if prev >= 0 else 0.0)
            if edge > 0.0:
                take = min(edge, remaining)
                prof.add_id(BLAME_TRANSFER, path_id(dag.cpid[cur]),
                            dag.loc[cur], take)
                remaining -= take
            cur = prev
        else:
            loc = dag.loc[cur]
            for j in range(seg_start[cur + 1] - 1, seg_start[cur] - 1, -1):
                w = seg_work[j]
                if w <= 0.0:
                    continue
                take = min(w, remaining)
                prof.add_id(BLAME_COMPUTE, path_id(seg_cp[j]), loc, take)
                remaining -= take
                if remaining <= 0.0:
                    break
            cur = dag.pred_prog[cur]
    if remaining > 0.0:
        prof.add(BLAME_RESIDUAL, ("<source>",), last_loc, remaining)


def critical_path_table(dag: CausalDag, top: int = 10) -> List[Tuple[str, int, float, float]]:
    """Critical path aggregated by call path: (path, hops, work, wait).

    ``work`` sums the program edges the path takes: a node's
    :attr:`~CausalDag.work` counts only where the path enters it by its
    program edge, not by its remote one.  The column therefore adds up to
    at most the makespan.  Rows are sorted by descending work share;
    ``top`` bounds the list.
    """
    agg: Dict[Tuple[str, ...], List[float]] = {}
    order: List[Tuple[str, ...]] = []
    for nid in dag.critical_path():
        path = dag.callpath(nid)
        row = agg.get(path)
        if row is None:
            row = agg[path] = [0, 0.0, 0.0]
            order.append(path)
        row[0] += 1
        if not dag.remote_critical[nid]:
            row[1] += dag.work[nid]
        row[2] += dag.wait[nid]
    rows = [(" / ".join(p), int(agg[p][0]), agg[p][1], agg[p][2])
            for p in order]
    rows.sort(key=lambda r: -r[2])
    return rows[:top]

"""Test-only oracles.

:class:`EvListMeasurement` keeps the storage the measurement used before
traces were born as columns: one list of :class:`~repro.sim.events.Ev`
objects per location.  Every event reaches it through ``record`` (it
offers the engine no direct sinks), so under the legacy drain it holds
the very objects the engine built, and its finished trace is
event-backed.  :func:`event_bits` is the field-for-field comparison key.

:func:`walker_analyze_trace` is the per-event wait-state walk that
:func:`repro.analysis.analyze_trace` replaced with its compiled analysis
plan; :func:`analyze_stream` runs it over flat per-event lists in merged
order, from a trace (:func:`_merged_chunks`) or from the shards of an
out-of-core archive (:func:`shard_event_lists`).  Its profiles are the
reference the plan must reproduce byte for byte.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis import metrics as M
from repro.analysis.patterns import barrier_split, late_receiver_wait, late_sender_wait, nxn_waits
from repro.clocks.base import TimestampedTrace
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.measure import Measurement, RawTrace
from repro.measure.columnar import ColumnarConversionError, aux_values
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    FORK,
    JOIN,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_ENTER,
    OBAR_LEAVE,
    TEAM_BEGIN,
)


class EvListMeasurement(Measurement):
    """``record``/``mark``/``rewind`` over per-location ``Ev`` lists."""

    def begin(self, engine) -> None:
        super().begin(engine)
        self._events = [[] for _ in self._locations]

    def sinks(self):
        return None

    def record(self, loc, ev) -> None:
        self._events[loc].append(ev)

    def mark(self):
        return [len(evs) for evs in self._events]

    def rewind(self, mark) -> None:
        for evs, n in zip(self._events, mark or [0] * len(self._events)):
            del evs[n:]

    def finish(self, runtime) -> RawTrace:
        self._finished = True
        return RawTrace(self.mode, self._engine.regions, self._locations,
                        self._events, runtime, self._engine.pinning)


def _bits(x):
    """A number's type and, for floats, its IEEE-754 bits."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def event_bits(trace) -> list:
    """Every event of ``trace`` as comparable fields, float bits included."""
    return [
        (loc, _bits(ev.etype), _bits(ev.region), _bits(ev.t),
         _bits(ev.t_enter), repr(ev.aux),
         tuple(_bits(getattr(ev.delta, f)) for f in (
             "omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")))
        for loc, evs in enumerate(trace.events) for ev in evs
    ]


def shard_event_lists(st) -> Iterator[tuple]:
    """Per shard of the :class:`~repro.measure.shards.ShardedTrace` ``st``,
    the flat ``(loc, kind, region, aux, t)`` lists of
    :func:`analyze_stream` (physical time)."""
    for arr in st.iter_shards():
        st._resident(len(arr))
        etype = arr["etype"]
        yield (arr["loc"].tolist(), etype.tolist(), arr["region"].tolist(),
               aux_values(etype, arr["aux_a"], arr["aux_b"]),
               arr["t"].tolist())


# ---------------------------------------------------------------------------
# the per-event wait-state walker
# ---------------------------------------------------------------------------

# region kinds (classification of stack-top time)
_K_USER = 0  # -> comp
_K_MPI_P2P = 1
_K_MPI_COLL = 2
_K_OMP_PAR = 3  # -> omp_management
_K_OMP_FOR = 4  # -> comp (loop body is user computation)
_K_OMP_BAR = 5  # handled by barrier groups, not phase-A attribution

_P2P_REGIONS = {"MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Irecv", "MPI_Wait", "MPI_Waitall"}


def _classify(name: str) -> int:
    if name.startswith("MPI_"):
        return _K_MPI_P2P if name in _P2P_REGIONS else _K_MPI_COLL
    if name.startswith("omp_parallel"):
        return _K_OMP_PAR
    if name.startswith("omp_for"):
        return _K_OMP_FOR
    if name.startswith("omp_ibarrier") or name.startswith("omp_barrier"):
        return _K_OMP_BAR
    return _K_USER


def walker_analyze_trace(tt: TimestampedTrace) -> CubeProfile:
    """The per-event walk over ``tt`` (what ``analyze_trace`` computed
    before the analysis plan)."""
    trace = tt.trace
    return analyze_stream(
        _merged_chunks(trace, tt.times),
        mode=tt.mode,
        regions=trace.regions,
        locations=trace.locations,
        pinning=trace.pinning,
    )


#: events per chunk of walker lists: bounds the lists' memory
_WALK_CHUNK = 16384


def _merged_chunks(trace, times):
    """The walker's ``(loc, kind, region, aux, t)`` lists in merged order,
    :data:`_WALK_CHUNK` events at a time.

    Gathered from the trace's columnar view (which the clock replay has
    already built), or from the ``Ev`` attributes of traces whose
    payloads the columnar view rejects.
    """
    try:
        cols = trace.columns()
    except ColumnarConversionError:
        cols = None
        counts = [len(evs) for evs in trace.events]
        perm, loc = trace.merged_order()
        flat = list(chain.from_iterable(trace.events))
    else:
        counts = [len(lc) for lc in cols.locs]
        perm, loc = cols.merged_order()
        etype, region, aux_a, aux_b = (
            cols.column(f) for f in ("etype", "region", "aux_a", "aux_b"))
    if [len(t) for t in times] != counts:
        raise ValueError("timestamp arrays do not match the trace's events")
    t = np.concatenate(times).astype(np.float64, copy=False) if len(perm) else None
    for lo in range(0, len(perm), _WALK_CHUNK):
        part = perm[lo:lo + _WALK_CHUNK]
        if cols is None:
            evs = [flat[i] for i in part.tolist()]
            kinds = [ev.etype for ev in evs]
            regions = [ev.region for ev in evs]
            aux = [ev.aux for ev in evs]
        else:
            et = etype[part]
            kinds = et.tolist()
            regions = region[part].tolist()
            aux = aux_values(et, aux_a[part], aux_b[part])
        yield (loc[lo:lo + _WALK_CHUNK].tolist(), kinds, regions, aux,
               t[part].tolist())


def analyze_stream(chunks, *, mode, regions, locations, pinning=None) -> CubeProfile:
    """Wait-state analysis over events in merged order (the walker).

    ``chunks`` yields tuples of flat per-event lists ``(loc, kind,
    region, aux, t)`` -- location id, event kind, region id, ``Ev.aux``
    payload and the mode's timestamp -- which together list every event
    of the trace once, in merged order.  :func:`walker_analyze_trace` passes
    chunks of :data:`_WALK_CHUNK` events; an out-of-core archive passes
    one per shard (:func:`shard_event_lists`, physical time).  Walker
    state stays bounded by locations x call
    paths plus in-flight synchronisation groups.
    """
    n_loc = len(locations)

    system = SystemTree(
        locations,
        {r: pinning.node_of(r) for r in pinning.ranks} if pinning else {},
    )
    profile = CubeProfile(system, M.TIME_LEAVES, mode=mode)
    ct = profile.calltree
    root = ct.intern(())

    # region-id -> (name, kind), filled lazily
    kind_of: List[Optional[Tuple[str, int]]] = [None] * len(regions)

    def region_info(rid: int) -> Tuple[str, int]:
        info = kind_of[rid]
        if info is None:
            name = regions.name(rid)
            info = (name, _classify(name))
            kind_of[rid] = info
        return info

    # per-location walker state
    cp_stack: List[List[int]] = [[root] for _ in range(n_loc)]
    path_stack: List[List[tuple]] = [[()] for _ in range(n_loc)]
    kind_stack: List[List[int]] = [[_K_USER] for _ in range(n_loc)]
    enter_stack: List[List[float]] = [[0.0] for _ in range(n_loc)]
    last_ts: List[float] = [0.0] * n_loc
    started: List[bool] = [False] * n_loc

    loc_rank = [r for (r, _t) in locations]
    is_master = [t == 0 for (_r, t) in locations]
    threads_per_rank: Dict[int, int] = {}
    for (r, _t) in locations:
        threads_per_rank[r] = threads_per_rank.get(r, 0) + 1
    workers_of = {r: n - 1 for r, n in threads_per_rank.items()}
    in_par_depth: Dict[int, int] = {loc: 0 for loc in range(n_loc)}
    # Workers outside a team are idle; their gaps are accounted through the
    # master's serial time (x W), so their own dt must not be attributed.
    worker_idle: List[bool] = [not m for m in is_master]

    # child-callpath intern cache: (parent cpid, region id) -> cpid
    child_cache: Dict[Tuple[int, int], int] = {}

    def child_cp(parent: int, rid: int, parent_path: tuple, name: str) -> int:
        key = (parent, rid)
        cpid = child_cache.get(key)
        if cpid is None:
            cpid = ct.intern(parent_path + (name,))
            child_cache[key] = cpid
        return cpid

    # phase-A accumulators needing post-processing
    p2p_total: Dict[Tuple[int, int], float] = {}
    coll_total: Dict[Tuple[int, int], float] = {}
    ls_wait: Dict[Tuple[int, int], float] = {}
    lr_wait: Dict[Tuple[int, int], float] = {}
    coll_wait_cells: Dict[Tuple[int, int], float] = {}

    # delay-cost state (per rank, masters only)
    epoch: Dict[int, Dict[int, float]] = {r: {} for r in workers_of}

    # synchronisation bookkeeping
    sends: Dict[int, tuple] = {}  # match -> (ts, loc, cpid, rndv, epoch snapshot, rank)
    fork_info: Dict[int, Tuple[tuple, int]] = {}  # omp_id -> (path, cpid)
    coll_groups: Dict[int, dict] = {}
    bar_groups: Dict[int, dict] = {}

    add = profile.add_id

    for loc_l, kind_l, region_l, aux_l, t_l in chunks:
        for loc, et, rid, aux, t in zip(loc_l, kind_l, region_l, aux_l, t_l):
            rank = loc_rank[loc]
            master = is_master[loc]

            # ---- phase A: attribute the interval since the previous event ----
            if started[loc]:
                dt = t - last_ts[loc]
            else:
                dt = 0.0
                started[loc] = True
            last_ts[loc] = t

            if dt > 0.0 and not worker_idle[loc]:
                kstack = kind_stack[loc]
                kind = kstack[-1]
                cpid = cp_stack[loc][-1]
                if et == BURST:
                    name, _k = region_info(rid)
                    cpid = child_cp(cp_stack[loc][-1], rid, path_stack[loc][-1], name)
                    add(M.COMP, cpid, loc, dt)
                elif kind == _K_USER or kind == _K_OMP_FOR:
                    add(M.COMP, cpid, loc, dt)
                elif kind == _K_MPI_P2P:
                    key = (cpid, loc)
                    p2p_total[key] = p2p_total.get(key, 0.0) + dt
                elif kind == _K_MPI_COLL:
                    key = (cpid, loc)
                    coll_total[key] = coll_total.get(key, 0.0) + dt
                elif kind == _K_OMP_PAR:
                    add(M.OMP_MANAGEMENT, cpid, loc, dt)
                # _K_OMP_BAR: barrier groups split this interval below.

                if master:
                    if workers_of[rank] > 0 and in_par_depth[loc] == 0:
                        add(M.IDLE_THREADS, cpid, loc, dt * workers_of[rank])
                    ep = epoch[rank]
                    ep[cpid] = ep.get(cpid, 0.0) + dt

            # ---- stack / pattern effects of the event itself ----
            if et == ENTER:
                name, kind = region_info(rid)
                parent = cp_stack[loc][-1]
                cpid = child_cp(parent, rid, path_stack[loc][-1], name)
                cp_stack[loc].append(cpid)
                path_stack[loc].append(path_stack[loc][-1] + (name,))
                kind_stack[loc].append(kind)
                enter_stack[loc].append(t)
                if kind == _K_OMP_PAR and master:
                    in_par_depth[loc] += 1
            elif et == LEAVE:
                kind = kind_stack[loc][-1]
                if kind == _K_OMP_PAR and master:
                    in_par_depth[loc] -= 1
                cp_stack[loc].pop()
                path_stack[loc].pop()
                kind_stack[loc].pop()
                enter_stack[loc].pop()
            elif et == MPI_SEND:
                match_id, rndv = aux
                snap = dict(epoch[rank]) if master else {}
                sends[match_id] = (t, loc, cp_stack[loc][-1], rndv, snap, rank)
            elif et == MPI_RECV:
                send_ts, send_loc, send_cp, rndv, send_snap, _send_rank = sends.pop(aux)
                recv_enter = enter_stack[loc][-1]
                cpid = cp_stack[loc][-1]
                w = late_sender_wait(send_ts, recv_enter, t)
                if w > 0.0:
                    key = (cpid, loc)
                    ls_wait[key] = ls_wait.get(key, 0.0) + w
                    _attribute_delay(
                        profile, M.DELAY_LATESENDER, w, send_snap, epoch[rank], send_loc
                    )
                if rndv:
                    wlr = late_receiver_wait(send_ts, recv_enter, t)
                    if wlr > 0.0:
                        key = (send_cp, send_loc)
                        lr_wait[key] = lr_wait.get(key, 0.0) + wlr
            elif et == COLL_END:
                coll_id, size = aux
                name, _kind = region_info(rid)
                grp = coll_groups.setdefault(
                    coll_id, {"size": size, "members": [], "barrier": name == "MPI_Barrier"}
                )
                snap = dict(epoch[rank])
                epoch[rank] = {}
                grp["members"].append((loc, cp_stack[loc][-1], enter_stack[loc][-1], t, snap))
                if len(grp["members"]) == size:
                    _finish_collective(profile, grp, coll_wait_cells)
                    del coll_groups[coll_id]
            elif et == FORK:
                fork_info[aux] = (path_stack[loc][-1], cp_stack[loc][-1])
            elif et == JOIN:
                pass
            elif et == TEAM_BEGIN:
                base_path, base_cp = fork_info[aux]
                cp_stack[loc] = [base_cp]
                path_stack[loc] = [base_path]
                kind_stack[loc] = [_K_OMP_PAR]
                enter_stack[loc] = [t]
                worker_idle[loc] = False
            elif et == OBAR_ENTER:
                name, kind = region_info(rid)
                parent = cp_stack[loc][-1]
                cpid = child_cp(parent, rid, path_stack[loc][-1], name)
                cp_stack[loc].append(cpid)
                path_stack[loc].append(path_stack[loc][-1] + (name,))
                kind_stack[loc].append(kind)
                enter_stack[loc].append(t)
            elif et == OBAR_LEAVE:
                omp_id, size = aux
                grp = bar_groups.setdefault(omp_id, {"size": size, "members": []})
                grp["members"].append((loc, cp_stack[loc][-1], enter_stack[loc][-1], t))
                cp_stack[loc].pop()
                path_stack[loc].pop()
                kind_stack[loc].pop()
                enter_stack[loc].pop()
                if not master:
                    # The implicit barrier ends the worker's participation in
                    # this construct; it idles until the next TEAM_BEGIN.
                    worker_idle[loc] = True
                if len(grp["members"]) == size:
                    _finish_barrier(profile, grp)
                    del bar_groups[omp_id]
            # BURST: no stack effect (interval already attributed above)

    if coll_groups or bar_groups:
        raise AssertionError(
            f"incomplete synchronisation groups after replay: "
            f"{len(coll_groups)} collective, {len(bar_groups)} barrier"
        )
    if sends:
        raise AssertionError(f"{len(sends)} sends without matching receives")

    _split_p2p(profile, p2p_total, ls_wait, lr_wait)
    _split_collectives(profile, coll_total, coll_wait_cells)
    return profile


# ---------------------------------------------------------------------------
# pattern finalisation
# ---------------------------------------------------------------------------

def _finish_collective(
    profile: CubeProfile, grp: dict, cells: Dict[Tuple[int, int], float]
) -> None:
    members = grp["members"]
    enters = [m[2] for m in members]
    completion = max(m[3] for m in members)
    waits = nxn_waits(enters, completion)
    metric = M.MPI_COLL_WAIT_BARRIER if grp["barrier"] else M.MPI_COLL_WAIT_NXN
    for (m, w) in zip(members, waits):
        loc, cpid, _enter, _end, _snap = m
        if w > 0.0:
            profile.add_id(metric, cpid, loc, w)
            key = (cpid, loc)
            cells[key] = cells.get(key, 0.0) + w
    if grp["barrier"]:
        return
    # delay costs: the last rank to enter delayed everyone else
    delayer = max(range(len(members)), key=lambda j: enters[j])
    d_loc, _d_cp, _d_enter, _d_end, d_snap = members[delayer]
    for j, (m, w) in enumerate(zip(members, waits)):
        if j == delayer or w <= 0.0:
            continue
        _loc, _cpid, _enter, _end, snap = m
        _attribute_delay(profile, M.DELAY_N2N, w, d_snap, snap, d_loc)


def _attribute_delay(
    profile: CubeProfile,
    metric: str,
    wait: float,
    delayer_epoch: Dict[int, float],
    waiter_epoch: Dict[int, float],
    delayer_loc: int,
) -> None:
    """Distribute ``wait`` over call paths where the delayer did excess work."""
    diffs: Dict[int, float] = {}
    total = 0.0
    for cpid, v in delayer_epoch.items():
        d = v - waiter_epoch.get(cpid, 0.0)
        if d > 0.0:
            diffs[cpid] = d
            total += d
    if total <= 0.0:
        return
    scale = wait / total
    for cpid, d in diffs.items():
        profile.add_id(metric, cpid, delayer_loc, d * scale)


def _finish_barrier(profile: CubeProfile, grp: dict) -> None:
    members = grp["members"]
    waits, overheads = barrier_split([m[2] for m in members], [m[3] for m in members])
    for (m, w, o) in zip(members, waits, overheads):
        loc, cpid, _enter, _leave = m
        profile.add_id(M.OMP_BARRIER_WAIT, cpid, loc, w)
        profile.add_id(M.OMP_BARRIER_OVERHEAD, cpid, loc, o)


def _split_p2p(
    profile: CubeProfile,
    totals: Dict[Tuple[int, int], float],
    ls: Dict[Tuple[int, int], float],
    lr: Dict[Tuple[int, int], float],
) -> None:
    """Split total p2p time into late-sender / late-receiver / rest.

    Waits are capped by the cell's total MPI time so the time tree remains
    a partition of the measured execution.
    """
    for key in set(totals) | set(ls) | set(lr):
        total = totals.get(key, 0.0)
        w_ls = min(ls.get(key, 0.0), total)
        w_lr = min(lr.get(key, 0.0), total - w_ls)
        rest = total - w_ls - w_lr
        cpid, loc = key
        profile.add_id(M.MPI_P2P_LATESENDER, cpid, loc, w_ls)
        profile.add_id(M.MPI_P2P_LATERECEIVER, cpid, loc, w_lr)
        profile.add_id(M.MPI_P2P_REST, cpid, loc, rest)


def _split_collectives(
    profile: CubeProfile,
    totals: Dict[Tuple[int, int], float],
    waits: Dict[Tuple[int, int], float],
) -> None:
    """Remaining (non-wait) collective time per cell."""
    for key, total in totals.items():
        w = min(waits.get(key, 0.0), total)
        cpid, loc = key
        profile.add_id(M.MPI_COLL_REST, cpid, loc, total - w)

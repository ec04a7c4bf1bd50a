"""Wait-state analysis: a Scalasca-style profile from a timestamped trace.

In the active clock's units, the analysis computes

* exclusive time per (metric, call path, location) for computation, MPI
  and OpenMP management,
* wait-state severities: late sender / late receiver (point-to-point),
  Wait-at-NxN and Wait-at-Barrier (collectives), OpenMP barrier
  wait/overhead,
* idle-thread time: while a rank's master executes outside parallel
  regions, its W workers idle; the severity lands on the master's current
  call path scaled by W (this is why single-threaded routines like
  MiniFE's ``generate_matrix_structure`` dominate *idle_threads* without
  dominating *comp* -- paper Sec. V-C2),
* delay costs: for each NxN instance the *delayer* (last rank to enter)
  is identified and every other rank's waiting time is attributed to the
  call paths where the delayer spent more than the waiter since the last
  synchronisation point (a simplified form of Scalasca's root-cause
  analysis, see DESIGN.md "Known deviations"); late-sender waits are
  attributed the same way against the sender.

Everything the analysis decides except the timestamp arithmetic is fixed
by the trace: the call-path stack at every event, the class of the
interval ending at it, which send each receive pairs with, and which
arrivals form each collective and barrier (the last two read from the
trace's :class:`~repro.measure.columnar.SyncPlan`, which the clock replay
shares).  :func:`analyze_trace` compiles these once per trace into an
:class:`AnalysisPlan` (memoized on the
trace's :class:`~repro.measure.columnar.TraceColumns`, beside the clock
replay's plan) and evaluates each mode's timestamps against it in bulk:
interval metrics are ``np.bincount`` sums over the events whose interval
is positive, the waits come from the batch forms in
:mod:`repro.analysis.patterns`, and only the delay-cost epochs run in
Python, over master intervals and synchronisation events.

Profiles are byte-identical to those of the per-event walk the plan
replaced (kept as a test oracle): evaluation reproduces the walk's
call-path intern order, the order in which it created metrics and their
cells, and the left-to-right order of every cell's sum.

Because all formulas consume the clock's own timestamps, running the same
analyzer over tsc and logical timestamps reproduces the paper's central
comparison.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.analysis import metrics as M
from repro.analysis.patterns import (
    barrier_split_batch,
    late_receiver_wait_many,
    late_sender_wait_many,
    nxn_waits_batch,
)
from repro.clocks.base import TimestampedTrace
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    LEAVE,
    MPI_RECV,
    OBAR_ENTER,
    OBAR_LEAVE,
    TEAM_BEGIN,
)

__all__ = ["AnalysisPlan", "analyze_trace"]

# region kinds (classification of stack-top time)
_K_USER = 0  # -> comp
_K_MPI_P2P = 1
_K_MPI_COLL = 2
_K_OMP_PAR = 3  # -> omp_management
_K_OMP_FOR = 4  # -> comp (loop body is user computation)
_K_OMP_BAR = 5  # handled by barrier groups, not interval attribution

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


# interval classes: where the time since a location's previous event goes
_I_COMP = 0  # comp: user code, loop bodies, call bursts
_I_OMP = 1  # omp_management
_I_P2P = 2  # point-to-point total, split into waits and rest at the end
_I_COLL = 3  # collective total, likewise
_I_NONE = 4  # OpenMP barrier: the barrier groups split it
_I_SKIP = 5  # idle worker: its time is the master's idle_threads x W

#: interval class of the time spent in a frame, by the frame's region kind
_CLASS_OF_KIND = np.array([_I_COMP, _I_P2P, _I_COLL, _I_OMP, _I_COMP, _I_NONE],
                          dtype=np.int8)

#: stream entries the delay-cost loop converts to Python objects at a time
_CHUNK = 16384

# delay-epoch stream opcodes (interval work sorts before its event's op)
_OP_WORK = 0
_OP_SEND = 1
_OP_RECV = 2
_OP_COLL = 3


class AnalysisPlan:
    """The mode-independent part of the wait-state analysis of one trace.

    Per event, in the trace's merged order: ``cls``, the class of the
    interval ending at it (``_I_*``); ``cp``, that interval's call path
    (a plan path id; a BURST's interval is its child path); ``idle_w``,
    the idle-thread multiplier W (nonzero on masters outside parallel
    regions); ``master``, the master flag.  ``paths`` lists the call
    paths (name tuples) by plan id, root first, and ``cand_pos`` /
    ``cand_pid`` / ``cand_cond`` the events that intern one, in merged
    order -- ``cand_cond`` marks a BURST's child, interned only when its
    interval is positive.

    ``pairs`` holds the matched messages in receive order, ``colls`` and
    ``bars`` the collective and OpenMP-barrier groups in completion order
    (members flat, in arrival order, group ``g`` from ``starts[g]``), and
    ``ops`` the synchronisation events of the delay-cost epochs in merged
    order.  Positions are merged positions; an enter position of -1 is
    the root frame's enter time, 0.0.
    """

    __slots__ = ("perm", "loc", "starts", "rank_of", "cls", "cp", "idle_w",
                 "master", "paths", "cand_pos", "cand_pid", "cand_cond",
                 "pairs", "colls", "bars", "ops")

    @property
    def n_events(self) -> int:
        return len(self.perm)


def analyze_trace(tt: TimestampedTrace) -> CubeProfile:
    """Analyze ``tt`` and return the profile (severities in clock units).

    The first analysis of a trace compiles its :class:`AnalysisPlan`;
    later ones, in any mode, reuse it.
    """
    trace = tt.trace
    cols = trace.columns()
    counts = [len(lc) for lc in cols.locs]
    if [len(t) for t in tt.times] != counts:
        raise ValueError("timestamp arrays do not match the trace's events")
    plan = cols._analysis_plan
    if plan is None:
        with obs.span("analysis.plan_compile", events=sum(counts)):
            plan = cols._analysis_plan = _compile_columns(cols)
        obs.counter("analysis.plan_compiles").inc()
    pinning = trace.pinning
    system = SystemTree(
        trace.locations,
        {r: pinning.node_of(r) for r in pinning.ranks} if pinning else {},
    )
    with obs.span("analysis.evaluate", events=plan.n_events):
        return _evaluate(plan, tt.times, tt.mode, system)


# ---------------------------------------------------------------------------
# compile (once per trace)
# ---------------------------------------------------------------------------

def _compile_columns(cols) -> AnalysisPlan:
    """The plan of a columnar trace, from its kind and region columns and
    its synchronisation plan."""
    perm, loc = cols.merged_order()
    return _compile(cols.column("etype").astype(np.int8),
                    cols.column("region").astype(np.int32),
                    [len(lc) for lc in cols.locs], perm, loc,
                    cols.sync_plan(), cols.locations, cols.regions)


def _compile(etype, region, counts, perm, loc, sync, locations,
             regions) -> AnalysisPlan:
    """Compile the analysis of one trace.

    ``etype`` and ``region`` list every event location-major, ``counts``
    per location; ``perm``/``loc`` are the merged order and ``sync`` the
    trace's :class:`~repro.measure.columnar.SyncPlan`.  Raises the walk's
    errors for malformed traces: ``KeyError`` for a receive without its
    send or a team without its fork, ``AssertionError`` for incomplete
    groups or unmatched sends.
    """
    n = len(etype)
    n_loc = len(locations)
    bounds = np.cumsum([0] + list(counts))
    loc_f = np.repeat(np.arange(n_loc, dtype=np.int32), counts)
    mpos = np.empty(n, dtype=np.int32)  # merged position of every event
    mpos[perm] = np.arange(n, dtype=np.int32)
    barrier = np.array([nm == "MPI_Barrier" for nm in regions.names],
                       dtype=bool)
    sy = _sync_edges(sync, barrier[region[sync.flat]])

    # -- the region stack: depth, frame and call path of every event ----
    push = (etype == ENTER) | (etype == OBAR_ENTER)
    team = etype == TEAM_BEGIN
    delta = push.astype(np.int32)
    delta -= (etype == LEAVE) | (etype == OBAR_LEAVE)
    # segments: a location's events up to its first team begin, then one
    # per team begin (which resets the stack to the fork's frame)
    boundary = team.copy()
    boundary[bounds[:-1][np.asarray(counts, dtype=np.int64) > 0]] = True
    seg_first = np.flatnonzero(boundary)
    seg = np.cumsum(boundary, dtype=np.int32) - 1
    del boundary
    depth = np.cumsum(delta, dtype=np.int32)  # stack depth after the event
    depth -= (depth[seg_first] - delta[seg_first])[seg]
    if n and int(depth.min()) < 0:
        raise IndexError("a LEAVE pops an empty region stack")
    before = depth - delta  # depth in front of the event: its frame's level
    del delta
    # an event's frame is the last push at its depth; pushes are numbered
    # by their slot in push_idx, and slot -1 -- the last entry of the
    # slot-indexed arrays below -- is the segment's base frame
    push_idx = np.flatnonzero(push).astype(np.int32)
    del push
    n_push = len(push_idx)
    push_depth = depth[push_idx]
    del depth
    key_type = np.int32 if (int(push_depth.max(initial=0)) + 1) * n < 2**31 \
        else np.int64
    keys = push_depth.astype(key_type) * n + push_idx
    by_key = np.append(np.argsort(keys, kind="stable"), -1).astype(np.int32)
    keys = keys[by_key[:-1]]
    query = before.astype(key_type)
    query *= n
    query += np.arange(n, dtype=key_type)
    hit = np.searchsorted(keys, query, side="right") - 1
    del keys, query
    frame_slot = np.where(before > 0, by_key[hit], -1).astype(np.int32)
    del hit, by_key, before

    canon: Dict[str, int] = {}
    nid_of_region = np.array([canon.setdefault(nm, len(canon))
                              for nm in regions.names], dtype=np.int32)
    names = list(canon)
    n_names = max(len(names), 1)
    kind_of_nid = np.array([_classify(nm) for nm in names], dtype=np.int8)
    paths: List[tuple] = [()]
    child: Dict[int, int] = {}

    def intern(parents: np.ndarray, nids: np.ndarray) -> np.ndarray:
        """Plan path ids of the children ``(parent, name)``."""
        u, inv = np.unique(parents.astype(np.int64) * n_names + nids,
                           return_inverse=True)
        ids = []
        for k in u.tolist():
            pid = child.get(k)
            if pid is None:
                parent, nid = divmod(k, n_names)
                pid = child[k] = len(paths)
                paths.append(paths[parent] + (names[nid],))
            ids.append(pid)
        return np.array(ids, dtype=np.int32)[inv]

    seg_team = team[seg_first]
    seg_base = np.where(seg_team, -1, 0).astype(np.int32)  # 0: the root path
    team_segs = np.flatnonzero(seg_team)
    # team begins in location-major order are exactly the team segments
    fork_of_team = sy["fork"][np.argsort(sy["team"], kind="stable")]
    push_nid = nid_of_region[region[push_idx]]
    push_seg = seg[push_idx]
    own = np.full(n_push + 1, -1, dtype=np.int32)  # the path a push opens
    by_depth = np.argsort(push_depth, kind="stable")
    depth_lo = np.searchsorted(push_depth[by_depth],
                               np.arange(1, int(push_depth.max(initial=0)) + 2))
    del push_depth
    # call paths one depth level at a time: masters first, then the teams
    # whose fork's frame is known, until every segment has its base
    done = np.zeros(n_push, dtype=bool)
    while True:
        ready = ~done & (seg_base[push_seg] >= 0)
        for lo, hi in zip(depth_lo[:-1].tolist(), depth_lo[1:].tolist()):
            sel = by_depth[lo:hi]
            sel = sel[ready[sel]]
            if len(sel):
                parent = frame_slot[push_idx[sel]]
                own[sel] = intern(
                    np.where(parent >= 0, own[parent], seg_base[push_seg[sel]]),
                    push_nid[sel])
        done |= ready
        pending = np.flatnonzero(seg_base[team_segs] < 0)
        if not len(pending):
            break
        forks = fork_of_team[pending]
        slot = frame_slot[forks]
        base = np.where(slot >= 0, own[slot], seg_base[seg[forks]])
        if not (base >= 0).any():
            raise AssertionError("teams forked from frames that never resolve")
        seg_base[team_segs[pending]] = base
    del done, by_depth, push_seg
    frame_pid = np.where(frame_slot >= 0, own[frame_slot], seg_base[seg])
    burst = np.flatnonzero(etype == BURST).astype(np.int32)
    burst_pid = intern(frame_pid[burst], nid_of_region[region[burst]])
    del region

    # -- interval classes ------------------------------------------------
    master_loc = np.array([t == 0 for _r, t in locations], dtype=bool)
    master = master_loc[loc_f]
    push_kind = np.append(kind_of_nid[push_nid], _K_USER)
    kind = np.where(frame_slot >= 0, push_kind[frame_slot],
                    np.where(seg_team, np.int8(_K_OMP_PAR), np.int8(_K_USER))[seg])
    cls = _CLASS_OF_KIND[kind]
    cls[burst] = _I_COMP
    # workers idle until a team begins and again after its barrier
    toggle = team | ((etype == OBAR_LEAVE) & ~master)
    last = np.maximum.accumulate(np.where(toggle, np.arange(n, dtype=np.int32),
                                          np.int32(-1)))
    prev = np.roll(last, 1)  # the last toggle strictly in front
    prev[:1] = -1
    del toggle, last
    idle = np.where(prev >= bounds.astype(np.int32)[loc_f], ~team[prev], ~master)
    cls[idle] = _I_SKIP
    del prev, idle
    # idle threads: masters outside parallel regions, W = the rank's workers
    ranks = [r for r, _t in locations]
    n_threads = Counter(ranks)
    workers = np.array([n_threads[r] - 1 for r in ranks], dtype=np.int32)
    par = np.zeros(n, dtype=np.int32)
    par[push_idx[(etype[push_idx] == ENTER) & (push_kind[:-1] == _K_OMP_PAR)]] = 1
    par[(etype == LEAVE) & (kind == _K_OMP_PAR)] = -1
    par[~master] = 0
    in_par = np.cumsum(par, dtype=np.int32)
    in_par -= par  # parallel regions open in front of the event
    firsts = bounds[:-1][np.asarray(counts) > 0]
    in_par -= np.repeat(in_par[firsts], np.diff(np.append(firsts, n)))
    idle_w = np.where(master & (in_par == 0), workers[loc_f], 0).astype(
        np.min_scalar_type(int(workers.max(initial=0))))
    del par, in_par, kind, push_kind

    # -- synchronisation: frames and enter events of the members ----------
    push_mpos = np.append(mpos[push_idx], -1)

    def enter_pos(fs: np.ndarray) -> np.ndarray:
        slot = frame_slot[fs]
        s = seg[fs]
        return np.where(slot >= 0, push_mpos[slot],
                        np.where(seg_team[s], mpos[seg_first[s]], -1))

    def members(fs: np.ndarray, sizes: np.ndarray, end_key: str) -> dict:
        starts = np.cumsum(sizes) - sizes
        return {"loc": loc_f[fs], "cp": frame_pid[fs], "enter": enter_pos(fs),
                end_key: mpos[fs], "starts": starts,
                "done": mpos[fs[starts + sizes - 1]]}

    recv_f, send_f, coll_f = sy["recv"], sy["send"], sy["coll"]
    plan_pairs = {
        "recv": mpos[recv_f], "send": mpos[send_f], "enter": enter_pos(recv_f),
        "recv_cp": frame_pid[recv_f], "recv_loc": loc_f[recv_f],
        "send_cp": frame_pid[send_f], "send_loc": loc_f[send_f],
        "rndv": sy["rndv"],
    }
    plan_colls = members(coll_f, sy["coll_sizes"], "end")
    plan_colls["barrier"] = sy["coll_barrier"]
    plan_bars = members(sy["bar"], sy["bar_sizes"], "leave")
    del frame_slot, seg, push_mpos

    # delay-cost epochs: sends, receives and collective members, merged
    rank_loc = np.array(ranks, dtype=np.int64)
    last_member = np.full(len(coll_f), -1, dtype=np.int64)
    last_member[plan_colls["starts"] + sy["coll_sizes"] - 1] = np.arange(
        len(plan_colls["starts"]))
    n_pair = len(recv_f)
    op_pos = np.concatenate((plan_pairs["send"], plan_pairs["recv"],
                             mpos[coll_f])).astype(np.int64)
    order = np.argsort(op_pos, kind="stable")
    ops = {
        "code": np.repeat(np.array([_OP_SEND, _OP_RECV, _OP_COLL], dtype=np.int8),
                          [n_pair, n_pair, len(coll_f)])[order],
        "arg": np.concatenate((np.arange(n_pair), np.arange(n_pair),
                               np.arange(len(coll_f))))[order],
        "rank": rank_loc[loc_f[np.concatenate((send_f, recv_f, coll_f))]][order],
        "pos": op_pos[order],
        "send_master": master[send_f],
        "completes": last_member,
    }
    del op_pos, order, recv_f, send_f, coll_f, loc_f, sy

    plan = AnalysisPlan()
    plan.perm, plan.loc = perm, loc
    plan.starts = bounds
    plan.rank_of = rank_loc
    plan.paths = paths
    plan.pairs, plan.colls, plan.bars, plan.ops = (plan_pairs, plan_colls,
                                                   plan_bars, ops)
    cand_pos = mpos[np.concatenate((push_idx, burst))]
    del mpos
    order = np.argsort(cand_pos, kind="stable")
    plan.cand_pos = cand_pos[order]
    plan.cand_pid = np.concatenate((own[:-1], burst_pid))[order]
    plan.cand_cond = (np.arange(len(order)) >= len(push_idx))[order]
    del cand_pos, order, own, push_idx
    frame_pid[burst] = burst_pid  # a BURST's interval is its child path
    plan.cp = frame_pid.astype(np.min_scalar_type(len(paths)))[perm]
    del frame_pid
    plan.cls = cls[perm]
    del cls
    plan.idle_w = idle_w[perm]
    del idle_w
    plan.master = master[perm]
    return plan


def _sync_edges(sync, barrier: np.ndarray) -> Dict[str, np.ndarray]:
    """The analysis' view of the trace's synchronisation plan ``sync``, as
    location-major event indices: the pairs in receive order (``recv``,
    ``send``, ``rndv``), the members of the complete collective and
    barrier groups flat in completion and arrival order with the group
    sizes (``barrier`` flags the slots in ``MPI_Barrier``; a collective
    group is one when its first arrival is), and the team begins with
    their forks (``team``, ``fork``).

    Raises the walk's errors: ``KeyError`` at the first receive or team
    begin, in merged order, that nothing gives a clock, then
    ``AssertionError`` for open groups and unreceived sends.
    """
    kind, src, flat = sync.kind, sync.src, sync.flat
    if len(sync.unsourced):
        raise KeyError(int(sync.a[sync.unsourced[0]]))
    n_c = sync.n_complete
    sizes = np.diff(sync.starts)
    g_kind = kind[sync.members[sync.starts[:-1]]]
    n_open = [int(np.count_nonzero(g_kind[n_c:] == k))
              for k in (COLL_END, OBAR_LEAVE)]
    if any(n_open):
        raise AssertionError(
            f"incomplete synchronisation groups after replay: "
            f"{n_open[0]} collective, {n_open[1]} barrier"
        )
    if len(sync.unreceived):
        raise AssertionError(
            f"{len(sync.unreceived)} sends without matching receives")
    recv = np.flatnonzero(kind == MPI_RECV)
    team = np.flatnonzero(kind == TEAM_BEGIN)
    out = {"recv": flat[recv], "send": flat[src[recv]],
           "rndv": sync.b[src[recv]] != 0,
           "team": flat[team], "fork": flat[src[team]]}
    member_kind = np.repeat(g_kind, sizes)
    closed = np.arange(len(sync.members)) < sync.starts[n_c]
    for key, k in (("coll", COLL_END), ("bar", OBAR_LEAVE)):
        out[key] = flat[sync.members[closed & (member_kind == k)]]
        out[key + "_sizes"] = sizes[:n_c][g_kind[:n_c] == k]
    firsts = sync.members[sync.starts[:n_c]]
    out["coll_barrier"] = barrier[firsts[g_kind[:n_c] == COLL_END]]
    return out


# ---------------------------------------------------------------------------
# evaluate (once per mode)
# ---------------------------------------------------------------------------

def _cells(keys: np.ndarray, values: np.ndarray,
           n_loc: int) -> Dict[Tuple[int, int], float]:
    """``{(cpid, loc): sum}`` of ``values`` by cell key ``cpid * n_loc +
    loc``: cells in first-occurrence order, each summed left to right
    (``np.bincount`` adds in input order, as the walk did)."""
    u, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inv, weights=values, minlength=len(u))
    order = np.argsort(first, kind="stable")
    u = u[order]
    return dict(zip(zip((u // n_loc).tolist(), (u % n_loc).tolist()),
                    sums[order].tolist()))


def _evaluate(plan: AnalysisPlan, times, mode: str,
              system: SystemTree) -> CubeProfile:
    n = plan.n_events
    n_loc = len(plan.starts) - 1
    t = (np.concatenate(times).astype(np.float64, copy=False) if n
         else np.empty(0, dtype=np.float64))
    dt = np.zeros(n, dtype=np.float64)
    np.subtract(t[1:], t[:-1], out=dt[1:])
    starts = plan.starts[:-1]
    dt[starts[starts < n]] = 0.0
    dt = dt[plan.perm]
    t = t[plan.perm]

    active = (dt > 0.0) & (plan.cls != _I_SKIP)
    # intern order: every push, and a BURST child only if its interval counts
    keep = ~plan.cand_cond | active[plan.cand_pos]
    pids, first = np.unique(plan.cand_pid[keep], return_index=True)
    profile = CubeProfile(system, M.TIME_LEAVES, mode=mode)
    ct = profile.calltree
    remap = np.full(len(plan.paths), -1, dtype=np.int64)
    remap[0] = ct.intern(())
    interned = pids[np.argsort(first, kind="stable")].tolist()
    remap[interned] = [ct.intern(plan.paths[p]) for p in interned]
    del keep, pids, first

    # (first add, metric, cells); the first add orders metric creation:
    # merged position, then the walk's order inside the event
    found = []

    def found_at(metric, first_key, cells):
        if cells:
            found.append((first_key, metric, cells))

    pos = np.flatnonzero(active)
    del active
    cls = plan.cls[pos]
    cpk = remap[plan.cp[pos]]
    key = cpk * n_loc + plan.loc[pos]
    d = dt[pos]
    del dt
    for c, metric in ((_I_COMP, M.COMP), (_I_OMP, M.OMP_MANAGEMENT)):
        s = cls == c
        if s.any():
            found_at(metric, (int(pos[s][0]), 0),
                     _cells(key[s], d[s], n_loc))
    s = cls == _I_P2P
    p2p_total = _cells(key[s], d[s], n_loc)
    s = cls == _I_COLL
    coll_total = _cells(key[s], d[s], n_loc)
    w = plan.idle_w[pos]
    s = w > 0
    if s.any():
        found_at(M.IDLE_THREADS, (int(pos[s][0]), 1),
                 _cells(key[s], d[s] * w[s], n_loc))
    s = plan.master[pos]
    work = (pos[s], cpk[s], plan.rank_of[plan.loc[pos[s]]], d[s])
    del pos, cls, cpk, key, d, w, s

    pr = plan.pairs
    recv_t = t[pr["recv"]]
    send_t = t[pr["send"]]
    enter_t = np.where(pr["enter"] >= 0, t[pr["enter"]], 0.0)
    ls = late_sender_wait_many(send_t, enter_t, recv_t)
    lr = late_receiver_wait_many(send_t, enter_t, recv_t)
    s = ls > 0.0
    ls_cells = _cells(remap[pr["recv_cp"][s]] * n_loc + pr["recv_loc"][s],
                      ls[s], n_loc)
    s = pr["rndv"] & (lr > 0.0)
    lr_cells = _cells(remap[pr["send_cp"][s]] * n_loc + pr["send_loc"][s],
                      lr[s], n_loc)

    co = plan.colls
    coll_wait: Dict[Tuple[int, int], float] = {}
    n2n = {}
    if len(co["starts"]):
        enters = np.where(co["enter"] >= 0, t[co["enter"]], 0.0)
        done = np.maximum.reduceat(t[co["end"]], co["starts"])
        waits = nxn_waits_batch(enters, co["starts"], done)
        key = remap[co["cp"]] * n_loc + co["loc"]
        positive = waits > 0.0
        coll_wait = _cells(key[positive], waits[positive], n_loc)
        barrier = np.repeat(co["barrier"], np.diff(np.append(co["starts"],
                                                             len(waits))))
        for metric, s in ((M.MPI_COLL_WAIT_BARRIER, positive & barrier),
                          (M.MPI_COLL_WAIT_NXN, positive & ~barrier)):
            if s.any():
                found_at(metric, _member_key(co, np.flatnonzero(s)[0], 2),
                         _cells(key[s], waits[s], n_loc))
        n2n = _delayers(co, enters, waits)

    ba = plan.bars
    if len(ba["starts"]):
        enters = np.where(ba["enter"] >= 0, t[ba["enter"]], 0.0)
        bw, bo = barrier_split_batch(enters, t[ba["leave"]], ba["starts"])
        key = remap[ba["cp"]] * n_loc + ba["loc"]
        for metric, values, k in ((M.OMP_BARRIER_WAIT, bw, 0),
                                  (M.OMP_BARRIER_OVERHEAD, bo, 1)):
            s = values != 0.0
            if s.any():
                found_at(metric, _member_key(ba, np.flatnonzero(s)[0], 2) + (k,),
                         _cells(key[s], values[s], n_loc))
    del t

    delay_ls, delay_n2n, first_ls, first_n2n = _delay_costs(
        plan, work, ls, n2n)
    if first_ls is not None:
        found_at(M.DELAY_LATESENDER, (int(pr["recv"][first_ls]), 2), delay_ls)
    if first_n2n is not None:
        found_at(M.DELAY_N2N, (int(co["done"][first_n2n]), 3), delay_n2n)

    for _first, metric, cells in sorted(found, key=lambda f: f[0]):
        profile.set_cells(metric, cells)
    _split_p2p(profile, p2p_total, ls_cells, lr_cells)
    _split_collectives(profile, coll_total, coll_wait)
    return profile


def _member_key(groups: dict, j: int, sub: int) -> tuple:
    """Creation key of a group metric whose first add is flat member ``j``."""
    g = int(np.searchsorted(groups["starts"], j, side="right")) - 1
    return (int(groups["done"][g]), sub, j - int(groups["starts"][g]))


def _delayers(co: dict, enters: np.ndarray, waits: np.ndarray) -> dict:
    """``{group: (delayer member, [(waiter member, wait), ...])}`` for the
    NxN groups with waits to attribute (the delayer entered last)."""
    out = {}
    bounds = np.append(co["starts"], len(waits)).tolist()
    has = np.logical_or.reduceat(waits > 0.0, co["starts"])
    for g in np.flatnonzero(has & ~co["barrier"]).tolist():
        lo, hi = bounds[g], bounds[g + 1]
        e = enters[lo:hi].tolist()
        delayer = max(range(len(e)), key=e.__getitem__)
        waiting = [(lo + j, w) for j, w in enumerate(waits[lo:hi].tolist())
                   if j != delayer and w > 0.0]
        if waiting:
            out[g] = (lo + delayer, waiting)
    return out


def _delay_costs(plan: AnalysisPlan, work, ls: np.ndarray, n2n: dict):
    """Delay costs from the per-rank epochs: call path -> time since the
    rank's last collective, snapshotted at sends and collective ends.

    ``work`` holds the master intervals ``(pos, cpid, rank, dt)``.  Walks
    them merged with the plan's synchronisation stream; returns the late-
    sender and NxN delay cells and the receive / group of their first add.
    """
    ops = plan.ops
    w_pos, w_cp, w_rank, w_dt = work
    keys = np.concatenate((w_pos * 2, ops["pos"] * 2 + 1))
    order = np.argsort(keys, kind="stable")
    del keys
    nw = len(w_pos)
    code = np.concatenate((np.full(nw, _OP_WORK, dtype=np.int8), ops["code"]))[order]
    arg = np.concatenate((w_cp, ops["arg"]))[order]
    rank = np.concatenate((w_rank, ops["rank"]))[order]
    value = np.concatenate((w_dt, np.zeros(len(ops["pos"]))))[order]
    del order

    pr, co = plan.pairs, plan.colls
    need = (ls > 0.0).tolist()
    send_master = ops["send_master"].tolist()
    send_loc = pr["send_loc"].tolist()
    coll_loc = co["loc"].tolist()
    completes = ops["completes"].tolist()
    ls_l = ls.tolist()
    epoch: Dict[int, Dict[int, float]] = {r: {} for r in plan.rank_of.tolist()}
    send_snap: Dict[int, Dict[int, float]] = {}
    coll_snap: List[Dict[int, float]] = [None] * len(coll_loc)
    delay_ls: Dict[Tuple[int, int], float] = {}
    delay_n2n: Dict[Tuple[int, int], float] = {}
    first_ls = first_n2n = None
    for c, a, r, v in chain.from_iterable(
            zip(code[lo:lo + _CHUNK].tolist(), arg[lo:lo + _CHUNK].tolist(),
                rank[lo:lo + _CHUNK].tolist(), value[lo:lo + _CHUNK].tolist())
            for lo in range(0, len(code), _CHUNK)):
        if c == _OP_WORK:
            ep = epoch[r]
            ep[a] = ep.get(a, 0.0) + v
        elif c == _OP_SEND:
            if need[a]:
                send_snap[a] = dict(epoch[r]) if send_master[a] else {}
        elif c == _OP_RECV:
            if need[a]:
                _attribute_delay(delay_ls, ls_l[a], send_snap.pop(a),
                                 epoch[r], send_loc[a])
                if first_ls is None and delay_ls:
                    first_ls = a
        else:
            coll_snap[a] = epoch[r]
            epoch[r] = {}
            g = completes[a]
            if g >= 0 and g in n2n:
                delayer, waiting = n2n[g]
                d_snap, d_loc = coll_snap[delayer], coll_loc[delayer]
                for j, w in waiting:
                    _attribute_delay(delay_n2n, w, d_snap, coll_snap[j], d_loc)
                if first_n2n is None and delay_n2n:
                    first_n2n = g
    return delay_ls, delay_n2n, first_ls, first_n2n


def _attribute_delay(
    cells: Dict[Tuple[int, int], float],
    wait: float,
    delayer_epoch: Dict[int, float],
    waiter_epoch: Dict[int, float],
    delayer_loc: int,
) -> None:
    """Distribute ``wait`` over call paths where the delayer did excess work."""
    diffs = []
    total = 0.0
    for cpid, v in delayer_epoch.items():
        d = v - waiter_epoch.get(cpid, 0.0)
        if d > 0.0:
            diffs.append((cpid, d))
            total += d
    if total <= 0.0:
        return
    scale = wait / total
    for cpid, d in diffs:
        v = d * scale
        if v != 0.0:
            key = (cpid, delayer_loc)
            cells[key] = cells.get(key, 0.0) + v


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

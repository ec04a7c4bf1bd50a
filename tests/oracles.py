"""Test-only oracles.

:class:`HeapEngine` is the per-event engine that
:class:`~repro.sim.engine.Engine` must equal bit for bit: one heap pop
per action with no run-slicing, and every compute-shaped action priced
call by call through :func:`kernel_time`, the executable reference of
the roofline in :mod:`repro.sim.costmodel`, instead of the engine's
per-site caches (:mod:`repro.sim.fastpath`).

:class:`EvListMeasurement` keeps the storage the measurement used before
traces were born as columns: one list of :class:`~repro.sim.events.Ev`
objects per location.  Its sinks build an ``Ev`` from each event's
fields, so its finished trace is event-backed.  :func:`event_bits` is
the field-for-field comparison key.

:class:`PerKeyNetworkNoise` is the network noise with one generator per
key, which :class:`~repro.machine.noise.NetworkNoise` replaced with
first draws derived in blocks; its factors are the reference those must
equal bit for bit.

:func:`walker_analyze_trace` is the per-event wait-state walk that
:func:`repro.analysis.analyze_trace` replaced with its compiled analysis
plan; :func:`analyze_stream` runs it over flat per-event lists in merged
order, from a trace (:func:`_merged_chunks`) or from the shards of an
out-of-core archive (:func:`shard_event_lists`).  Its profiles are the
reference the plan must reproduce byte for byte.

:class:`LamportClock` is Algorithm 1 walked event by event over
``trace.merged()`` with the per-event increment callables
(:func:`make_increment`, :class:`HwCounterIncrement`); it also records
each location's final counter.  :func:`lamport_replay` runs it for any
mode.  Its times and finals are the reference the compiled replay plan
(:mod:`repro.clocks.columnar`) -- and with it ``timestamp_trace``,
``stream_clock_replay`` and the DAG's clocks -- must equal bit for bit.
:func:`walker_build_dag` is the DAG built by that walk, the reference of
:func:`repro.causal.build_dag` node for node (:func:`dag_nodes`).
:class:`VectorClock` and :class:`LazyLamportClock` are the paper's
extension clocks (exact causality, deferred merging), kept as study
references.

:func:`walker_sanitize_raw` (the incremental :class:`StructuralPass` fed
one location at a time), :func:`walker_check_timestamps` and
:func:`walker_find_races` (one vector-clock step per event of
``trace.merged()``) are the per-event sanitizer and race detector that
:func:`repro.verify.sanitize_raw`, :func:`repro.verify.check_timestamps`
and :func:`repro.verify.find_races` replaced with columnar passes over the
trace's synchronisation plan; their findings are the reference those
must equal list for list, witnesses included.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.analysis import metrics as M
from repro.analysis.patterns import barrier_split, late_receiver_wait, late_sender_wait, nxn_waits
from repro.causal.dag import TERMINAL, CausalDag
from repro.clocks.base import TimestampedTrace
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.machine.noise import CounterNoise, NoiseConfig, _lognormal_factor
from repro.measure import Measurement, RawTrace
from repro.measure.columnar import ColumnarConversionError, aux_values
from repro.measure.config import (
    LOGICAL_MODES,
    LT1,
    LTBB,
    LTHWCTR,
    LTLOOP,
    LTSTMT,
    TSC,
    X_BB_PER_OMP_CALL,
    Y_STMT_PER_OMP_CALL,
    validate_mode,
)
from repro.measure.measurement import RECORD_WIDTH
from repro.sim import actions as A
from repro.sim.engine import Engine, SimCrashError
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    FAULT,
    FORK,
    JOIN,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_ENTER,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
    Ev,
    Paradigm,
)
from repro.sim.kernels import EMPTY_DELTA, WorkDelta
from repro.util.rng import RngStreams
from repro.verify.diagnostics import Diagnostic
from repro.verify.races import (
    _ANY_REGIONS,
    _SHARED_WRITE_PREFIX,
    RaceReport,
    _EvRef,
    _report,
)
from repro.verify.sanitizer import _MAX_PER_RULE


# ---------------------------------------------------------------------------
# the per-event engine
# ---------------------------------------------------------------------------

def kernel_time(cost, kernel, units, ctx, extra_flop_time=0.0) -> float:
    """Seconds for ``units`` units of ``kernel`` under the
    :class:`~repro.sim.costmodel.ComputeContext` ``ctx``, priced from
    scratch on the :class:`~repro.sim.costmodel.CostModel` ``cost``,
    with the memory, jitter, CPU and OS noise of ``cost.noise`` if any.

    ``extra_flop_time`` is instrumentation time added to the compute side
    of the roofline (hidden when the kernel is memory-bound).
    """
    t_flops = units * kernel.flops_per_unit / cost.cluster.flops_per_core
    nbytes = units * kernel.bytes_per_unit

    if nbytes <= 0.0 or kernel.memory_scope == "none":
        base = t_flops + extra_flop_time
    else:
        cache_factor = cost.cache.bandwidth_factor(
            ctx.cache_working_set, ctx.cache_extra_footprint
        )
        scope_bw = cost._scope_bandwidth(kernel, ctx)
        solo_bw = min(cost.memory.per_core_bw_cap, scope_bw) * cache_factor
        solo = nbytes / solo_bw if kernel.additive else max(t_flops, nbytes / solo_bw)
        relief = ctx.overlap_factor if kernel.memory_scope == "socket" else 1.0
        # effective accessors: the own team overlaps fully, other ranks'
        # threads with a desynchronisation credit
        team = max(1, ctx.team_actors)
        if ctx.other_actors <= 0:
            a_eff = float(team)
        else:
            overlap = 1.0 if solo <= 0.0 else math.exp(-max(ctx.desync, 0.0) / solo)
            overlap *= min(1.0, max(0.0, relief))
            a_eff = team + ctx.other_actors * overlap
        per_actor_bw = min(
            scope_bw / (a_eff**cost.memory.contention_exponent),
            cost.memory.per_core_bw_cap,
        )
        per_actor_bw *= cache_factor
        if ctx.team_cross_socket:
            per_actor_bw *= cost.cross_socket_factor
        if cost.noise is not None:
            per_actor_bw *= cost.noise.memory.factor(ctx.numa_id)
        t_mem = nbytes / per_actor_bw
        if kernel.additive:
            base = t_flops + extra_flop_time + t_mem * relief
        else:
            base = max(t_flops + extra_flop_time, t_mem)

    if cost.noise is not None:
        if kernel.jitter > 0.0:
            rng = cost.noise.rngs.get("kernel-jitter", rank=ctx.rank, thread=ctx.thread)
            base *= float(np.exp(rng.normal(-0.5 * kernel.jitter**2, kernel.jitter)))
        return cost.noise.compute_time(ctx.rank, ctx.thread, base)
    return base


class HeapEngine(Engine):
    """:class:`~repro.sim.engine.Engine` one heap pop per action, with
    Compute, CallBurst and ParallelFor priced call by call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pushes = 0

    def _push(self, state) -> None:
        self._pushes += 1
        heapq.heappush(self._heap, (state.t, self._pushes, state.rank, state.epoch))

    def _drain(self) -> int:
        n_done = 0
        while self._heap:
            _t, _seq, r, epoch = heapq.heappop(self._heap)
            state = self._ranks[r]
            if state.done or state.blocked or epoch != state.epoch:
                continue
            cp = self._crashes.get(r)
            if cp is not None and (
                state.n_actions >= cp.at if cp.trigger == "progress" else state.t >= cp.at
            ):
                del self._crashes[r]
                raise SimCrashError(cp, self._ckpt_count, max(self._rank_time.values()))
            try:
                action = state.gen.send(state.pending_result)
            except StopIteration:
                state.done = True
                self._rank_time[r] = state.t
                n_done += 1
                continue
            state.pending_result = None
            state.n_actions += 1
            epoch_before = state.epoch
            self._dispatch(state, action)
            self._rank_time[r] = max(self._rank_time[r], state.t)
            if not state.blocked and not state.done and state.epoch == epoch_before:
                self._push(state)
        return n_done

    def _dispatch(self, state, action) -> None:
        cls = type(action)
        if cls is A.Compute:
            delta, dur = self._serial(state, action)
            state.t += dur
            state.add_delta(delta)
        elif cls is A.CallBurst:
            self._burst(state, action)
        elif cls is A.ParallelFor:
            self._parallel_for(state, action)
        else:
            super()._dispatch(state, action)

    def _serial(self, state, action):
        """Work delta and seconds of a Compute or CallBurst on the master."""
        delta = action.kernel.scaled_counts(action.units).without_omp_iters()
        ctx = self.compute_context(state.rank, 0, action.kernel)
        dur = kernel_time(self.cost, action.kernel, action.units, ctx,
                          extra_flop_time=self.count_cost(delta))
        return delta, dur * self.compute_scale(state.rank, 0)

    def _burst(self, state, action) -> None:
        delta, dur = self._serial(state, action)
        t0 = state.t
        if self.measurement is not None and not self._filtered(action.region):
            dur += 2.0 * action.calls * self.measurement.event_cost()
            rid = self.regions.intern(action.region)
            full = WorkDelta(omp_iters=0.0, bb=delta.bb, stmt=delta.stmt,
                             instr=delta.instr, burst_calls=action.calls,
                             ) + state.flush_delta()
            state.t = t0 + dur
            self.emit(self.loc_id(state.rank, 0), BURST, rid, state.t, full,
                      t_enter=t0)
        else:
            # filtered: the work still runs (and still pays counting
            # instrumentation) but merges into the enclosing region
            state.t = t0 + dur
            state.add_delta(delta)

    def _parallel_for(self, rank, pf) -> None:
        """One (possibly compressed) parallel-for: the master forks, every
        thread runs its chunk under its own noise and contention, the team
        meets at the implicit barrier, the master joins."""
        omp = self.omp_cost
        n_threads = rank.n_threads
        omp_id = self._next_omp
        self._next_omp += 1
        rep = max(1.0, float(pf.represents))
        instrumented = self.measurement is not None

        if instrumented:
            r_parallel = self.regions.intern(f"omp_parallel_{pf.region}", Paradigm.OMP)
            r_for = self.regions.intern(f"omp_for_{pf.region}", Paradigm.OMP)
            r_bar = self.regions.intern(f"omp_ibarrier_{pf.region}", Paradigm.OMP)
            r_writes = tuple(
                self.regions.intern(f"omp_shared_write_{var}", Paradigm.OMP)
                for var in pf.shared_writes
            )
        else:
            r_parallel = r_for = r_bar = -1
            r_writes = ()

        ev_cost = self.ev_cost
        # lt_1 equivalence: each emitted event stands for `rep` recorded events
        extra_bc = (rep - 1.0) / 2.0
        runtime_delta = WorkDelta(
            omp_calls=rep, instr=omp.runtime_instr_per_call * rep, burst_calls=extra_bc
        )

        if instrumented:
            self.emit_master(rank, ENTER, r_parallel, rank.t, rank.flush_delta())
            rank.t += ev_cost
            self.emit_master(rank, FORK, r_parallel, rank.t, runtime_delta, omp_id)
            rank.t += ev_cost * rep

        fork_done = rank.t + omp.fork_cost(n_threads) * rep
        units = pf.thread_units(n_threads)

        starts = np.empty(n_threads)
        finishes = np.empty(n_threads)
        for i in range(n_threads):
            starts[i] = fork_done + omp.stagger(i)
            chunk_counts = pf.kernel.scaled_counts(float(units[i]))
            count_cost = self.count_cost(chunk_counts)
            ctx = self.compute_context(rank.rank, i, pf.kernel, team_threads=n_threads)
            dur = kernel_time(self.cost, pf.kernel, float(units[i]), ctx,
                              extra_flop_time=count_cost)
            dur *= self.compute_scale(rank.rank, i)
            # 5 events per worker (the master has no TEAM_BEGIN), plus a
            # zero-width region pair per shared write
            n_events = (5 if i > 0 else 4) + 2 * len(r_writes)
            finishes[i] = starts[i] + dur + n_events * ev_cost * rep

        bar_arrive = finishes
        # instrumented team synchronisation serialises per-thread event
        # writes, lengthening the barrier with the team size
        bar_done = (
            float(bar_arrive.max())
            + (omp.barrier_cost(n_threads) + self.omp_team_sync * min(n_threads, 80)) * rep
        )

        if instrumented:
            for i in range(n_threads):
                loc = self.loc_id(rank.rank, i)
                chunk_delta = pf.kernel.scaled_counts(float(units[i]))
                if i == 0:
                    self.emit(loc, ENTER, r_for, float(starts[i]), runtime_delta)
                else:
                    self.emit(loc, TEAM_BEGIN, r_parallel, float(starts[i]),
                              WorkDelta(burst_calls=extra_bc), omp_id)
                    self.emit(loc, ENTER, r_for, float(starts[i]), runtime_delta)
                for r_w in r_writes:
                    self.emit(loc, ENTER, r_w, float(starts[i]), EMPTY_DELTA)
                for r_w in reversed(r_writes):
                    self.emit(loc, LEAVE, r_w, float(bar_arrive[i]), EMPTY_DELTA)
                self.emit(loc, LEAVE, r_for, float(bar_arrive[i]), chunk_delta)
                self.emit(loc, OBAR_ENTER, r_bar, float(bar_arrive[i]),
                          WorkDelta(burst_calls=extra_bc))
                wait = bar_done - float(bar_arrive[i])
                bar_delta = WorkDelta(
                    omp_calls=rep,
                    instr=(omp.runtime_instr_per_call * rep
                           + self.cost.omp_spin_instr_per_sec * wait),
                    burst_calls=extra_bc,
                )
                self.emit(loc, OBAR_LEAVE, r_bar, bar_done, bar_delta, (omp_id, n_threads))

        join_done = bar_done + omp.join_cost(n_threads) * rep
        if instrumented:
            self.emit_master(rank, JOIN, r_parallel, join_done, runtime_delta, omp_id)
            self.emit_master(rank, LEAVE, r_parallel, join_done + ev_cost, EMPTY_DELTA)
        rank.t = join_done + 2 * ev_cost


class EvListMeasurement(Measurement):
    """Sinks/``mark``/``rewind`` over per-location ``Ev`` lists."""

    def begin(self, engine) -> None:
        super().begin(engine)
        self._events = [[] for _ in self._locations]

    def sinks(self):
        def sink(evs):
            def put(fields):
                for j in range(0, len(fields), RECORD_WIDTH):
                    evs.append(Ev(*fields[j:j + RECORD_WIDTH]))
            return put

        return [sink(evs) for evs in self._events]

    def mark(self):
        return [len(evs) for evs in self._events]

    def rewind(self, mark) -> None:
        for evs, n in zip(self._events, mark or [0] * len(self._events)):
            del evs[n:]

    def finish(self, runtime) -> RawTrace:
        self._finished = True
        return RawTrace(self.mode, self._engine.regions, self._locations,
                        self._events, runtime, self._engine.pinning)


# ---------------------------------------------------------------------------
# the per-key network noise
# ---------------------------------------------------------------------------

class PerKeyNetworkNoise:
    """Network noise drawn key by key: ``key``'s n-th factor is the n-th
    mean-1 lognormal draw of its own stream ``rngs.get("net-noise",
    key=key)``, built on the key's first request."""

    def __init__(self, rngs, config):
        self._rngs = rngs
        self._sigma = config.network_sigma
        self._gens: dict = {}

    def factor(self, key) -> float:
        rng = self._gens.get(key)
        if rng is None:
            rng = self._rngs.get("net-noise", key=key)
            self._gens[key] = rng
        return _lognormal_factor(rng, self._sigma)


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


# ---------------------------------------------------------------------------
# the per-event clocks
# ---------------------------------------------------------------------------

def _base_events(ev: Ev) -> float:
    """Recorded events this trace record stands for (>= 1)."""
    bc = ev.delta.burst_calls
    return 1.0 + 2.0 * bc if bc else 1.0


def increment_lt1(ev: Ev) -> float:
    """lt_1: one unit per recorded event."""
    return _base_events(ev)


def increment_ltloop(ev: Ev) -> float:
    """lt_loop: lt_1 plus one unit per OpenMP loop iteration."""
    return _base_events(ev) + ev.delta.omp_iters


def increment_ltbb(ev: Ev, x_bb: float = X_BB_PER_OMP_CALL) -> float:
    """lt_bb: lt_1 plus executed basic blocks, X per OpenMP runtime call."""
    d = ev.delta
    return _base_events(ev) + d.bb + x_bb * d.omp_calls


def increment_ltstmt(ev: Ev, y_stmt: float = Y_STMT_PER_OMP_CALL) -> float:
    """lt_stmt: lt_1 plus executed statements, Y per OpenMP runtime call."""
    d = ev.delta
    return _base_events(ev) + d.stmt + y_stmt * d.omp_calls


def make_increment(mode: str, x_bb: float = X_BB_PER_OMP_CALL,
                   y_stmt: float = Y_STMT_PER_OMP_CALL):
    """The per-event increment callable of a static logical mode."""
    if mode == LT1:
        return increment_lt1
    if mode == LTLOOP:
        return increment_ltloop
    if mode == LTBB:
        return lambda ev: increment_ltbb(ev, x_bb)
    if mode == LTSTMT:
        return lambda ev: increment_ltstmt(ev, y_stmt)
    raise ValueError(f"no static increment model for mode {mode!r}")


class HwCounterIncrement:
    """lt_hwctr per event: the noisy instruction-counter delta, at least 1.

    ``for_location(loc)`` returns the location's callable; its draws come
    from the location's own counter-noise stream, in event order.
    """

    def __init__(self, trace, noise: CounterNoise):
        self._noise = noise
        self._rank_thread = trace.locations

    def for_location(self, loc: int):
        rank, thread = self._rank_thread[loc]
        noise = self._noise

        def increment(ev: Ev) -> float:
            return max(1.0, noise.perturb(rank, thread, ev.delta.instr))

        return increment


class LamportClock:
    """Algorithm 1, one event at a time over ``trace.merged()``.

    ``increment`` is a callable ``(ev) -> float`` or an object with
    ``for_location(loc)`` (:class:`HwCounterIncrement`).  After
    :meth:`assign`, ``final`` holds every location's last counter value:
    the group maximum where a group completes after the member's last
    event, so not always the last timestamp.
    """

    def __init__(self, increment):
        self._increment = increment
        self.final: List[float] = []

    def _per_location(self, n: int):
        if hasattr(self._increment, "for_location"):
            return [self._increment.for_location(loc) for loc in range(n)]
        return [self._increment] * n

    def assign(self, trace) -> List[np.ndarray]:
        """Logical timestamps per location, parallel to ``trace.events``."""
        n = trace.n_locations
        times = [np.zeros(len(evs), dtype=float) for evs in trace.events]
        idx = [0] * n
        counter = [0.0] * n
        inc = self._per_location(n)
        send_clock: Dict[int, float] = {}
        fork_clock: Dict[int, float] = {}
        # (kind, id) -> list of (loc, event index, provisional clock)
        groups: Dict[Tuple[str, int], List[Tuple[int, int, float]]] = {}

        for loc, ev in trace.merged():
            i = idx[loc]
            idx[loc] = i + 1
            c = counter[loc] + inc[loc](ev)
            et = ev.etype

            if et == MPI_SEND:
                counter[loc] = c
                times[loc][i] = c
                send_clock[ev.aux[0]] = c
            elif et == MPI_RECV:
                try:
                    partner = send_clock.pop(ev.aux)
                except KeyError:
                    raise AssertionError(
                        f"receive of message {ev.aux} before/without its send -- "
                        "merged order is not topological"
                    ) from None
                c = max(c, partner + 1.0)
                counter[loc] = c
                times[loc][i] = c
            elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b" if et == OBAR_LEAVE else "r", gid)
                members = groups.setdefault(key, [])
                members.append((loc, i, c))
                counter[loc] = c  # provisional until the group completes
                if len(members) == size:
                    m = max(pre for (_l, _i, pre) in members)
                    for (l2, i2, _pre) in members:
                        times[l2][i2] = m
                        counter[l2] = m
                    del groups[key]
            elif et == FORK:
                counter[loc] = c
                times[loc][i] = c
                fork_clock[ev.aux] = c
            elif et == TEAM_BEGIN:
                c = max(c, fork_clock[ev.aux] + 1.0)
                counter[loc] = c
                times[loc][i] = c
            else:
                counter[loc] = c
                times[loc][i] = c

        if groups:
            raise AssertionError(
                f"{len(groups)} incomplete synchronisation groups at end of "
                f"trace (first keys: {list(groups)[:3]})"
            )
        self.final = counter
        return times


def lamport_replay(trace, mode: str, counter_seed: int = 0,
                   counter_noise_config=None):
    """``(times, final)`` of the per-event replay of ``trace`` under
    ``mode``; ``tsc`` passes the physical timestamps through."""
    if mode == TSC:
        times = [np.array([ev.t for ev in evs], dtype=float)
                 for evs in trace.events]
        return times, [float(t[-1]) if len(t) else 0.0 for t in times]
    if mode == LTHWCTR:
        cfg = counter_noise_config if counter_noise_config is not None \
            else NoiseConfig()
        clock = LamportClock(HwCounterIncrement(
            trace, CounterNoise(RngStreams(counter_seed), cfg)))
    else:
        clock = LamportClock(make_increment(mode))
    times = clock.assign(trace)
    return times, clock.final


class VectorClock:
    """Full vector-clock replay of a raw trace (O(events x locations)).

    ``happens_before`` answers exact causality queries that a scalar
    Lamport timestamp can only approximate in one direction -- the remedy
    the paper (Sec. II) cites for nondeterministic message matching.
    """

    def __init__(self, trace):
        self.trace = trace
        n = trace.n_locations
        self.vectors: List[List[np.ndarray]] = [[] for _ in range(n)]
        self._replay()

    def _replay(self) -> None:
        trace = self.trace
        n = trace.n_locations
        current = [np.zeros(n, dtype=np.int64) for _ in range(n)]
        send_vec: Dict[int, np.ndarray] = {}
        fork_vec: Dict[int, np.ndarray] = {}
        # group key -> list of (loc, appended-event index)
        groups: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}

        for loc, ev in trace.merged():
            v = current[loc]
            v[loc] += 1
            et = ev.etype
            if et == MPI_SEND:
                send_vec[ev.aux[0]] = v.copy()
            elif et == MPI_RECV:
                np.maximum(v, send_vec.pop(ev.aux), out=v)
            elif et == FORK:
                fork_vec[ev.aux] = v.copy()
            elif et == TEAM_BEGIN:
                np.maximum(v, fork_vec[ev.aux], out=v)
            self.vectors[loc].append(v.copy())

            if et in (COLL_END, OBAR_LEAVE):
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b", gid)
                members = groups.setdefault(key, [])
                members.append((loc, len(self.vectors[loc]) - 1))
                if len(members) == size:
                    merged = np.zeros(n, dtype=np.int64)
                    for (l2, ei) in members:
                        np.maximum(merged, self.vectors[l2][ei], out=merged)
                    for (l2, ei) in members:
                        self.vectors[l2][ei][:] = merged
                        current[l2][:] = merged
                    del groups[key]

    def vector_at(self, loc: int, event_index: int) -> np.ndarray:
        return self.vectors[loc][event_index]

    def happens_before(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """True iff event ``a`` (loc, index) causally precedes ``b``."""
        va = self.vector_at(*a)
        vb = self.vector_at(*b)
        return bool(np.all(va <= vb) and np.any(va < vb))

    def concurrent(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        return not self.happens_before(a, b) and not self.happens_before(b, a)


class LazyLamportClock:
    """Deferred-merge Lamport clock (after Vo et al., cited in the paper).

    A receive remembers the sender's clock instead of merging it; the
    receiver reconciles at its next collective or OpenMP barrier.  At and
    after every such strong sync its timestamps equal the eager clock's,
    and between them they may be smaller.
    """

    def __init__(self, increment):
        self._increment = increment

    def assign(self, trace) -> List[np.ndarray]:
        n = trace.n_locations
        times = [np.zeros(len(evs), dtype=float) for evs in trace.events]
        idx = [0] * n
        counter = [0.0] * n
        deferred = [0.0] * n  # largest unmerged incoming clock per location
        send_clock: Dict[int, float] = {}
        fork_clock: Dict[int, float] = {}
        groups: Dict[Tuple[str, int], List[Tuple[int, int, float]]] = {}
        inc = self._increment

        for loc, ev in trace.merged():
            i = idx[loc]
            idx[loc] = i + 1
            c = counter[loc] + inc(ev)
            et = ev.etype
            if et == MPI_SEND:
                counter[loc] = c
                times[loc][i] = c
                send_clock[ev.aux[0]] = c
            elif et == MPI_RECV:
                deferred[loc] = max(deferred[loc], send_clock.pop(ev.aux) + 1.0)
                counter[loc] = c
                times[loc][i] = c
            elif et in (COLL_END, OBAR_LEAVE):
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b", gid)
                pre = max(c, deferred[loc])
                deferred[loc] = 0.0
                members = groups.setdefault(key, [])
                members.append((loc, i, pre))
                counter[loc] = pre
                if len(members) == size:
                    m = max(p for (_l, _i, p) in members)
                    for (l2, i2, _p) in members:
                        times[l2][i2] = m
                        counter[l2] = m
                    del groups[key]
            elif et == FORK:
                counter[loc] = c
                times[loc][i] = c
                fork_clock[ev.aux] = c
            elif et == TEAM_BEGIN:
                c = max(c, fork_clock[ev.aux] + 1.0)
                counter[loc] = c
                times[loc][i] = c
            else:
                counter[loc] = c
                times[loc][i] = c

        if groups:
            raise AssertionError("incomplete synchronisation groups in lazy replay")
        return times


# ---------------------------------------------------------------------------
# the per-event DAG walker
# ---------------------------------------------------------------------------

def walker_build_dag(trace_like, mode: Optional[str] = None,
                     counter_seed: int = 0,
                     counter_noise_config=None) -> CausalDag:
    """The happened-before DAG built by walking ``trace_like.merged()``
    through the clock state machine event by event (what
    :func:`repro.causal.build_dag` computed before it ran the replay
    plan)."""
    mode = validate_mode(mode or trace_like.mode)
    n = trace_like.n_locations
    regions = trace_like.regions
    dag = CausalDag(mode, list(regions.names), list(trace_like.locations))
    is_tsc = mode == TSC

    if mode == LTHWCTR:
        cfg = (counter_noise_config if counter_noise_config is not None
               else NoiseConfig())
        model = HwCounterIncrement(
            trace_like, CounterNoise(RngStreams(counter_seed), cfg))
        inc_of = [model.for_location(loc) for loc in range(n)]
    elif not is_tsc:
        inc_of = [make_increment(mode)] * n

    clock = [0.0] * n
    ev_idx = [0] * n
    last_node = [-1] * n
    last_node_clock = [0.0] * n
    stacks: List[List[str]] = [[] for _ in range(n)]
    cp_index: Dict[Tuple[str, ...], int] = {}
    seg_acc: List[Dict[int, float]] = [{} for _ in range(n)]

    def intern(path: Tuple[str, ...]) -> int:
        cid = cp_index.get(path)
        if cid is None:
            cid = cp_index[path] = len(dag.callpaths)
            dag.callpaths.append(path)
        return cid

    root = intern(())
    cur_cpid = [root] * n

    def new_node(loc: int, i: int, et: int, rid: int, t: float,
                 c: float, wait: float, pred_remote: int,
                 remote_critical: bool) -> int:
        nid = dag.n_nodes
        dag.loc.append(loc)
        dag.idx.append(i)
        dag.etype.append(et)
        dag.region.append(rid)
        dag.t.append(t)
        dag.clock.append(c)
        dag.work.append(c - last_node_clock[loc])
        dag.wait.append(wait)
        dag.pred_prog.append(last_node[loc])
        dag.pred_remote.append(pred_remote)
        dag.remote_critical.append(remote_critical)
        dag.cpid.append(cur_cpid[loc])
        acc = seg_acc[loc]
        dag.seg.append(list(acc.items()))
        acc.clear()
        last_node[loc] = nid
        last_node_clock[loc] = c
        return nid

    # match id -> (send node, send clock); omp id -> (fork node, fork clock)
    send_info: Dict[int, Tuple[int, float]] = {}
    fork_info: Dict[int, Tuple[int, float]] = {}
    # (etype, group id) -> list of (loc, provisional clock, node, enter clock)
    groups: Dict[Tuple[int, int], List[Tuple[int, float, int, float]]] = {}

    for loc, ev in trace_like.merged():
        i = ev_idx[loc]
        ev_idx[loc] = i + 1
        prev = clock[loc]
        if is_tsc:
            c = ev.t
            step = c - prev
        else:
            step = inc_of[loc](ev)
            c = prev + step
        et = ev.etype

        # attribute the step to the call path active *before* the event
        # (a BURST's work belongs to the burst's own child call path)
        if et == BURST:
            cp = intern(dag.callpaths[cur_cpid[loc]]
                        + (regions.name(ev.region),))
        else:
            cp = cur_cpid[loc]
        acc = seg_acc[loc]
        acc[cp] = acc.get(cp, 0.0) + step

        if et == ENTER:
            stk = stacks[loc]
            stk.append(regions.name(ev.region))
            cur_cpid[loc] = intern(tuple(stk))
            clock[loc] = c
            continue
        if et == LEAVE:
            stk = stacks[loc]
            if stk:
                stk.pop()
            cur_cpid[loc] = intern(tuple(stk))
            clock[loc] = c
            continue

        if et == MPI_SEND:
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            send_info[ev.aux[0]] = (nid, c)
        elif et == MPI_RECV:
            try:
                snid, sclk = send_info.pop(ev.aux)
            except KeyError:
                raise AssertionError(
                    f"receive of message {ev.aux} before/without its send -- "
                    "merged order is not topological"
                ) from None
            if is_tsc:
                new = c
                wait = late_sender_wait(sclk, prev, c)
                rc = wait > 0.0
            else:
                p1 = sclk + 1.0
                rc = p1 > c
                wait = p1 - c if rc else 0.0
                new = p1 if rc else c
            clock[loc] = new
            nid = new_node(loc, i, et, ev.region, ev.t, c, wait, snid, rc)
            if rc:
                dag.clock[nid] = new
                last_node_clock[loc] = new
        elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
            gid, size = ev.aux
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            key = (et, gid)
            members = groups.setdefault(key, [])
            members.append((loc, c, nid, prev))
            if len(members) == size:
                if is_tsc:
                    completion = ev.t
                    waits = nxn_waits([en for (_l, _c, _n, en) in members],
                                      completion)
                    win = max(range(len(members)),
                              key=lambda k: members[k][3])
                else:
                    m = max(cm for (_l, cm, _n, _e) in members)
                    waits = [m - cm for (_l, cm, _n, _e) in members]
                    win = next(k for k, mem in enumerate(members)
                               if mem[1] == m)
                win_nid = members[win][2]
                for k, (l2, _c2, nid2, _en) in enumerate(members):
                    dag.wait[nid2] = waits[k]
                    if k != win and waits[k] > 0.0:
                        dag.pred_remote[nid2] = win_nid
                        dag.remote_critical[nid2] = True
                    if not is_tsc:
                        clock[l2] = m
                        dag.clock[nid2] = m
                        last_node_clock[l2] = m
                del groups[key]
        elif et == FORK:
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            fork_info[ev.aux] = (nid, c)
        elif et == TEAM_BEGIN:
            fnid, fclk = fork_info[ev.aux]
            if is_tsc:
                new = c
                rc = last_node[loc] < 0 or fclk > prev
                wait = 0.0
            else:
                p1 = fclk + 1.0
                rc = p1 > c or last_node[loc] < 0
                wait = p1 - c if p1 > c else 0.0
                new = p1 if p1 > c else c
            clock[loc] = new
            nid = new_node(loc, i, et, ev.region, ev.t, c, wait, fnid, rc)
            if new != c:
                dag.clock[nid] = new
                last_node_clock[loc] = new
        else:
            clock[loc] = c

    if groups:
        raise AssertionError(
            f"{len(groups)} incomplete synchronisation groups at end of "
            f"trace (first keys: {list(groups)[:3]})"
        )

    for loc in range(n):
        new_node(loc, ev_idx[loc], TERMINAL, -1, 0.0, clock[loc],
                 0.0, -1, False)
    dag.final = list(clock)
    dag.n_events = sum(ev_idx)
    return dag


def dag_nodes(dag: CausalDag) -> list:
    """Every node of ``dag`` with call paths as tuples and floats as bits
    (call-path ids depend on the interning order, the paths do not)."""
    paths = dag.callpaths
    return [
        (dag.loc[k], dag.idx[k], dag.etype[k], dag.region[k],
         _bits(dag.t[k]), _bits(dag.clock[k]), _bits(dag.work[k]),
         _bits(dag.wait[k]), dag.pred_prog[k], dag.pred_remote[k],
         dag.remote_critical[k], paths[dag.cpid[k]],
         [(paths[cp], _bits(w)) for cp, w in dag.seg[k]])
        for k in range(dag.n_nodes)
    ] + [[_bits(x) for x in dag.final], dag.n_events]


# ---------------------------------------------------------------------------
# the per-event sanitizer and race detector
# ---------------------------------------------------------------------------

#: tolerance for "equal" timestamps within a group (as the sanitizer's)
_REL_TOL = 1e-9


class _Capped:
    """Collects diagnostics, truncating repeats of the same rule.

    Truncation is never silent: :attr:`suppressed` counts the findings
    dropped beyond the cap, per rule, for the report to surface.
    """

    def __init__(self, limit: int = _MAX_PER_RULE):
        self.out: List[Diagnostic] = []
        self._limit = limit
        self._counts: Dict[str, int] = {}

    def add(self, diag: Diagnostic) -> None:
        n = self._counts.get(diag.rule_id, 0) + 1
        self._counts[diag.rule_id] = n
        if n <= self._limit:
            self.out.append(diag)

    @property
    def suppressed(self) -> Dict[str, int]:
        return {
            rule_id: n - self._limit
            for rule_id, n in sorted(self._counts.items())
            if n > self._limit
        }

    def finish(self) -> List[Diagnostic]:
        return self.out


class StructuralPass:
    """Incremental form of the mode-independent structural checks.

    Feed events one at a time in any order that preserves per-location
    order; :meth:`finish` closes every location and runs the
    cross-location checks.  :func:`walker_sanitize_raw` drives it one
    location at a time.
    """

    def __init__(self, regions, n_locations: int):
        self._regions = regions
        self._cap = _Capped()
        self._sends: Dict[int, int] = {}  # match id -> send location
        self._recvs: Dict[int, int] = {}
        self._groups: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
        self._group_size: Dict[Tuple[str, int], int] = {}
        self._forks: Set[int] = set()
        self._restart_groups: Dict[int, List[Tuple[int, float]]] = {}
        self._restart_size: Dict[int, int] = {}
        self._fault_refs: List[Tuple[int, int]] = []  # (loc, match id)
        self._prev_t = [-float("inf")] * n_locations
        self._stack: List[List[int]] = [[] for _ in range(n_locations)]
        self._idx = [0] * n_locations
        self._closed = [False] * n_locations
        self._finished = False

    def _region(self, rid: int) -> str:
        try:
            return self._regions.name(rid)
        except IndexError:
            return f"<region {rid}>"

    def feed(self, loc: int, ev) -> None:
        """Check one event of location ``loc`` (events per location in order)."""
        cap = self._cap
        region = self._region
        i = self._idx[loc]
        self._idx[loc] = i + 1
        prev_t = self._prev_t[loc]
        if ev.t < prev_t - 1e-15:
            cap.add(Diagnostic(
                "TRC001",
                f"event #{i} ({region(ev.region)}) at t={ev.t:.9g} "
                f"after t={prev_t:.9g}",
                location=loc,
            ))
        self._prev_t[loc] = max(prev_t, ev.t)
        et = ev.etype
        stack = self._stack[loc]
        if et == ENTER:
            stack.append(ev.region)
        elif et == LEAVE:
            if not stack:
                cap.add(Diagnostic(
                    "TRC006",
                    f"LEAVE {region(ev.region)} (event #{i}) with no "
                    "open ENTER",
                    location=loc,
                ))
            elif stack[-1] != ev.region:
                cap.add(Diagnostic(
                    "TRC006",
                    f"LEAVE {region(ev.region)} (event #{i}) closes "
                    f"ENTER {region(stack[-1])}",
                    location=loc,
                ))
                stack.pop()
            else:
                stack.pop()
        elif et == MPI_SEND:
            mid = ev.aux[0]
            if mid in self._sends:
                cap.add(Diagnostic(
                    "TRC002",
                    f"duplicate MPI_SEND for match id {mid} (also on "
                    f"location {self._sends[mid]})",
                    location=loc,
                ))
            self._sends[mid] = loc
        elif et == MPI_RECV:
            mid = ev.aux
            if mid in self._recvs:
                cap.add(Diagnostic(
                    "TRC002",
                    f"duplicate MPI_RECV for match id {mid} (also on "
                    f"location {self._recvs[mid]})",
                    location=loc,
                ))
            self._recvs[mid] = loc
        elif et == COLL_END or et == OBAR_LEAVE:
            gid, size = ev.aux
            key = ("coll" if et == COLL_END else "obar", gid)
            self._groups.setdefault(key, []).append((loc, ev.t))
            if self._group_size.setdefault(key, size) != size:
                cap.add(Diagnostic(
                    "TRC007",
                    f"{key[0]} instance {gid}: conflicting group sizes "
                    f"{self._group_size[key]} and {size}",
                    location=loc,
                ))
        elif et == RESTART:
            gid, size = ev.aux
            self._restart_groups.setdefault(gid, []).append((loc, ev.t))
            if self._restart_size.setdefault(gid, size) != size:
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid}: conflicting group sizes "
                    f"{self._restart_size[gid]} and {size}",
                    location=loc,
                ))
        elif et == FAULT:
            self._fault_refs.append((loc, ev.aux))
        elif et == FORK:
            self._forks.add(ev.aux)
        elif et == TEAM_BEGIN:
            if ev.aux not in self._forks:
                cap.add(Diagnostic(
                    "TRC007",
                    f"TEAM_BEGIN for OpenMP construct {ev.aux} without "
                    "a FORK on the master",
                    location=loc,
                ))

    def end_location(self, loc: int) -> None:
        """Close location ``loc``: report ENTERs never left (idempotent)."""
        if self._closed[loc]:
            return
        self._closed[loc] = True
        if self._stack[loc]:
            self._cap.add(Diagnostic(
                "TRC006",
                "ENTER(s) never left: "
                + " > ".join(self._region(r) for r in self._stack[loc]),
                location=loc,
            ))

    def finish(self, suppressed: Optional[Dict[str, int]] = None) -> List[Diagnostic]:
        """Close all locations, run cross-location checks, return findings."""
        if self._finished:
            raise RuntimeError("StructuralPass.finish() called twice")
        self._finished = True
        for loc in range(len(self._closed)):
            self.end_location(loc)
        cap = self._cap
        sends, recvs = self._sends, self._recvs
        groups, group_size = self._groups, self._group_size
        restart_groups, restart_size = self._restart_groups, self._restart_size
        fault_refs = self._fault_refs
        for mid in sorted(set(sends) - set(recvs)):
            cap.add(Diagnostic(
                "TRC002",
                f"MPI_SEND with match id {mid} has no MPI_RECV (dropped "
                "receive record?)",
                location=sends[mid],
            ))
        for mid in sorted(set(recvs) - set(sends)):
            cap.add(Diagnostic(
                "TRC002",
                f"MPI_RECV with match id {mid} has no MPI_SEND (dropped send "
                "record?)",
                location=recvs[mid],
            ))

        for key in sorted(groups):
            kind, gid = key
            members = groups[key]
            size = group_size[key]
            if len(members) != size:
                cap.add(Diagnostic(
                    "TRC007",
                    f"{kind} instance {gid} has {len(members)} member event(s) "
                    f"but group size {size}",
                    location=members[0][0],
                ))
                continue
            ts = [t for (_loc, t) in members]
            lo, hi = min(ts), max(ts)
            if hi - lo > _REL_TOL * max(1.0, abs(hi)):
                cap.add(Diagnostic(
                    "TRC004",
                    f"{kind} instance {gid}: physical completion times spread "
                    f"over [{lo:.9g}, {hi:.9g}]",
                    location=members[0][0],
                ))

        for gid in sorted(restart_groups):
            members = restart_groups[gid]
            size = restart_size[gid]
            if len(members) != size:
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid} has {len(members)} record(s) but "
                    f"{size} rank(s)",
                    location=members[0][0],
                ))
                continue
            ts = [t for (_loc, t) in members]
            lo, hi = min(ts), max(ts)
            if hi - lo > _REL_TOL * max(1.0, abs(hi)):
                cap.add(Diagnostic(
                    "TRC008",
                    f"restart {gid}: resume times spread over "
                    f"[{lo:.9g}, {hi:.9g}] instead of one common time",
                    location=members[0][0],
                ))

        for loc, mid in fault_refs:
            if mid not in recvs:
                cap.add(Diagnostic(
                    "TRC009",
                    f"FAULT marker references message {mid} which has no "
                    "receive record",
                    location=loc,
                ))
        if suppressed is not None:
            for rule_id, n in cap.suppressed.items():
                suppressed[rule_id] = suppressed.get(rule_id, 0) + n
        return cap.finish()


def walker_sanitize_raw(trace, suppressed: Optional[Dict[str, int]] = None
                        ) -> List[Diagnostic]:
    """The structural checks walked event by event, one location at a
    time (the reference of :func:`repro.verify.sanitize_raw`)."""
    p = StructuralPass(trace.regions, trace.n_locations)
    for loc, evs in enumerate(trace.events):
        feed = p.feed
        for ev in evs:
            feed(loc, ev)
        p.end_location(loc)
    return p.finish(suppressed)


def walker_check_timestamps(
    tt,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Clock-condition checks on a :class:`TimestampedTrace`, walking the
    trace's events (the reference of
    :func:`repro.verify.check_timestamps`)."""
    trace = tt.trace
    mode: str = tt.mode
    logical = mode in LOGICAL_MODES
    cap = _Capped()

    # per-location monotonicity of the derived timestamps
    for loc, ts in enumerate(tt.times):
        prev = -float("inf")
        for i in range(len(ts)):
            if ts[i] < prev - 1e-12:
                cap.add(Diagnostic(
                    "TRC005",
                    f"timestamp of event #{i} ({ts[i]:.9g}) below its "
                    f"predecessor ({prev:.9g})",
                    location=loc, mode=mode,
                ))
            prev = max(prev, float(ts[i]))

    # send->recv Lamport condition; sends collected first because the
    # per-location walk does not follow the global causal order
    send_ts: Dict[int, Tuple[int, float]] = {}
    for loc, evs in enumerate(trace.events):
        for i, ev in enumerate(evs):
            if ev.etype == MPI_SEND:
                send_ts[ev.aux[0]] = (loc, float(tt.times[loc][i]))

    groups: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
    for loc, evs in enumerate(trace.events):
        for i, ev in enumerate(evs):
            et = ev.etype
            if et == MPI_RECV:
                hit = send_ts.get(ev.aux)
                if hit is None:
                    continue  # structural pass reports the missing send
                _sloc, c_send = hit
                c_recv = float(tt.times[loc][i])
                # Lamport: C(recv) >= C(send) + 1 for logical clocks;
                # physical time needs strict order only
                bound = c_send + 1.0 - 1e-9 if logical else c_send
                if c_recv < bound:
                    cap.add(Diagnostic(
                        "TRC003",
                        f"message {ev.aux}: recv timestamp {c_recv:.9g} "
                        f"does not follow send timestamp {c_send:.9g}",
                        location=loc, mode=mode,
                    ))
            elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
                kind = ("coll" if et == COLL_END
                        else "obar" if et == OBAR_LEAVE else "restart")
                key = (kind, ev.aux[0])
                groups.setdefault(key, []).append((loc, float(tt.times[loc][i])))

    for key in sorted(groups):
        kind, gid = key
        ts = [t for (_loc, t) in groups[key]]
        lo, hi = min(ts), max(ts)
        if hi - lo > _REL_TOL * max(1.0, abs(hi)):
            cap.add(Diagnostic(
                "TRC004",
                f"{kind} instance {gid}: group timestamps spread over "
                f"[{lo:.9g}, {hi:.9g}] instead of one group value",
                location=groups[key][0][0], mode=mode,
            ))
    if suppressed is not None:
        for rule_id, n in cap.suppressed.items():
            suppressed[rule_id] = suppressed.get(rule_id, 0) + n
    return cap.finish()


def walker_find_races(trace) -> RaceReport:
    """Vector-clock race detection walking every event of
    ``trace.merged()`` (the reference of :func:`repro.verify.find_races`,
    which reports through the same :func:`repro.verify.races._report`).
    """
    report = RaceReport(
        n_locations=trace.n_locations, n_events=trace.n_events
    )
    n = trace.n_locations
    current = [np.zeros(n, dtype=np.int64) for _ in range(n)]
    ev_index = [0] * n

    #: match id -> (vector at send, _EvRef of the send)
    send_info: Dict[int, Tuple[np.ndarray, _EvRef]] = {}
    fork_vec: Dict[int, np.ndarray] = {}
    #: group key -> [(loc, vector ref)], joined when complete
    groups: Dict[Tuple[str, int], List[int]] = {}
    group_max: Dict[Tuple[str, int], np.ndarray] = {}

    #: wildcard receive site (loc, region) -> consumed matches
    any_matches: Dict[Tuple[int, str], List[Tuple[_EvRef, _EvRef]]] = {}
    #: shared variable -> [(write _EvRef)]
    shared_writes: Dict[str, List[_EvRef]] = {}

    def _join_group(key: Tuple[str, int], size: int, loc: int) -> None:
        members = groups.setdefault(key, [])
        members.append(loc)
        gm = group_max.get(key)
        if gm is None:
            group_max[key] = current[loc].copy()
        else:
            np.maximum(gm, current[loc], out=gm)
        if len(members) == size:
            merged = group_max.pop(key)
            for l2 in groups.pop(key):
                np.maximum(current[l2], merged, out=current[l2])

    for loc, ev in trace.merged():
        v = current[loc]
        v[loc] += 1
        idx = ev_index[loc]
        ev_index[loc] += 1
        et = ev.etype
        region = trace.regions.name(ev.region)

        if et == MPI_SEND:
            ref = _EvRef(loc, idx, region, tuple(int(x) for x in v))
            send_info[ev.aux[0]] = (v.copy(), ref)
        elif et == MPI_RECV:
            info = send_info.pop(ev.aux, None)
            if info is not None:
                send_v, send_ref = info
                np.maximum(v, send_v, out=v)
                if region in _ANY_REGIONS:
                    recv_ref = _EvRef(
                        loc, idx, region, tuple(int(x) for x in v)
                    )
                    any_matches.setdefault((loc, region), []).append(
                        (send_ref, recv_ref)
                    )
        elif et == FORK:
            fork_vec[ev.aux] = v.copy()
        elif et == TEAM_BEGIN:
            fv = fork_vec.get(ev.aux)
            if fv is not None:
                np.maximum(v, fv, out=v)
        elif et == COLL_END:
            gid, size = ev.aux
            _join_group(("c", gid), size, loc)
        elif et == OBAR_LEAVE:
            gid, size = ev.aux
            _join_group(("b", gid), size, loc)
        elif et == RESTART:
            gid, size = ev.aux
            _join_group(("r", gid), size, loc)
        elif et == ENTER and region.startswith(_SHARED_WRITE_PREFIX):
            var = region[len(_SHARED_WRITE_PREFIX):]
            shared_writes.setdefault(var, []).append(
                _EvRef(loc, idx, region, tuple(int(x) for x in v))
            )

    _report(report, trace.locations, any_matches, shared_writes)
    return report

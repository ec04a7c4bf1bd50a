"""Cached-statics fast path: the engine's compute-shaped actions.

Pricing a compute action call by call re-derives a chain of values that
are constant for the lifetime of a run: the work delta of the kernel at
a fixed unit count, the counting-instrumentation cost of that delta, the
contention context of the executing core, and the long multiplication
prefix of the roofline bandwidth term.  This module caches all of it per
*site* -- a ``(rank, action)`` pair for serial compute and call bursts,
a ``(rank, ParallelFor)`` pair for OpenMP constructs -- and prebinds the
per-location noise generators so that a steady-state dispatch performs
only the irreducible work: the noise draws, the dynamic
desynchronisation term, and the event appends.

Bit-identity contract
---------------------
The fast path must produce *byte-identical* traces to pricing each call
from scratch -- the roofline of :mod:`repro.sim.costmodel`, whose
executable reference is ``tests/oracles.kernel_time``, driven by the
per-event ``tests/oracles.HeapEngine`` -- which constrains every
shortcut:

* Floating-point expressions are cached only along the exact operation
  order of the reference.  A cached prefix ``p = (min(...) * cf) * xf``
  multiplied by a per-call noise factor performs the same multiplication
  sequence as the per-call formula, so the bits match.  Nothing is re-
  associated, and Python ``sum()``/``max()`` are never replaced by numpy
  reductions where the reduction order could differ.
* Random draws replicate the reference order and arithmetic exactly:
  the memory-bandwidth factor (stream keyed by NUMA domain -- *shared*
  across ranks, so global call order is preserved by drawing at the
  same program points), then the kernel jitter, then the CPU factor,
  then the OS detour.  ``_lognormal_factor`` consumes no draw at
  ``sigma <= 0``, and :class:`~repro.machine.noise.OsJitter` draws its
  Poisson count even when it comes up zero -- both behaviours are
  replicated, and the prebound generators are the *same* memoized
  objects :meth:`~repro.util.rng.RngStreams.get` hands every caller.
* Fault draws (:mod:`repro.machine.faults`) are position-independent
  per-key streams, so memoizing ``compute_scale`` at site build cannot
  perturb any other draw.
* Ghost replay (recovery's no-emission prefix) performs the same
  computation and the same ``flush_delta()`` resets, it only skips the
  event appends -- mirroring :meth:`Engine.emit`'s ``_live`` gate.

Emission builds no event objects: :meth:`FastPath.emit_fields` hands a
location's measurement sink (:meth:`~repro.measure.measurement.
Measurement.sinks`) a tuple of whole events' fields, one OpenMP thread's
events at a time.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.sim import actions as A
from repro.sim.events import (
    BURST,
    ENTER,
    FORK,
    JOIN,
    LEAVE,
    OBAR_ENTER,
    OBAR_LEAVE,
    TEAM_BEGIN,
    Paradigm,
)
from repro.sim.kernels import EMPTY_DELTA, WorkDelta
from repro.measure.filtering import FilterRules as _FilterRules
from repro.measure.measurement import Measurement as _Measurement
from repro.measure.overhead import OverheadModel as _OverheadModel
from repro.sim.costmodel import OmpCostModel as _OmpCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, _RankState

__all__ = ["FastPath"]

_exp = math.exp
_np_exp = np.exp


# ----------------------------------------------------------------------
# prebound noise draws
# ----------------------------------------------------------------------
class _LocNoise:
    """Noise draw closures for one (rank, thread) location."""

    __slots__ = ("cpu", "osd", "jit_normal")


def _bind_loc_noise(noise, rank: int, thread: int) -> _LocNoise:
    ln = _LocNoise()

    sigma = noise.cpu._sigma
    cpu_inc = noise.cpu._injections.inc
    if sigma <= 0.0:
        # factor() == 1.0 without consuming the stream; base * 1.0 == base
        def cpu(base, _inc=cpu_inc):
            _inc()
            return base
    else:
        cpu_pop = noise.cpu.buffer(rank, thread).pop

        def cpu(base, _inc=cpu_inc, _pop=cpu_pop):
            _inc()
            return base * _pop()

    ln.cpu = cpu

    rate = noise.os._rate
    duration = noise.os._duration
    if rate <= 0.0 or duration <= 0.0:
        def osd(noisy):
            return noisy
    else:
        os_rng = noise.rngs.get("os-jitter", rank=rank, thread=thread)
        os_add = noise.os._injections.add
        poisson = os_rng.poisson
        exponential = os_rng.exponential

        def osd(noisy, _p=poisson, _e=exponential, _r=rate, _d=duration, _a=os_add):
            if noisy <= 0.0:
                return noisy
            n = _p(_r * noisy)
            if n == 0:
                return noisy
            _a(int(n))
            return noisy + float(_e(_d, size=n).sum())

    ln.osd = osd
    # Creating the jitter generator eagerly is draw-free: stream state
    # only advances on draws, and rngs.get memoizes the object.
    ln.jit_normal = noise.rngs.get("kernel-jitter", rank=rank, thread=thread).normal
    return ln


def _bind_mem_noise(noise, numa_id: int):
    """Per-NUMA bandwidth-factor draw: ``pab -> pab * factor``."""
    sigma = noise.memory._sigma
    mem_inc = noise.memory._injections.inc
    if sigma <= 0.0:
        def mem(pab, _inc=mem_inc):
            _inc()
            return pab
    else:
        mem_pop = noise.memory.buffer(numa_id).pop

        def mem(pab, _inc=mem_inc, _pop=mem_pop):
            _inc()
            return pab * _pop()

    return mem


# ----------------------------------------------------------------------
# kernel pricers
# ----------------------------------------------------------------------
def _make_team_pricer(
    engine: "Engine", kernel, units: float, ctx, extra: float, ln: Optional[_LocNoise], mem
) -> Callable[[], float]:
    """Pricer for a team-parallel execution (``desync == 0`` -> fully static).

    Replicates the roofline of :mod:`repro.sim.costmodel` with every
    input except the noise draws fixed, caching the multiplication prefix
    of the per-actor bandwidth in the reference operation order.
    """
    cost = engine.cost
    t_flops = units * kernel.flops_per_unit / cost.cluster.flops_per_core
    nbytes = units * kernel.bytes_per_unit
    tfe = t_flops + extra

    mem_path = not (nbytes <= 0.0 or kernel.memory_scope == "none")
    pab_static = 0.0
    relief = 1.0
    if mem_path:
        cache_factor = cost.cache.bandwidth_factor(
            ctx.cache_working_set, ctx.cache_extra_footprint
        )
        scope_bw = cost._scope_bandwidth(kernel, ctx)
        solo_bw = min(cost.memory.per_core_bw_cap, scope_bw) * cache_factor
        solo = nbytes / solo_bw if kernel.additive else max(t_flops, nbytes / solo_bw)
        relief = ctx.overlap_factor if kernel.memory_scope == "socket" else 1.0
        team = max(1, ctx.team_actors)
        if ctx.other_actors <= 0:
            a_eff = float(team)
        else:
            overlap = 1.0 if solo <= 0.0 else _exp(-max(ctx.desync, 0.0) / solo)
            overlap *= min(1.0, max(0.0, relief))
            a_eff = team + ctx.other_actors * overlap
        pab = min(
            scope_bw / (a_eff ** cost.memory.contention_exponent),
            cost.memory.per_core_bw_cap,
        )
        pab *= cache_factor
        if ctx.team_cross_socket:
            pab *= cost.cross_socket_factor
        pab_static = pab

    additive = kernel.additive
    if ln is None:
        # No noise: the whole price is a constant.
        if mem_path:
            t_mem = nbytes / pab_static
            const = tfe + t_mem * relief if additive else max(tfe, t_mem)
        else:
            const = tfe

        def price(_c=const):
            return _c

        return price

    jit_sigma = kernel.jitter
    has_jitter = jit_sigma > 0.0
    jit_mu = -0.5 * kernel.jitter**2
    jit_normal = ln.jit_normal
    cpu = ln.cpu
    osd = ln.osd

    if mem_path:
        if additive:
            def price():
                t_mem = nbytes / mem(pab_static)
                base = tfe + t_mem * relief
                if has_jitter:
                    base *= float(_np_exp(jit_normal(jit_mu, jit_sigma)))
                return osd(cpu(base))
        else:
            def price():
                t_mem = nbytes / mem(pab_static)
                base = max(tfe, t_mem)
                if has_jitter:
                    base *= float(_np_exp(jit_normal(jit_mu, jit_sigma)))
                return osd(cpu(base))
    else:
        def price():
            base = tfe
            if has_jitter:
                base = base * float(_np_exp(jit_normal(jit_mu, jit_sigma)))
            return osd(cpu(base))

    return price


def _make_serial_pricer(
    engine: "Engine", kernel, units: float, rank: int, extra: float,
    ln: Optional[_LocNoise], mem
) -> Callable[..., float]:
    """Pricer for serial compute on a rank's master thread.

    The contention term depends on the *current* spread of rank virtual
    times (the desynchronisation credit), so unlike the team pricer only
    the prefix up to the overlap estimate is static; the desync sum, the
    ``exp`` and the bandwidth division replicate the per-call reference
    arithmetic exactly, including ``sum()``'s left-to-right order.

    The returned pricer takes the *current engine's* ``_rank_time``
    mapping as its argument (rather than capturing it), so sites remain
    shareable across engine instances.
    """
    cost = engine.cost
    core = engine.pinning.core_of(rank, 0)
    if kernel.memory_scope == "socket":
        scope_ranks = engine._ranks_on_socket.get(core.socket_id, set())
    else:
        scope_ranks = engine._ranks_on_numa.get(core.numa_id, set())
    # Same set object compute_context iterates -> same deterministic order.
    others = [r for r in scope_ranks if r != rank]
    ctx = engine.compute_context(rank, 0, kernel)

    t_flops = units * kernel.flops_per_unit / cost.cluster.flops_per_core
    nbytes = units * kernel.bytes_per_unit
    tfe = t_flops + extra

    mem_path = not (nbytes <= 0.0 or kernel.memory_scope == "none")
    n_other = len(others)
    if not mem_path:
        if ln is None:
            def price(_rt, _c=tfe):
                return _c

            return price
        jit_sigma = kernel.jitter
        has_jitter = jit_sigma > 0.0
        jit_mu = -0.5 * kernel.jitter**2
        jit_normal = ln.jit_normal
        cpu = ln.cpu
        osd = ln.osd

        def price(_rt):
            base = tfe
            if has_jitter:
                base = base * float(_np_exp(jit_normal(jit_mu, jit_sigma)))
            return osd(cpu(base))

        return price

    cache_factor = cost.cache.bandwidth_factor(
        ctx.cache_working_set, ctx.cache_extra_footprint
    )
    scope_bw = cost._scope_bandwidth(kernel, ctx)
    solo_bw = min(cost.memory.per_core_bw_cap, scope_bw) * cache_factor
    solo = nbytes / solo_bw if kernel.additive else max(t_flops, nbytes / solo_bw)
    relief = ctx.overlap_factor if kernel.memory_scope == "socket" else 1.0
    relief_clamped = min(1.0, max(0.0, relief))
    ce = cost.memory.contention_exponent
    cap = cost.memory.per_core_bw_cap
    additive = kernel.additive

    if n_other == 0 and ln is None:
        # No contention, no noise: constant.
        pab = min(scope_bw / (1.0 ** ce), cap)
        pab *= cache_factor
        t_mem = nbytes / pab
        const = tfe + t_mem * relief if additive else max(tfe, t_mem)

        def price(_rt, _c=const):
            return _c

        return price

    if ln is not None:
        jit_sigma = kernel.jitter
        has_jitter = jit_sigma > 0.0
        jit_mu = -0.5 * kernel.jitter**2
        jit_normal = ln.jit_normal
        cpu = ln.cpu
        osd = ln.osd

    def price(rank_time):
        if n_other > 0:
            t_now = rank_time[rank]
            s = 0.0
            for r in others:
                s += abs(rank_time[r] - t_now)
            desync = s / n_other
            if solo <= 0.0:
                overlap = 1.0
            else:
                overlap = _exp(-max(desync, 0.0) / solo)
            overlap *= relief_clamped
            a_eff = 1 + n_other * overlap
        else:
            a_eff = 1.0
        pab = min(scope_bw / (a_eff ** ce), cap)
        pab *= cache_factor
        if mem is not None:
            pab = mem(pab)
        t_mem = nbytes / pab
        base = tfe + t_mem * relief if additive else max(tfe, t_mem)
        if ln is not None:
            if has_jitter:
                base = base * float(_np_exp(jit_normal(jit_mu, jit_sigma)))
            return osd(cpu(base))
        return base

    return price


# ----------------------------------------------------------------------
# dispatch sites
# ----------------------------------------------------------------------
class _SerialSite:
    """Cached state for one (rank, Compute) or (rank, CallBurst) site."""

    __slots__ = (
        "price", "scale", "delta", "loc",
        # CallBurst only:
        "region", "emit_rid", "burst_extra", "burst_delta", "burst_delta_base",
    )


class _PforSite:
    """Cached state for one (rank, ParallelFor) construct."""

    __slots__ = (
        "instrumented", "n_threads", "rep", "evc", "evc_rep", "two_evc",
        "fork_add", "join_add", "bar_add", "stagger", "evs_add",
        "r_parallel", "r_for", "r_bar", "r_writes", "r_writes_rev",
        "runtime_delta", "tb_delta", "obe_delta", "chunk_delta",
        "bar_delta", "bar_instr_static", "omp_spin",
        "pricers", "scales", "locs",
        "static_vals",
    )


#: the engine-independent slots of :class:`_PforSite` (everything except
#: the per-engine region ids, which adoption re-interns in dispatch order)
_PFOR_STATIC_FIELDS = (
    "instrumented", "n_threads", "rep", "evc", "evc_rep", "two_evc",
    "fork_add", "join_add", "bar_add", "stagger", "evs_add",
    "runtime_delta", "tb_delta", "obe_delta", "chunk_delta",
    "bar_delta", "bar_instr_static", "omp_spin",
    "pricers", "scales", "locs",
)

# Bound on the cross-engine identity index: entries pin action objects, so
# a program yielding fresh (non-hoisted) actions must not grow it without
# limit.  Misses past the cap just fall back to the value-keyed lookup.
_SHARED_IDS_MAX = 4096


def _shared_namespace(engine: "Engine") -> Optional[dict]:
    """Cross-engine site cache living on the :class:`CostModel` instance.

    Site statics (pricers, deltas, cost prefixes, prebound noise draws)
    depend only on the cost model, the pinning geometry, the measurement
    configuration and the action values -- none of which change between
    the repeated runs of a benchmark or campaign that share one
    ``CostModel``.  Sharing them across engines removes the dominant
    per-run site-build cost.  Everything genuinely per-engine (region
    ids, ``_rank_time``) is rebound at adoption time.

    Sharing is refused (returns ``None``) whenever a config object is
    subclassed (its behaviour is then not captured by the field
    fingerprint) or faults/restart state could make sites differ.
    """
    if engine._faults is not None or engine._restart is not None:
        return None
    m = engine.measurement
    if m is not None:
        if (
            type(m) is not _Measurement
            or type(m.overhead) is not _OverheadModel
            or type(m.filter_rules) is not _FilterRules
        ):
            return None
        mfp = (m.mode, astuple(m.overhead), tuple(m.filter_rules.rules()))
    else:
        mfp = None
    omp = engine.omp_cost
    if type(omp) is not _OmpCostModel:
        return None
    cost = engine.cost
    pin = engine.pinning
    pin_sig = tuple(
        (r, t, pin.core_of(r, t).global_id) for (r, t) in pin.locations()
    )
    key = (
        mfp, pin_sig, astuple(omp), engine._ws_per_socket,
        cost.omp_spin_instr_per_sec, cost.cross_socket_factor,
    )
    store = getattr(cost, "_fastpath_shared", None)
    if store is None:
        store = {}
        try:
            cost._fastpath_shared = store
        except AttributeError:  # a CostModel with __slots__: no sharing
            return None
    ns = store.get(key)
    if ns is None:
        if len(store) >= 8:  # bound memory across heterogeneous configs
            store.clear()
        ns = {"pfor": {}, "serial": {}, "loc_noise": {}, "mem_noise": {},
              "pfor_ids": {}, "serial_ids": {}}
        store[key] = ns
    return ns


class FastPath:
    """Per-engine adoption layer over the shared dispatch-site cache."""

    def __init__(self, engine: "Engine"):
        self.engine = engine
        noise = engine.cost.noise
        self._noise = noise
        self._rank_time = engine._rank_time
        ns = _shared_namespace(engine)
        if ns is not None:
            self._loc_noise: Dict[Tuple[int, int], _LocNoise] = ns["loc_noise"]
            self._mem_noise: Dict[int, object] = ns["mem_noise"]
            self._shared_serial: Optional[Dict] = ns["serial"]
            self._shared_pfor: Optional[Dict] = ns["pfor"]
            # Cross-engine identity index: (rank, id(action)) -> (action,
            # shared state).  Hashing an action dataclass walks every
            # field including the nested KernelSpec tuples, which on the
            # quick bench fixture costs more than the rest of the site
            # lookup combined; after the first run a hoisted action
            # resolves to its shared state without being hashed at all.
            # Each entry pins the action object, so an ``is`` check on
            # the pinned object is exact even if ids were ever recycled.
            self._shared_serial_ids: Optional[Dict] = ns["serial_ids"]
            self._shared_pfor_ids: Optional[Dict] = ns["pfor_ids"]
        else:
            self._loc_noise = {}
            self._mem_noise = {}
            self._shared_serial = None
            self._shared_pfor = None
            self._shared_serial_ids = None
            self._shared_pfor_ids = None
        self._serial: Dict[Tuple[int, object], _SerialSite] = {}
        self._pfor: Dict[Tuple[int, object], _PforSite] = {}
        # Identity-keyed front caches: hashing an action dataclass walks
        # all of its fields (including the nested KernelSpec), which costs
        # more than the whole site lookup.  Programs that re-yield hoisted
        # action instances hit here on a cheap (rank, id) key instead; the
        # entry pins the action object so its id can never be recycled.
        self._serial_by_id: Dict[Tuple[int, int], Tuple[object, _SerialSite]] = {}
        self._pfor_by_id: Dict[Tuple[int, int], Tuple[object, _PforSite]] = {}
        self._sinks = engine._sinks
        # Dispatch-site cache statistics: plain ints on the hot path
        # (an obs counter call per dispatch would cost more than the
        # cached lookup it measures), flushed to the obs registry once
        # per run by :meth:`flush_metrics`.  Hit levels: ``id`` = the
        # identity-keyed front cache, ``shared_id`` = the cross-engine
        # identity index, ``value`` = the hash-keyed per-engine site
        # dict; a miss builds the site.
        self._hits_serial = [0, 0, 0]  # id, shared_id, value
        self._hits_pfor = [0, 0, 0]
        self._miss_serial = 0
        self._miss_pfor = 0

    # -- noise binding --------------------------------------------------
    def _ln(self, rank: int, thread: int) -> Optional[_LocNoise]:
        if self._noise is None:
            return None
        key = (rank, thread)
        ln = self._loc_noise.get(key)
        if ln is None:
            ln = _bind_loc_noise(self._noise, rank, thread)
            self._loc_noise[key] = ln
        return ln

    def _mem(self, numa_id: int):
        if self._noise is None:
            return None
        mem = self._mem_noise.get(numa_id)
        if mem is None:
            mem = _bind_mem_noise(self._noise, numa_id)
            self._mem_noise[numa_id] = mem
        return mem

    # -- emission -------------------------------------------------------
    def emit_fields(self, loc: int, fields: tuple) -> None:
        """Record the events whose :class:`Ev` fields ``fields`` lists back
        to back, six per event (:meth:`Engine.emit` for several events at
        once; the caller checks ``_live``)."""
        self.engine._n_events += len(fields) // 6
        self._sinks[loc](fields)

    # -- serial compute / burst ----------------------------------------
    def _build_serial(self, state: "_RankState", action) -> _SerialSite:
        """Engine-independent statics for one serial site (shareable)."""
        eng = self.engine
        kernel = action.kernel
        units = action.units
        rank = state.rank
        delta = kernel.scaled_counts(units).without_omp_iters()
        extra = eng.count_cost(delta)
        ln = self._ln(rank, 0)
        mem = self._mem(eng.pinning.core_of(rank, 0).numa_id)
        site = _SerialSite()
        site.price = _make_serial_pricer(eng, kernel, units, rank, extra, ln, mem)
        site.scale = eng.compute_scale(rank, 0)
        site.delta = delta
        site.loc = eng.loc_id(rank, 0)
        site.region = None
        if type(action) is A.CallBurst and eng.measurement is not None:
            site.region = action.region
            site.burst_extra = 2.0 * action.calls * eng.measurement.event_cost()
            site.burst_delta_base = WorkDelta(
                omp_iters=0.0,
                bb=delta.bb,
                stmt=delta.stmt,
                instr=delta.instr,
                burst_calls=action.calls,
            )
            site.burst_delta = site.burst_delta_base + EMPTY_DELTA
        return site

    def _shared_serial_state(self, key, state: "_RankState", action):
        shared = self._shared_serial
        if shared is None:
            return self._build_serial(state, action)
        st = shared.get(key)
        if st is None:
            st = self._build_serial(state, action)
            shared[key] = st
        return st

    def _bind_serial(self, st) -> _SerialSite:
        """Bind a shared serial-site state to this engine.

        Interning the burst region at first dispatch keeps the
        first-dispatch interning order on every engine, so region ids
        stay identical run by run.
        """
        eng = self.engine
        site = _SerialSite()
        site.price = st.price
        site.scale = st.scale
        site.delta = st.delta
        site.loc = st.loc
        site.region = st.region
        site.emit_rid = None
        if st.region is not None and not eng._filtered(st.region):
            site.emit_rid = eng.regions.intern(st.region)
            site.burst_extra = st.burst_extra
            site.burst_delta = st.burst_delta
            site.burst_delta_base = st.burst_delta_base
        return site

    def _serial_site(self, state: "_RankState", action) -> _SerialSite:
        ik = (state.rank, id(action))
        ent = self._serial_by_id.get(ik)
        if ent is not None:
            self._hits_serial[0] += 1
            return ent[1]
        ids = self._shared_serial_ids
        if ids is not None:
            sent = ids.get(ik)
            if sent is not None and sent[0] is action:
                self._hits_serial[1] += 1
                site = self._bind_serial(sent[1])
                self._serial_by_id[ik] = (action, site)
                return site
        key = (state.rank, action)
        site = self._serial.get(key)
        if site is None:
            self._miss_serial += 1
            st = self._shared_serial_state(key, state, action)
            site = self._bind_serial(st)
            self._serial[key] = site
            if ids is not None and len(ids) < _SHARED_IDS_MAX:
                ids[ik] = (action, st)
        else:
            self._hits_serial[2] += 1
        self._serial_by_id[ik] = (action, site)
        return site

    def do_compute(self, state: "_RankState", action) -> None:
        site = self._serial_site(state, action)
        state.t += site.price(self._rank_time) * site.scale
        # inlined state.add_delta(site.delta)
        pd = state.pending_delta
        state.pending_delta = site.delta if pd is EMPTY_DELTA else pd + site.delta

    def do_burst(self, state: "_RankState", action) -> None:
        site = self._serial_site(state, action)
        dur = site.price(self._rank_time) * site.scale
        t0 = state.t
        if site.emit_rid is not None:
            dur += site.burst_extra
            if state.pending_delta is EMPTY_DELTA:
                full = site.burst_delta
            else:
                full = site.burst_delta_base + state.flush_delta()
            state.t = t0 + dur
            if self.engine._live:
                self.emit_fields(site.loc, (BURST, site.emit_rid, state.t, full, None, t0))
        else:
            state.t = t0 + dur
            state.add_delta(site.delta)

    # -- OpenMP parallel-for --------------------------------------------
    def _build_pfor(self, state: "_RankState", pf) -> _PforSite:
        eng = self.engine
        omp = eng.omp_cost
        n_threads = state.n_threads
        rank = state.rank
        rep = max(1.0, float(pf.represents))
        instrumented = eng.measurement is not None

        site = _PforSite()
        site.instrumented = instrumented
        site.n_threads = n_threads
        site.rep = rep
        ev_cost = eng.ev_cost
        site.evc = ev_cost
        site.evc_rep = ev_cost * rep
        site.two_evc = 2 * ev_cost

        extra_bc = (rep - 1.0) / 2.0
        site.runtime_delta = WorkDelta(
            omp_calls=rep, instr=omp.runtime_instr_per_call * rep, burst_calls=extra_bc
        )
        site.tb_delta = WorkDelta(burst_calls=extra_bc)
        site.obe_delta = WorkDelta(burst_calls=extra_bc)
        site.omp_spin = eng.cost.omp_spin_instr_per_sec
        site.bar_instr_static = omp.runtime_instr_per_call * rep
        if site.omp_spin == 0.0:
            # the barrier's spin instructions, 0.0 * wait, are 0.0 for
            # every wait >= 0, and x + 0.0 == x, so one delta serves every
            # thread bit-exactly.
            site.bar_delta = WorkDelta(
                omp_calls=rep, instr=site.bar_instr_static, burst_calls=extra_bc
            )
        else:
            site.bar_delta = None

        site.fork_add = omp.fork_cost(n_threads) * rep
        site.join_add = omp.join_cost(n_threads) * rep
        site.bar_add = (
            omp.barrier_cost(n_threads) + eng.omp_team_sync * min(n_threads, 80)
        ) * rep

        units = pf.thread_units(n_threads)
        kernel = pf.kernel
        stagger = []
        evs_add = []
        pricers = []
        scales = []
        locs = []
        chunk_deltas = []
        n_writes2 = 2 * len(pf.shared_writes)
        for i in range(n_threads):
            stagger.append(omp.stagger(i))
            u = float(units[i])
            chunk_counts = kernel.scaled_counts(u)
            chunk_deltas.append(chunk_counts)
            count_cost = eng.count_cost(chunk_counts)
            ctx = eng.compute_context(rank, i, kernel, team_threads=n_threads)
            ln = self._ln(rank, i)
            mem = self._mem(ctx.numa_id)
            pricers.append(_make_team_pricer(eng, kernel, u, ctx, count_cost, ln, mem))
            scales.append(eng.compute_scale(rank, i))
            n_events = (5 if i > 0 else 4) + n_writes2
            evs_add.append(n_events * ev_cost * rep)
            locs.append(eng.loc_id(rank, i))
        site.stagger = stagger
        site.evs_add = evs_add
        site.pricers = pricers
        site.scales = scales
        site.locs = locs
        site.chunk_delta = chunk_deltas
        # prebuilt value tuple so adoption copies without getattr churn
        site.static_vals = tuple(getattr(site, f) for f in _PFOR_STATIC_FIELDS)
        return site

    def _shared_pfor_state(self, key, state: "_RankState", pf):
        shared = self._shared_pfor
        if shared is None:
            return self._build_pfor(state, pf)
        st = shared.get(key)
        if st is None:
            st = self._build_pfor(state, pf)
            shared[key] = st
        return st

    def _bind_pfor(self, st, pf) -> _PforSite:
        """Bind a shared pfor-site state to this engine.

        Region interning happens here, at the site's first dispatch on
        *this* engine -- the program point at which a per-call execution
        interns -- so per-run region-id assignment does not depend on
        the cache.
        """
        site = _PforSite()
        for f, v in zip(_PFOR_STATIC_FIELDS, st.static_vals):
            setattr(site, f, v)
        if site.instrumented:
            intern = self.engine.regions.intern
            site.r_parallel = intern(f"omp_parallel_{pf.region}", Paradigm.OMP)
            site.r_for = intern(f"omp_for_{pf.region}", Paradigm.OMP)
            site.r_bar = intern(f"omp_ibarrier_{pf.region}", Paradigm.OMP)
            site.r_writes = tuple(
                intern(f"omp_shared_write_{var}", Paradigm.OMP)
                for var in pf.shared_writes
            )
        else:
            site.r_parallel = site.r_for = site.r_bar = -1
            site.r_writes = ()
        site.r_writes_rev = tuple(reversed(site.r_writes))
        return site

    def _pfor_site(self, ik, state: "_RankState", pf) -> _PforSite:
        ids = self._shared_pfor_ids
        if ids is not None:
            sent = ids.get(ik)
            if sent is not None and sent[0] is pf:
                self._hits_pfor[1] += 1
                site = self._bind_pfor(sent[1], pf)
                self._pfor_by_id[ik] = (pf, site)
                return site
        key = (state.rank, pf)
        site = self._pfor.get(key)
        if site is None:
            self._miss_pfor += 1
            st = self._shared_pfor_state(key, state, pf)
            site = self._bind_pfor(st, pf)
            self._pfor[key] = site
            if ids is not None and len(ids) < _SHARED_IDS_MAX:
                ids[ik] = (pf, st)
        else:
            self._hits_pfor[2] += 1
        self._pfor_by_id[ik] = (pf, site)
        return site

    def parallel_for(self, state: "_RankState", pf) -> None:
        eng = self.engine
        ik = (state.rank, id(pf))
        ent = self._pfor_by_id.get(ik)
        if ent is not None:
            self._hits_pfor[0] += 1
            site = ent[1]
        else:
            site = self._pfor_site(ik, state, pf)
        omp_id = eng._next_omp
        eng._next_omp = omp_id + 1
        n = site.n_threads
        instrumented = site.instrumented
        live = eng._live
        t = state.t
        locs = site.locs
        r_parallel = site.r_parallel

        if instrumented:
            d_enter = state.pending_delta
            state.pending_delta = EMPTY_DELTA
            if live:
                self.emit_fields(locs[0], (
                    ENTER, r_parallel, t, d_enter, None, 0.0,
                    FORK, r_parallel, t + site.evc, site.runtime_delta, omp_id, 0.0))
            t += site.evc
            t += site.evc_rep

        fork_done = t + site.fork_add
        starts = []
        finishes = []
        for pricer, scale, stag, eadd in zip(
            site.pricers, site.scales, site.stagger, site.evs_add
        ):
            start = fork_done + stag
            starts.append(start)
            finishes.append(start + pricer() * scale + eadd)

        bar_done = max(finishes) + site.bar_add

        if instrumented and live:
            r_for = site.r_for
            r_bar = site.r_bar
            runtime_delta = site.runtime_delta
            tb_delta = site.tb_delta
            obe_delta = site.obe_delta
            chunk_delta = site.chunk_delta
            bar_delta = site.bar_delta
            obar_aux = (omp_id, n)
            for i in range(n):
                start = starts[i]
                fin = finishes[i]
                if bar_delta is None:
                    wait = bar_done - fin
                    bd = WorkDelta(
                        omp_calls=site.rep,
                        instr=site.bar_instr_static + site.omp_spin * wait,
                        burst_calls=tb_delta.burst_calls,
                    )
                else:
                    bd = bar_delta
                fields = (ENTER, r_for, start, runtime_delta, None, 0.0)
                if i > 0:
                    fields = (TEAM_BEGIN, r_parallel, start, tb_delta, omp_id, 0.0) + fields
                for r_w in site.r_writes:
                    fields += (ENTER, r_w, start, EMPTY_DELTA, None, 0.0)
                for r_w in site.r_writes_rev:
                    fields += (LEAVE, r_w, fin, EMPTY_DELTA, None, 0.0)
                self.emit_fields(locs[i], fields + (
                    LEAVE, r_for, fin, chunk_delta[i], None, 0.0,
                    OBAR_ENTER, r_bar, fin, obe_delta, None, 0.0,
                    OBAR_LEAVE, r_bar, bar_done, bd, obar_aux, 0.0))

        join_done = bar_done + site.join_add
        if instrumented and live:
            self.emit_fields(locs[0], (
                JOIN, r_parallel, join_done, site.runtime_delta, omp_id, 0.0,
                LEAVE, r_parallel, join_done + site.evc, EMPTY_DELTA, None, 0.0))
        state.t = join_done + site.two_evc

    # -- observability --------------------------------------------------
    def flush_metrics(self) -> None:
        """Flush the dispatch-site cache statistics to the obs registry.

        Called once at the end of :meth:`Engine._run`; a disabled
        registry makes this a handful of no-op calls.
        """
        from repro import obs

        for kind, hits, misses in (
            ("serial", self._hits_serial, self._miss_serial),
            ("pfor", self._hits_pfor, self._miss_pfor),
        ):
            for level, n in zip(("id", "shared_id", "value"), hits):
                if n:
                    obs.counter("sim.fastpath.site_hits",
                                kind=kind, level=level).add(n)
            if misses:
                obs.counter("sim.fastpath.site_misses", kind=kind).add(misses)

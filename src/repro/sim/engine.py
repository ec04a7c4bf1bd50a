"""The discrete-event simulation engine.

Rank programs (generators) are advanced in global virtual-time order.
Blocking MPI semantics -- receive matching, rendezvous hand-shakes,
collective completion -- park a rank until a partner action resolves it.
Every instrumented happening is emitted as a trace event to the attached
measurement object (or silently skipped in uninstrumented reference runs).

Measurement feedback
--------------------
Instrumentation perturbs the execution, which is the subject of the
paper's Table I / Table II / Fig. 2.  Three perturbation channels feed
back from the measurement object into virtual time:

* ``event_cost`` seconds per recorded event (and per *represented* call of
  an aggregated :class:`~repro.sim.actions.CallBurst`),
* ``count_cost`` seconds of extra flop-side time for basic-block /
  statement counting instrumentation (hidden in memory-bound kernels),
* ``footprint_per_socket`` bytes of trace-buffer memory that join the
  application working set in the cache model (the TeaLeaf effect), and
* ``mpi_sync_cost`` seconds per MPI operation for logical modes, modelling
  the extra counter-synchronisation messages the paper's implementation
  sends inside the MPI wrappers.

Faults and recovery
-------------------
An optional :class:`~repro.machine.faults.FaultModel` injects seeded
faults: message loss/duplication and link degradation perturb transfer
times (and emit ``FAULT`` marker events on the affected receiver), a
straggler core scales compute durations, and a drawn rank crash raises
:class:`SimCrashError` out of :meth:`Engine.run`.  The checkpoint/restart
protocol lives in :mod:`repro.sim.recovery`: it re-runs the engine with a
:class:`RestartPlan`, under which the engine *ghost-replays* the already
traced execution prefix -- same costs, same draws, no event emission --
up to the restart checkpoint, jumps every rank to the resume time, emits
one ``RESTART`` event per rank and goes live.  Ghost replay keeps region
interning, match ids and collective ids bit-identical to the prefix the
trace already contains, which is what makes recovered traces pass the
sanitizer.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import obs
from repro.machine.faults import CrashPoint, FaultModel
from repro.machine.network import CollectiveCostModel, NetworkModel
from repro.machine.topology import Cluster
from repro.sim import actions as A
from repro.sim.costmodel import ComputeContext, CostModel, OmpCostModel
from repro.sim.fastpath import FastPath
from repro.sim.events import (
    COLL_END,
    ENTER,
    FAULT,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    RESTART,
    Paradigm,
    RegionRegistry,
)
from repro.sim.kernels import EMPTY_DELTA, KernelSpec, WorkDelta
from repro.sim.program import Program, ProgramContext

__all__ = ["Engine", "SimResult", "EngineConfig", "SimCrashError", "RestartPlan"]


@dataclass
class EngineConfig:
    """Fixed costs of the simulated MPI library and OpenMP runtime."""

    mpi_call_overhead: float = 0.8e-6  # entering + internal work of an MPI call
    eager_copy_bandwidth: float = 8.0e9  # bytes/s memcpy into the eager buffer
    checkpoint_write_bandwidth: float = 2.0e9  # bytes/s per rank to stable storage
    omp: OmpCostModel = field(default_factory=OmpCostModel)


class SimCrashError(RuntimeError):
    """A drawn fail-stop crash terminated the run.

    Carries what the recovery protocol (:mod:`repro.sim.recovery`) needs:
    the fired :class:`~repro.machine.faults.CrashPoint`, the number of
    application checkpoints completed before the crash (the restart
    epoch) and the virtual time at which the failure was detected.
    """

    def __init__(self, point: CrashPoint, epoch: int, t_crash: float):
        unit = "action" if point.trigger == "progress" else "t"
        super().__init__(
            f"rank {point.rank} fail-stop at {unit}={point.at:g} "
            f"(t_detect={t_crash:.6g}s, {epoch} checkpoint(s) completed)"
        )
        self.point = point
        self.epoch = epoch
        self.t_crash = t_crash


@dataclass(frozen=True)
class RestartPlan:
    """Instructions for re-running the engine after fail-stop crashes.

    ``restarts`` lists the checkpoint epochs still visible in the kept
    trace prefix together with their resume times, in strictly
    increasing epoch order; the engine ghost-replays (no emission, same
    costs and draws) up to each epoch, jumps every rank to the resume
    time, and goes *live* after applying the last entry, emitting one
    ``RESTART`` event per rank with ``aux = (restart_id, n_ranks)``.
    ``suppressed`` holds the :attr:`~repro.machine.faults.CrashPoint.key`
    of every crash that already fired so it cannot fire again.
    """

    restarts: Tuple[Tuple[int, float], ...]
    suppressed: frozenset = frozenset()
    restart_id: int = 0


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    runtime: float
    phase_times: Dict[str, float]
    rank_end_times: List[float]
    n_events: int
    trace: Optional[object] = None  # RawTrace when instrumented

    def phase(self, name: str) -> float:
        try:
            return self.phase_times[name]
        except KeyError:
            raise KeyError(
                f"phase {name!r} not tracked; available: {sorted(self.phase_times)}"
            ) from None


class _Request:
    """A non-blocking communication request."""

    __slots__ = ("rid", "kind", "complete_t", "match_id", "send_t", "waiter",
                 "fault_rid", "any_rid")

    def __init__(self, rid: int, kind: str):
        self.rid = rid
        self.kind = kind  # "send" | "recv"
        self.complete_t: Optional[float] = None
        self.match_id: Optional[int] = None
        self.send_t: float = 0.0
        self.waiter: Optional[_RankState] = None
        self.fault_rid: int = -1  # fault region id to emit at wait completion
        #: region id of the wildcard Irecv call (-1 for a named source);
        #: wildcard receive-complete records are emitted under it so the
        #: race detector can see wildcard-ness in the trace
        self.any_rid: int = -1


class _RankState:
    """Mutable per-rank execution state."""

    __slots__ = (
        "rank",
        "gen",
        "t",
        "n_threads",
        "stack",
        "pending_delta",
        "pending_result",
        "requests",
        "next_req",
        "blocked",
        "done",
        "wait_t0",
        "wait_requests",
        "wait_region",
        "epoch",
        "block_site",
        "n_actions",
    )

    def __init__(self, rank: int, gen: Generator, n_threads: int):
        self.rank = rank
        self.gen = gen
        self.t = 0.0
        self.n_threads = n_threads
        self.stack: List[str] = []
        self.pending_delta: WorkDelta = EMPTY_DELTA
        self.pending_result: Any = None
        self.requests: Dict[int, _Request] = {}
        self.next_req = 0
        self.blocked = False
        self.done = False
        self.wait_t0 = 0.0
        self.wait_requests: List[int] = []
        self.wait_region: int = -1
        self.epoch = 0  # bumped on every resume to invalidate stale heap entries
        #: (action description, call-path snapshot) of the current block site
        self.block_site: Optional[Tuple[str, Tuple[str, ...]]] = None
        self.n_actions = 0  # dispatched actions (progress-triggered crashes)

    def flush_delta(self) -> WorkDelta:
        d = self.pending_delta
        self.pending_delta = EMPTY_DELTA
        return d

    def add_delta(self, d: WorkDelta) -> None:
        if self.pending_delta is EMPTY_DELTA:
            self.pending_delta = d
        else:
            self.pending_delta = self.pending_delta + d

    def new_request(self, kind: str) -> _Request:
        req = _Request(self.next_req, kind)
        self.requests[self.next_req] = req
        self.next_req += 1
        return req


class Engine:
    """Simulate ``program`` on ``cluster`` with optional measurement.

    Parameters
    ----------
    program:
        The application (supplies rank generators and job geometry).
    cluster:
        Hardware model.
    cost:
        Physical cost model (roofline + noise).  Its ``noise`` attribute
        may be ``None`` for fully deterministic runs.
    measurement:
        A measurement object from :mod:`repro.measure`, or ``None`` for an
        uninstrumented reference run.
    sanitize:
        When true, the measurement checks the finished trace at the end
        of the run -- the sanitizer's structural pass, then the race
        detector -- and raises
        :class:`~repro.verify.diagnostics.TraceInvariantError` on an
        error finding, so no trace is returned; requires a measurement
        object.
    faults:
        Optional :class:`~repro.machine.faults.FaultModel`; drawn rank
        crashes raise :class:`SimCrashError` out of :meth:`run`.
    restart:
        Optional :class:`RestartPlan` (set by :mod:`repro.sim.recovery`);
        the engine ghost-replays the traced prefix and resumes emission
        at the last restart point.  Requires a measurement that supports
        ``rebind`` (events before the plan's restarts were already
        recorded in a previous attempt).
    """

    def __init__(
        self,
        program: Program,
        cluster: Cluster,
        cost: CostModel,
        measurement=None,
        config: Optional[EngineConfig] = None,
        network: Optional[NetworkModel] = None,
        sanitize: bool = False,
        faults=None,
        restart: Optional[RestartPlan] = None,
    ):
        self.program = program
        self.cluster = cluster
        self.cost = cost
        self.measurement = measurement
        self.config = config or EngineConfig()
        self.omp_cost = self.config.omp
        self.pinning = program.pinning(cluster)
        self.network = network or NetworkModel(cluster)
        self.collectives = CollectiveCostModel(self.network)
        self.regions = RegionRegistry()

        # Location ids: rank-major, thread-minor.
        self._loc_base: Dict[int, int] = {}
        base = 0
        for r in self.pinning.ranks:
            self._loc_base[r] = base
            base += self.pinning.threads_of(r)
        self.n_locations = base

        # Fault injection and checkpoint/restart state.
        self._faults = faults
        self._restart = restart
        self._restart_idx = 0
        #: Emission gate: False while ghost-replaying an already traced
        #: prefix during recovery (costs and draws still happen so the
        #: replay is bit-identical to the attempt that produced the prefix).
        self._live = restart is None or not restart.restarts
        self._ckpt_count = 0
        #: completed checkpoint epoch -> (virtual time after it, measurement mark)
        self.checkpoint_marks: Dict[int, Tuple[float, Any]] = {}
        self._chan_occurrence: Dict[Tuple[int, int, int], int] = {}
        self._crashes: Dict[int, CrashPoint] = {}
        if faults is not None:
            sched = faults.crash_schedule(self.pinning.n_ranks)
            suppressed = restart.suppressed if restart is not None else frozenset()
            self._crashes = {r: cp for r, cp in sched.items() if cp.key not in suppressed}
        if faults is not None or restart is not None:
            # Interned eagerly so region ids do not depend on when (or
            # whether) the first fault fires: a recovery ghost replay must
            # reproduce the exact interning order of the traced prefix.
            self._rid_fault_loss = self.regions.intern("fault_msg_loss", Paradigm.MEASUREMENT)
            self._rid_fault_dup = self.regions.intern("fault_msg_dup", Paradigm.MEASUREMENT)
            self._rid_restart = self.regions.intern("sim_restart", Paradigm.MEASUREMENT)
        else:
            self._rid_fault_loss = self._rid_fault_dup = self._rid_restart = -1

        # Measurement feedback, cached for the hot path.
        if sanitize and measurement is None:
            raise ValueError("sanitize=True requires a measurement object")
        if measurement is not None:
            if sanitize:
                measurement.enable_sanitize()
            if restart is not None:
                measurement.rebind(self)
            else:
                measurement.begin(self)
            self.ev_cost = measurement.event_cost()
            self._mpi_sync_cost = measurement.mpi_sync_cost()
            self._footprint = measurement.footprint_per_socket()
            self.omp_team_sync = measurement.omp_team_sync_cost()
            self._overlap_factor = measurement.overlap_relief()
        else:
            self.ev_cost = 0.0
            self._mpi_sync_cost = 0.0
            self._footprint = 0.0
            self.omp_team_sync = 0.0
            self._overlap_factor = 1.0
        self._ws_per_socket = program.working_set_per_socket(self.pinning)

        # Runtime state.
        self._ranks: Dict[int, _RankState] = {}
        #: scheduler wake-ups (t, seq, rank, epoch); seq breaks time ties
        #: first-pushed first
        self._heap: List[Tuple[float, int, int, int]] = []
        self._seq = itertools.count()
        self._channels: Dict[Tuple[int, int, int], Dict[str, deque]] = {}
        #: (dst, tag) -> parked ANY_SOURCE receives, in posting order
        self._any_recvs: Dict[Tuple[int, int], deque] = {}
        #: per-destination posted-receive counter; arbitrates between a
        #: parked named receive and a parked wildcard receive the way MPI
        #: does -- by posting order at the receiver
        self._recv_seq: Dict[int, int] = {}
        self._coll: Dict[int, dict] = {}  # instance seq -> state
        self._coll_seq: Dict[int, int] = {}  # per-rank collective counter
        self._next_match = 0
        self._next_coll = 0
        self._next_omp = 0
        self._n_events = 0
        self._phase_enter: Dict[str, float] = {}
        #: per-run Enter/Leave cache: region -> (is_phase, rid or None)
        self._region_cache: Dict[str, Tuple[bool, Optional[int]]] = {}
        self._mpi_rid: Dict[str, int] = {}
        #: hoisted constants for the hot _mpi_leave path
        self._mpi_spin = cost.mpi_spin_instr_per_sec
        self._mpi_lib_instr = cost.mpi_library_instr_per_call
        #: per-run (rank, Send/Isend action) -> (eager, base transfer, eager extra)
        self._send_cache: Dict[Tuple[int, Any], Tuple[bool, float, float]] = {}
        #: per-run collective action -> (rep, noiseless collective cost)
        self._coll_cost_cache: Dict[Any, Tuple[float, float]] = {}
        self._phase_leave: Dict[str, float] = {}
        self._rank_time: Dict[int, float] = {}

        # Static pinning-derived contention tables.
        self._numa_occupancy = self.pinning.numa_occupancy()
        self._socket_occupancy: Dict[int, int] = {}
        self._ranks_on_numa: Dict[int, set] = {}
        self._ranks_on_socket: Dict[int, set] = {}
        # Observability: metric objects are bound once here; while
        # observability is disabled (the default) these are the shared
        # null singletons whose operations are no-ops, so the hot loop
        # pays one no-op method call and allocates nothing.
        self._c_steps = obs.counter("sim.scheduler_steps")
        self._c_stale = obs.counter("sim.stale_wakeups")
        self._c_matched = obs.counter("sim.messages_matched")
        self._c_coll = obs.counter("sim.collectives_completed")
        self._c_blocks = obs.counter("sim.rank_blocks")
        self._h_msg_bytes = obs.histogram("sim.message_bytes")
        # actions dispatched per scheduler run-slice
        self._h_drain_batch = obs.histogram(
            "sim.drain_batch_size",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                    512.0, 1024.0),
        )
        self._c_crashes = obs.counter("faults.crashes")
        self._c_restarts = obs.counter("faults.restarts")
        self._c_ckpts = obs.counter("faults.checkpoints")

        rank_sockets: Dict[int, set] = {}
        for (r, th) in self.pinning.locations():
            core = self.pinning.core_of(r, th)
            self._socket_occupancy[core.socket_id] = self._socket_occupancy.get(core.socket_id, 0) + 1
            self._ranks_on_numa.setdefault(core.numa_id, set()).add(r)
            self._ranks_on_socket.setdefault(core.socket_id, set()).add(r)
            rank_sockets.setdefault(r, set()).add(core.socket_id)
        self._rank_spans_sockets = {r: len(s) > 1 for r, s in rank_sockets.items()}

        # Emission: per location, the measurement's sink, which takes one
        # or more events' fields (unused in reference runs).
        self._sinks = measurement.sinks() if measurement is not None else None
        # Per-site cost caches for compute-shaped actions.  Built last --
        # FastPath binds the sinks and the contention tables above.
        self._fast = FastPath(self)

    # ------------------------------------------------------------------
    # identifiers and emission
    # ------------------------------------------------------------------
    def loc_id(self, rank: int, thread: int) -> int:
        return self._loc_base[rank] + thread

    def emit(self, loc: int, etype: int, region: int, t: float,
             delta: WorkDelta = EMPTY_DELTA, aux=None,
             t_enter: float = 0.0) -> None:
        """Record an event from its :class:`Ev` fields (instrumented runs
        only; a no-op during ghost replay)."""
        if self._live:
            self._n_events += 1
            self._sinks[loc]((etype, region, t, delta, aux, t_enter))

    def emit_master(self, rank: _RankState, etype: int, region: int, t: float,
                    delta: WorkDelta = EMPTY_DELTA, aux=None) -> None:
        """:meth:`emit` on ``rank``'s master thread."""
        if self._live:
            self._n_events += 1
            self._sinks[self._loc_base[rank.rank]]((etype, region, t, delta, aux, 0.0))

    def count_cost(self, delta: WorkDelta) -> float:
        if self.measurement is None:
            return 0.0
        return self.measurement.count_cost(delta)

    # ------------------------------------------------------------------
    # contention context
    # ------------------------------------------------------------------
    def compute_context(
        self, rank: int, thread: int, kernel: KernelSpec, team_threads: int = 1
    ) -> ComputeContext:
        """Build the contention/cache context for one kernel execution.

        ``team_threads`` is the number of own-rank threads running the same
        phase (1 for serial compute).  Other ranks pinned to the same scope
        contribute contention discounted by their current virtual-time
        spread (the desynchronisation credit, see
        :mod:`repro.machine.memory`).
        """
        core = self.pinning.core_of(rank, thread)
        if kernel.memory_scope == "socket":
            scope_ranks = self._ranks_on_socket.get(core.socket_id, set())
        else:
            scope_ranks = self._ranks_on_numa.get(core.numa_id, set())
        others = [r for r in scope_ranks if r != rank]
        if team_threads > 1:
            # SPMD: assume other ranks run the same parallel phase with the
            # same width, counting only their threads pinned to this scope.
            if kernel.memory_scope == "socket":
                occ = self._socket_occupancy.get(core.socket_id, team_threads)
            else:
                occ = self._numa_occupancy.get(core.numa_id, team_threads)
            own_here = sum(
                1
                for tt in range(self.pinning.threads_of(rank))
                if (self.pinning.core_of(rank, tt).socket_id == core.socket_id
                    if kernel.memory_scope == "socket"
                    else self.pinning.core_of(rank, tt).numa_id == core.numa_id)
            )
            team = own_here
            other_actors = max(0, occ - own_here)
        else:
            team = 1
            other_actors = len(others)  # one active (master) stream per rank
        t_now = self._rank_time.get(rank, 0.0)
        if others and team_threads == 1:
            # Serial phases: cross-rank overlap decays with the current
            # spread of rank progress (drives the MiniFE init behaviour).
            desync = sum(abs(self._rank_time.get(r, 0.0) - t_now) for r in others) / len(others)
        else:
            # Steady-state SPMD parallel loops: ranks re-synchronise at
            # every collective, so treat the overlap as full.  Without
            # this, the desync estimate feeds back into bandwidth shares
            # and fabricates rank skew that the real machine doesn't show.
            desync = 0.0
        return ComputeContext(
            rank=rank,
            thread=thread,
            numa_id=core.numa_id,
            socket_id=core.socket_id,
            team_actors=team,
            other_actors=other_actors,
            desync=desync,
            cache_working_set=self._ws_per_socket,
            cache_extra_footprint=self._footprint,
            overlap_factor=self._overlap_factor,
            team_cross_socket=(team_threads > 1 and self._rank_spans_sockets.get(rank, False)),
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the program to completion and return the results."""
        with obs.span(
            "engine.run",
            program=self.program.name,
            mode=self.measurement.mode if self.measurement is not None else "ref",
        ):
            return self._run()

    def _run(self) -> SimResult:
        for r in self.pinning.ranks:
            ctx = ProgramContext(
                rank=r, n_ranks=self.pinning.n_ranks, n_threads=self.pinning.threads_of(r)
            )
            state = _RankState(r, self.program.make_rank(ctx), self.pinning.threads_of(r))
            self._ranks[r] = state
            self._rank_time[r] = 0.0
            self._coll_seq[r] = 0
            self._push(state)
        # Epoch 0: a crash before the first checkpoint restarts from t=0.
        self._apply_restarts(0)

        with obs.span("engine.drain"):
            finished = self._drain()
        if finished != len(self._ranks):
            raise self._deadlock_error()

        runtime = max(self._rank_time.values()) if self._rank_time else 0.0
        phases = {}
        for name, t_enter in self._phase_enter.items():
            t_leave = self._phase_leave.get(name)
            if t_leave is not None:
                phases[name] = t_leave - t_enter
        with obs.span("engine.finish"):
            trace = self.measurement.finish(runtime) if self.measurement is not None else None
            obs.counter("sim.events_emitted").add(self._n_events)
            obs.counter("sim.runs").inc()
            self._fast.flush_metrics()
        return SimResult(
            runtime=runtime,
            phase_times=phases,
            rank_end_times=[self._rank_time[r] for r in sorted(self._rank_time)],
            n_events=self._n_events,
            trace=trace,
        )

    def _deadlock_error(self) -> RuntimeError:
        """Per stuck rank: the blocked MPI action and its call path."""
        from repro.verify.diagnostics import Diagnostic, format_diagnostics

        stuck = sorted(r for r, s in self._ranks.items() if not s.done)
        diags = []
        for r in stuck:
            s = self._ranks[r]
            site = s.block_site
            if site is None:
                desc, path = "<unknown action>", tuple(s.stack)
            elif len(site) == 4:  # deferred collective site
                region, seq, missing, path = site
                desc = (
                    f"{region} (collective sequence {seq}, "
                    f"waiting for {missing} more rank(s))"
                )
            else:
                desc, path = site
            diags.append(Diagnostic(
                "MPI008", f"blocked on {desc}", rank=r, call_path=path
            ))
        header = (
            f"deadlock: ranks {stuck} blocked at end of simulation "
            f"(unmatched communication in {self.program.name!r})"
        )
        return RuntimeError(format_diagnostics(diags, header=header))

    def _drain(self) -> int:
        """Run the ranks in virtual-time order; returns how many finished.

        Wake-ups wait in a heap of ``(t, seq, rank, epoch)``.  A popped
        rank runs a *slice*: it keeps stepping while its time is
        *strictly* earlier than every queued wake-up, because the entry a
        push would add is then exactly the one the next pop returns (a
        fresh push carries the largest ``seq`` and loses every ``(t, seq)``
        tie to an entry already queued).  A resume bumps the rank's epoch,
        so an entry pushed before it is stale and skipped when popped; a
        stale head only ends a slice early, which changes no order.
        """
        heap = self._heap
        pop = heapq.heappop
        push_pop = heapq.heappushpop
        next_seq = self._seq.__next__
        ranks = self._ranks
        rt = self._rank_time
        crashes = self._crashes
        fast = self._fast
        pfor_fn = fast.parallel_for
        compute_fn = fast.do_compute
        burst_fn = fast.do_burst
        enter_fn = self._do_enter
        leave_fn = self._do_leave
        dispatch = self._dispatch
        _PFOR, _COMP, _BURST = A.ParallelFor, A.Compute, A.CallBurst
        _ENTER, _LEAVE = A.Enter, A.Leave
        observe_batch = self._h_drain_batch.observe
        n_done = 0
        n_steps = 0
        n_stale = 0
        nxt = pop(heap) if heap else None
        try:
            while nxt is not None:
                r = nxt[2]
                state = ranks[r]
                if state.done or state.blocked or nxt[3] != state.epoch:
                    n_stale += 1
                    nxt = pop(heap) if heap else None
                    continue
                gen_send = state.gen.send
                slice_start = n_steps
                while True:
                    n_steps += 1
                    if crashes:
                        cp = crashes.get(r)
                        if cp is not None and (
                            state.n_actions >= cp.at
                            if cp.trigger == "progress"
                            else state.t >= cp.at
                        ):
                            # Fail-stop: consume the crash point (it fires
                            # once across all recovery attempts) and abort
                            # the whole run.
                            del crashes[r]
                            self._c_crashes.inc()
                            raise SimCrashError(cp, self._ckpt_count, max(rt.values()))
                    try:
                        action = gen_send(state.pending_result)
                    except StopIteration:
                        state.done = True
                        rt[r] = state.t
                        n_done += 1
                        nxt = pop(heap) if heap else None
                        break
                    state.pending_result = None
                    state.n_actions += 1
                    epoch_before = state.epoch
                    cls = type(action)
                    if cls is _PFOR:
                        pfor_fn(state, action)
                    elif cls is _COMP:
                        compute_fn(state, action)
                    elif cls is _BURST:
                        burst_fn(state, action)
                    elif cls is _ENTER:
                        enter_fn(state, action.region)
                    elif cls is _LEAVE:
                        leave_fn(state, action.region)
                    else:
                        dispatch(state, action)
                    t = state.t
                    if t > rt[r]:
                        rt[r] = t
                    if not state.blocked and not state.done and state.epoch == epoch_before:
                        if not heap or t < heap[0][0]:
                            continue  # still the earliest: slice on
                        nxt = push_pop(heap, (t, next_seq(), r, state.epoch))
                        break
                    # parked, or resumed (re-queued) during its own dispatch
                    nxt = pop(heap) if heap else None
                    break
                observe_batch(n_steps - slice_start)
        finally:
            self._c_steps.inc(n_steps)
            self._c_stale.inc(n_stale)
        return n_done

    def _push(self, state: _RankState) -> None:
        heapq.heappush(self._heap, (state.t, next(self._seq), state.rank, state.epoch))

    def _resume(self, state: _RankState, t: float, result: Any = None) -> None:
        state.t = t
        state.blocked = False
        state.block_site = None
        state.epoch += 1
        state.pending_result = result
        self._rank_time[state.rank] = t
        self._push(state)

    # ------------------------------------------------------------------
    # action dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, state: _RankState, action) -> None:
        """Execute one action (:meth:`_drain` inlines the first five)."""
        cls = type(action)
        if cls is A.ParallelFor:
            self._fast.parallel_for(state, action)
        elif cls is A.Compute:
            self._fast.do_compute(state, action)
        elif cls is A.CallBurst:
            self._fast.do_burst(state, action)
        elif cls is A.Enter:
            self._do_enter(state, action.region)
        elif cls is A.Leave:
            self._do_leave(state, action.region)
        elif cls is A.Send:
            self._do_send(state, action, blocking=True)
        elif cls is A.Recv:
            self._do_recv(state, action)
        elif cls is A.Isend:
            self._do_send(state, action, blocking=False)
        elif cls is A.Irecv:
            self._do_irecv(state, action)
        elif cls is A.Wait:
            self._do_waitall(state, (action.request,), "MPI_Wait")
        elif cls is A.Waitall:
            self._do_waitall(state, action.requests, "MPI_Waitall")
        elif cls in A.COLLECTIVE_INFO:
            self._do_collective(state, action)
        else:
            raise TypeError(f"unknown action {action!r}")

    # -- call-path structure -------------------------------------------
    def _filtered(self, region: str) -> bool:
        return self.measurement is not None and self.measurement.filtered(region)

    def _region_info(self, region: str) -> Tuple[bool, Optional[int]]:
        """Per-run cache of (is_phase, rid-or-None) for Enter/Leave.

        ``rid`` is ``None`` when the region is filtered or there is no
        measurement; it is interned lazily so region ids follow the
        first-ENTER order.  The cache is per-engine (one run),
        so rebuilding filter rules *between* runs behaves as before;
        mutating them mid-run is not supported.
        """
        info = self._region_cache.get(region)
        if info is None:
            rid: Optional[int] = None
            if self.measurement is not None and not self._filtered(region):
                rid = self.regions.intern(region)
            info = (region in self.program.phases, rid)
            self._region_cache[region] = info
        return info

    def _do_enter(self, state: _RankState, region: str) -> None:
        state.stack.append(region)
        info = self._region_cache.get(region)
        if info is None:
            info = self._region_info(region)
        is_phase, rid = info
        if is_phase and region not in self._phase_enter:
            self._phase_enter[region] = state.t
        if rid is None:
            return
        # inlined emit_master (the delta flush runs even in ghost replay)
        d = state.pending_delta
        state.pending_delta = EMPTY_DELTA
        if self._live:
            self._n_events += 1
            self._sinks[self._loc_base[state.rank]]((ENTER, rid, state.t, d, None, 0.0))
        state.t += self.ev_cost

    def _do_leave(self, state: _RankState, region: Optional[str]) -> None:
        if not state.stack:
            raise RuntimeError(f"rank {state.rank}: Leave with empty region stack")
        top = state.stack.pop()
        if region is not None and region != top:
            raise RuntimeError(
                f"rank {state.rank}: Leave({region!r}) does not match Enter({top!r})"
            )
        info = self._region_cache.get(top)
        if info is None:
            info = self._region_info(top)
        is_phase, rid = info
        if is_phase:
            prev = self._phase_leave.get(top, -math.inf)
            self._phase_leave[top] = max(prev, state.t)
        if rid is None:
            return
        d = state.pending_delta
        state.pending_delta = EMPTY_DELTA
        if self._live:
            self._n_events += 1
            self._sinks[self._loc_base[state.rank]]((LEAVE, rid, state.t, d, None, 0.0))
        state.t += self.ev_cost

    # -- MPI point-to-point ------------------------------------------------
    def _channel(self, src: int, dst: int, tag: int) -> Dict[str, deque]:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            ch = {"sends": deque(), "recvs": deque()}
            self._channels[key] = ch
        return ch

    def _post_seq(self, dst: int) -> int:
        seq = self._recv_seq.get(dst, 0)
        self._recv_seq[dst] = seq + 1
        return seq

    def _pop_recv_for_send(self, src: int, dst: int, tag: int):
        """Earliest-posted parked receive a new send (src->dst, tag) matches.

        Compares the head of the named ``(src, dst, tag)`` receive queue
        with the head of the wildcard ``(dst, tag)`` queue by posting
        order, mirroring MPI's posted-receive-queue semantics.
        """
        ch = self._channels.get((src, dst, tag))
        named_q = ch["recvs"] if ch is not None else None
        any_q = self._any_recvs.get((dst, tag))
        named = named_q[0] if named_q else None
        wild = any_q[0] if any_q else None
        if named is None and wild is None:
            return None
        if wild is None or (named is not None
                            and named["post_seq"] < wild["post_seq"]):
            return named_q.popleft()
        return any_q.popleft()

    def _pop_send_for_any(self, dst: int, tag: int):
        """Queued send a new wildcard receive at ``dst`` matches, if any.

        Among the head sends of every ``(*, dst, tag)`` channel, picks the
        one *physically available* first (eager arrival / rendezvous post
        time, ties broken by source rank).  This is the deliberately
        noise-dependent choice that makes wildcard receives order-racy:
        a different noise realization can reorder arrivals and flip the
        match -- exactly what the determinism certificate flags.
        """
        best_key = None
        best_rank: Optional[Tuple[float, int]] = None
        for (src, d, tg), ch in self._channels.items():
            if d != dst or tg != tag or not ch["sends"]:
                continue
            head = ch["sends"][0]
            avail = head["arrival"] if head["eager"] else head["send_t"]
            cand = (avail, src)
            if best_rank is None or cand < best_rank:
                best_rank = cand
                best_key = (src, d, tg)
        if best_key is None:
            return None
        return self._channels[best_key]["sends"].popleft()

    def _mpi_enter(self, state: _RankState, region: str) -> int:
        """Emit the ENTER of an MPI call; returns the region id."""
        rid = self._mpi_rid.get(region)
        if rid is None:
            rid = self.regions.intern(region, Paradigm.MPI)
            self._mpi_rid[region] = rid
        if self.measurement is not None:
            d = state.pending_delta
            state.pending_delta = EMPTY_DELTA
            if self._live:
                self._n_events += 1
                self._sinks[self._loc_base[state.rank]]((ENTER, rid, state.t, d, None, 0.0))
            state.t += self.ev_cost
        return rid

    def _mpi_leave(self, state: _RankState, rid: int, t_end: float, t_begin: float) -> None:
        """Emit the LEAVE of an MPI call with spin-wait instructions."""
        state.t = t_end
        if self.measurement is not None:
            if self._live:
                # busy-polling MPI retires instructions while it waits
                dt = t_end - t_begin
                if dt < 0.0:
                    dt = 0.0
                instr = self._mpi_spin * dt + self._mpi_lib_instr
                self._n_events += 1
                self._sinks[self._loc_base[state.rank]](
                    (LEAVE, rid, t_end, WorkDelta(instr=instr), None, 0.0))
            state.t = t_end + self.ev_cost
        self._rank_time[state.rank] = state.t

    def _transfer_time(self, src: int, dst: int, nbytes: float, match_id: int) -> float:
        same_node = self.pinning.same_node(src, dst)
        t = self.network.transfer_time(nbytes, same_node)
        if self._faults is not None:
            t *= self._faults.link.factor(src, dst)
        if self.cost.noise is not None:
            t *= self.cost.noise.network.factor(("p2p", match_id))
        return t

    def compute_scale(self, rank: int, thread: int) -> float:
        """Compute-time multiplier from fault injection (straggler cores)."""
        if self._faults is None:
            return 1.0
        return self._faults.straggler.factor(rank, thread)

    def _do_send(self, state: _RankState, action, blocking: bool) -> None:
        region = "MPI_Send" if blocking else "MPI_Isend"
        rid = self._mpi_enter(state, region)
        t0 = state.t
        match_id = self._next_match
        self._next_match += 1
        nbytes = action.nbytes
        site_key = (state.rank, action)
        site = self._send_cache.get(site_key)
        if site is None:
            # (sums stay unfolded at use sites: re-associating the float
            # adds would move trace bits)
            site = (
                self.network.is_eager(nbytes),
                self.network.transfer_time(
                    nbytes, self.pinning.same_node(state.rank, action.dest)
                ),
                nbytes / self.config.eager_copy_bandwidth,
            )
            self._send_cache[site_key] = site
        eager, base_transfer, eager_copy_t = site
        if self.measurement is not None:
            # aux: (match id, rendezvous flag) -- the analyzer needs the
            # protocol to decide whether a late receiver is possible.
            self.emit_master(state, MPI_SEND, rid, state.t, EMPTY_DELTA,
                             (match_id, 0 if eager else 1))
            state.t += self.ev_cost
        ch = self._channel(state.rank, action.dest, action.tag)
        entry = {
            "eager": eager,
            "match_id": match_id,
            "send_t": t0,
            "nbytes": nbytes,
            "arrival": None,
            "sender": None,  # set only when a blocking rendezvous send parks
            "request": None,
            "src": state.rank,
            "dst": action.dest,
            "tag": action.tag,
            "rid": rid,
        }
        req = None
        if not blocking:
            req = state.new_request("send")
            req.match_id = match_id
            req.send_t = t0
            entry["request"] = req

        if eager:
            transfer = base_transfer
            if self._faults is not None:
                transfer *= self._faults.link.factor(state.rank, action.dest)
            if self.cost.noise is not None:
                transfer *= self.cost.noise.network.factor(("p2p", match_id))
            entry["arrival"] = t0 + transfer
            local_done = (
                state.t + self.config.mpi_call_overhead + self._mpi_sync_cost
                + eager_copy_t
            )
            if req is not None:
                req.complete_t = local_done
            recv_entry = self._pop_recv_for_send(state.rank, action.dest, action.tag)
            if recv_entry is not None:
                self._match(entry, recv_entry)
            else:
                ch["sends"].append(entry)
            self._mpi_leave(state, rid, local_done, t0)
            if not blocking:
                state.pending_result = req.rid
            return

        # Rendezvous.
        recv_entry = self._pop_recv_for_send(state.rank, action.dest, action.tag)
        if recv_entry is not None:
            done = self._match(entry, recv_entry)
            if blocking:
                self._mpi_leave(state, rid, done, t0)
            else:
                req.complete_t = done
                self._mpi_leave(state, rid, state.t + self.config.mpi_call_overhead + self._mpi_sync_cost, t0)
                state.pending_result = req.rid
            return

        ch["sends"].append(entry)
        if blocking:
            entry["sender"] = state
            entry["pending_leave"] = (rid, t0)
            self._c_blocks.inc()
            state.blocked = True
            state.block_site = (
                f"Send(dest={action.dest}, tag={action.tag}, "
                f"nbytes={nbytes:g}) [rendezvous, no matching recv]",
                tuple(state.stack),
            )
        else:
            self._mpi_leave(state, rid, state.t + self.config.mpi_call_overhead + self._mpi_sync_cost, t0)
            state.pending_result = req.rid

    def _do_recv(self, state: _RankState, action: A.Recv) -> None:
        wildcard = action.source == A.ANY_SOURCE
        rid = self._mpi_enter(state, "MPI_Recv_any" if wildcard else "MPI_Recv")
        t0 = state.t
        entry = {
            "recv_t": t0,
            "receiver": state,
            "request": None,
            "rid": rid,
            "blocking": True,
            "parked": False,
            "post_seq": self._post_seq(state.rank),
        }
        if wildcard:
            send_entry = self._pop_send_for_any(state.rank, action.tag)
        else:
            ch = self._channel(action.source, state.rank, action.tag)
            send_entry = ch["sends"].popleft() if ch["sends"] else None
        if send_entry is not None:
            self._match(send_entry, entry)
        else:
            entry["parked"] = True
            if wildcard:
                self._any_recvs.setdefault(
                    (state.rank, action.tag), deque()
                ).append(entry)
            else:
                ch["recvs"].append(entry)
            self._c_blocks.inc()
            state.blocked = True
            src = "ANY_SOURCE" if wildcard else str(action.source)
            state.block_site = (
                f"Recv(source={src}, tag={action.tag}) "
                "[no matching send]",
                tuple(state.stack),
            )

    def _do_irecv(self, state: _RankState, action: A.Irecv) -> None:
        wildcard = action.source == A.ANY_SOURCE
        rid = self._mpi_enter(state, "MPI_Irecv_any" if wildcard else "MPI_Irecv")
        t0 = state.t
        req = state.new_request("recv")
        if wildcard:
            req.any_rid = rid
        entry = {
            "recv_t": t0,
            "receiver": state,
            "request": req,
            "rid": rid,
            "blocking": False,
            "parked": False,
            "post_seq": self._post_seq(state.rank),
        }
        if wildcard:
            send_entry = self._pop_send_for_any(state.rank, action.tag)
        else:
            ch = self._channel(action.source, state.rank, action.tag)
            send_entry = ch["sends"].popleft() if ch["sends"] else None
        if send_entry is not None:
            self._match(send_entry, entry)
        else:
            entry["parked"] = True
            if wildcard:
                self._any_recvs.setdefault(
                    (state.rank, action.tag), deque()
                ).append(entry)
            else:
                ch["recvs"].append(entry)
        self._mpi_leave(state, rid, state.t + self.config.mpi_call_overhead + self._mpi_sync_cost, t0)
        state.pending_result = req.rid

    def _match(self, send_entry: dict, recv_entry: dict) -> float:
        """Resolve one matched (send, recv) pair; returns completion time."""
        self._c_matched.inc()
        self._h_msg_bytes.observe(send_entry["nbytes"])
        receiver: _RankState = recv_entry["receiver"]
        recv_req: Optional[_Request] = recv_entry["request"]
        r_t = recv_entry["recv_t"]
        fault_rid = -1
        fault_extra = 0.0
        if self._faults is not None:
            # Faults draw on the k-th matched message of the channel -- a
            # program-order coordinate, so the same physical message is
            # faulted under every noise realization and every ghost replay.
            chan = (send_entry["src"], send_entry["dst"], send_entry["tag"])
            k = self._chan_occurrence.get(chan, 0)
            self._chan_occurrence[chan] = k + 1
            if self._faults.loss.lost(*chan, k):
                fault_extra = self._faults.config.message_loss_timeout
                fault_rid = self._rid_fault_loss
            elif self._faults.duplication.duplicated(*chan, k):
                fault_extra = self._faults.config.message_duplication_overhead
                fault_rid = self._rid_fault_dup
        if send_entry["eager"]:
            done = max(r_t, send_entry["arrival"]) + self.config.mpi_call_overhead + fault_extra
        else:
            start = max(r_t, send_entry["send_t"])
            done = (
                start
                + self._transfer_time(
                    send_entry["src"], send_entry["dst"], send_entry["nbytes"], send_entry["match_id"]
                )
                + self.config.mpi_call_overhead
                + fault_extra
            )
            # Unblock a blocked rendezvous sender / complete its request.
            sender: Optional[_RankState] = send_entry["sender"]
            if sender is not None:
                rid_s, t0_s = send_entry["pending_leave"]
                self._mpi_leave(sender, rid_s, done, t0_s)
                self._resume(sender, sender.t)
            send_req: Optional[_Request] = send_entry["request"]
            if send_req is not None:
                send_req.complete_t = done
                self._check_waiter(send_req)

        if recv_entry["blocking"]:
            # Emit the receive record + LEAVE; resume the receiver only if
            # it was parked (it may be the currently executing rank).  A
            # blocking receive yields the matched source rank back to the
            # program (the ``status.MPI_SOURCE`` analog) -- the only way a
            # wildcard receive's outcome can steer control flow.
            if self.measurement is not None:
                if fault_rid >= 0:
                    self.emit_master(receiver, FAULT, fault_rid, done, EMPTY_DELTA,
                                     send_entry["match_id"])
                self.emit_master(receiver, MPI_RECV, recv_entry["rid"], done,
                                 EMPTY_DELTA, send_entry["match_id"])
            self._mpi_leave(receiver, recv_entry["rid"], done + self.ev_cost, r_t)
            if recv_entry["parked"]:
                self._resume(receiver, receiver.t, result=send_entry["src"])
            else:
                receiver.pending_result = send_entry["src"]
        else:
            recv_req.complete_t = done
            recv_req.match_id = send_entry["match_id"]
            recv_req.send_t = send_entry["send_t"]
            recv_req.fault_rid = fault_rid
            self._check_waiter(recv_req)
        return done

    # -- waits --------------------------------------------------------------
    def _do_waitall(self, state: _RankState, request_ids, region: str) -> None:
        rid = self._mpi_enter(state, region)
        state.wait_t0 = state.t
        state.wait_region = rid
        state.wait_requests = list(request_ids)
        self._try_finish_wait(state)

    def _try_finish_wait(self, state: _RankState) -> None:
        reqs = [state.requests[i] for i in state.wait_requests]
        if any(r.complete_t is None for r in reqs):
            pending = []
            for r in reqs:
                if r.complete_t is None:
                    r.waiter = state
                    pending.append(f"{r.kind} request #{r.rid}")
            self._c_blocks.inc()
            state.blocked = True
            state.block_site = (
                f"{self.regions.name(state.wait_region)} on "
                f"{len(pending)} incomplete request(s): {', '.join(pending)}",
                tuple(state.stack),
            )
            return
        t0 = state.wait_t0
        end = max([t0] + [r.complete_t for r in reqs]) + self.config.mpi_call_overhead
        if self.measurement is not None:
            # Receive-complete records are written in *request posting
            # order* (as MPI tools do), so the event sequence -- and with it
            # every logical trace -- is independent of message timing.
            t_rec = t0
            for r in reqs:
                if r.kind != "recv":
                    continue
                t_rec = max(t_rec, r.complete_t)
                if r.fault_rid >= 0:
                    self.emit_master(state, FAULT, r.fault_rid, t_rec, EMPTY_DELTA,
                                     r.match_id)
                rec_rid = r.any_rid if r.any_rid >= 0 else state.wait_region
                self.emit_master(state, MPI_RECV, rec_rid, t_rec, EMPTY_DELTA,
                                 r.match_id)
        for i in state.wait_requests:
            del state.requests[i]
        was_blocked = state.blocked
        rid = state.wait_region
        state.wait_requests = []
        self._mpi_leave(state, rid, end, t0)
        if was_blocked:
            self._resume(state, state.t)

    def _check_waiter(self, req: _Request) -> None:
        waiter = req.waiter
        if waiter is None:
            return
        req.waiter = None
        if waiter.blocked and all(
            waiter.requests[i].complete_t is not None for i in waiter.wait_requests
        ):
            self._try_finish_wait(waiter)

    # -- collectives ----------------------------------------------------------
    def _do_collective(self, state: _RankState, action) -> None:
        op, region = A.COLLECTIVE_INFO[type(action)]
        rid = self._mpi_enter(state, region)
        seq = self._coll_seq[state.rank]
        self._coll_seq[state.rank] = seq + 1
        inst = self._coll.get(seq)
        if inst is None:
            inst = {"op": op, "enters": {}, "action": action, "rid": {}}
            self._coll[seq] = inst
        if inst["op"] != op:
            raise RuntimeError(
                f"collective mismatch at sequence {seq}: rank {state.rank} called {op}, "
                f"others called {inst['op']}"
            )
        inst["enters"][state.rank] = state.t
        inst["rid"][state.rank] = rid
        self._c_blocks.inc()
        state.blocked = True
        missing = self.pinning.n_ranks - len(inst["enters"])
        # deferred-format site: rendered only by the deadlock reporter
        state.block_site = (region, seq, missing, tuple(state.stack))
        if len(inst["enters"]) == self.pinning.n_ranks:
            self._complete_collective(seq, inst)

    def _coll_nbytes(self, action) -> float:
        if type(action) is A.Checkpoint:
            return 0.0  # barrier cost only; the checkpoint write is priced separately
        for attr in ("nbytes", "nbytes_per_pair", "nbytes_per_rank"):
            if hasattr(action, attr):
                return getattr(action, attr)
        return 0.0

    def _complete_collective(self, seq: int, inst: dict) -> None:
        self._c_coll.inc()
        ranks = self.pinning.ranks
        action = inst["action"]
        cached = self._coll_cost_cache.get(action)
        if cached is None:
            rep = max(1.0, float(getattr(action, "represents", 1.0)))
            base = self.collectives.cost(
                inst["op"], self.pinning, ranks, self._coll_nbytes(action)
            ) * rep
            if type(action) is A.Checkpoint:
                base += (action.nbytes / self.config.checkpoint_write_bandwidth) * rep
            cached = (rep, base)
            self._coll_cost_cache[action] = cached
        rep, cost = cached
        if self.cost.noise is not None:
            cost *= self.cost.noise.network.factor(("coll", seq))
        completion = max(inst["enters"].values()) + cost
        coll_id = self._next_coll
        self._next_coll += 1
        n = len(ranks)
        extra_bc = (rep - 1.0) / 2.0  # lt_1: each event stands for rep calls
        instrumented = self.measurement is not None
        t_exit = completion + (self.config.mpi_call_overhead + self._mpi_sync_cost) * rep
        if instrumented:
            spin = self._mpi_spin
            lib_instr = self._mpi_lib_instr * rep
            aux = (coll_id, n)
            evc_rep = self.ev_cost * rep
            rids = inst["rid"]
            enters = inst["enters"]
            resume = self._resume
            states = self._ranks
            for r in ranks:
                st = states[r]
                rid = rids[r]
                instr = spin * max(0.0, completion - enters[r]) + lib_instr
                self.emit_master(st, COLL_END, rid, completion,
                                 WorkDelta(instr=instr, burst_calls=extra_bc), aux)
                st.t = t_exit
                self.emit_master(st, LEAVE, rid, t_exit, WorkDelta(burst_calls=extra_bc))
                st.t += evc_rep
                resume(st, st.t)
        else:
            for r in ranks:
                st = self._ranks[r]
                st.t = t_exit
                self._resume(st, st.t)
        del self._coll[seq]
        if type(action) is A.Checkpoint:
            self._ckpt_count += 1
            if self._live:
                self._c_ckpts.inc()
                t_after = max(self._ranks[r].t for r in ranks)
                mark = self.measurement.mark() if self.measurement is not None else None
                self.checkpoint_marks[self._ckpt_count] = (t_after, mark)
            self._apply_restarts(self._ckpt_count)

    def _apply_restarts(self, epoch: int) -> None:
        """Apply the restart plan's jump for ``epoch``, if it has one.

        Each jump moves every rank to the recorded resume time and clears
        in-flight work deltas, replicating what the previous attempt did
        at its own go-live.  After the plan's *last* jump the engine goes
        live: emission resumes and one ``RESTART`` event per rank marks
        the discontinuity in the trace.
        """
        plan = self._restart
        if plan is None or self._restart_idx >= len(plan.restarts):
            return
        next_epoch, t_resume = plan.restarts[self._restart_idx]
        if epoch != next_epoch:
            return
        self._restart_idx += 1
        # Ranks resume one event-write past the RESTART marker: strictly
        # later than t_resume, so in merged order the whole restart group
        # completes before any post-restart event (keeps logical clocks
        # monotone across the discontinuity).
        for st in self._ranks.values():
            if st.done:
                continue
            st.pending_delta = EMPTY_DELTA
            self._resume(st, t_resume + self.ev_cost)
        if self._restart_idx >= len(plan.restarts):
            self._live = True
            self._c_restarts.inc()
            if self.measurement is not None:
                aux = (plan.restart_id, self.pinning.n_ranks)
                for r in self.pinning.ranks:
                    self.emit(self.loc_id(r, 0), RESTART, self._rid_restart,
                              t_resume, EMPTY_DELTA, aux)

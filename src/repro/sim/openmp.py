"""Execution of OpenMP parallel worksharing constructs.

A :class:`~repro.sim.actions.ParallelFor` is executed analytically within
the owning rank: the master forks a team, every thread runs its chunk
under per-thread noise and contention, all threads meet at the implicit
barrier, and the master joins.  The event pattern per construct matches
what Opari2 instrumentation produces (the paper's Sec. II-B lists support
for "barriers, loops, fork/join and critical regions"):

master (thread 0):
    ENTER omp_parallel_R . FORK . [chunk like a worker] . JOIN . LEAVE
worker thread i:
    TEAM_BEGIN . ENTER omp_for_R . LEAVE omp_for_R . OBAR_ENTER . OBAR_LEAVE

Logical-clock synchronisation points: FORK -> TEAM_BEGIN (workers adopt
master+1), OBAR_LEAVE (team-wide max+1), JOIN (master adopts barrier
value).  The per-construct ``omp_calls`` work-delta entries feed the
paper's X basic-block / Y statement external-effort constants for
lt_bb / lt_stmt.

Construct compression: with ``represents = N`` the single emitted event
pattern stands for N identical back-to-back constructs; every
per-construct cost (runtime, instrumentation, runtime work counts, lt_1
event counts) scales by N.  Jitter-driven barrier waits are compression-
invariant because both the aggregate chunk and the summed per-iteration
waits scale linearly in sigma x total work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.actions import ParallelFor
from repro.sim.events import (
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, _RankState

__all__ = ["execute_parallel_for"]

#: trace events emitted per worker thread per construct (for overhead math)
_WORKER_EVENTS = 5


def execute_parallel_for(engine: "Engine", rank: "_RankState", pf: ParallelFor) -> None:
    """Run one (possibly compressed) parallel-for; advances ``rank.t``."""
    omp = engine.omp_cost
    n_threads = rank.n_threads
    omp_id = engine.next_omp_id()
    rep = max(1.0, float(pf.represents))
    instrumented = engine.measurement is not None

    if instrumented:
        r_parallel = engine.regions.intern(f"omp_parallel_{pf.region}", Paradigm.OMP)
        r_for = engine.regions.intern(f"omp_for_{pf.region}", Paradigm.OMP)
        r_bar = engine.regions.intern(f"omp_ibarrier_{pf.region}", Paradigm.OMP)
        r_writes = tuple(
            engine.regions.intern(f"omp_shared_write_{var}", Paradigm.OMP)
            for var in pf.shared_writes
        )
    else:
        r_parallel = r_for = r_bar = -1
        r_writes = ()

    # Per-construct measurement cost, scaled by compression.
    ev_cost = engine.ev_cost
    # lt_1 equivalence: each emitted event stands for `rep` recorded events.
    extra_bc = (rep - 1.0) / 2.0
    runtime_delta = WorkDelta(
        omp_calls=rep, instr=omp.runtime_instr_per_call * rep, burst_calls=extra_bc
    )

    if instrumented:
        engine.emit_master(rank, ENTER, r_parallel, rank.t, rank.flush_delta())
        rank.t += ev_cost
        engine.emit_master(rank, FORK, r_parallel, rank.t, runtime_delta, omp_id)
        rank.t += ev_cost * rep

    fork_done = rank.t + omp.fork_cost(n_threads) * rep
    units = pf.thread_units(n_threads)

    starts = np.empty(n_threads)
    finishes = np.empty(n_threads)
    for i in range(n_threads):
        starts[i] = fork_done + omp.stagger(i)
        chunk_counts = pf.kernel.scaled_counts(float(units[i]))
        count_cost = engine.count_cost(chunk_counts)
        ctx = engine.compute_context(rank.rank, i, pf.kernel, team_threads=n_threads)
        dur = engine.cost.kernel_time(pf.kernel, float(units[i]), ctx, extra_flop_time=count_cost)
        dur *= engine.compute_scale(rank.rank, i)
        n_events = _WORKER_EVENTS if i > 0 else _WORKER_EVENTS - 1  # master: no TEAM_BEGIN
        n_events += 2 * len(r_writes)  # zero-width shared-write region pairs
        finishes[i] = starts[i] + dur + n_events * ev_cost * rep

    bar_arrive = finishes
    # Instrumented team synchronisation serialises per-thread event writes,
    # lengthening the barrier proportionally to team size (the dominant
    # overhead mechanism in the paper's TeaLeaf experiments, Table II).
    bar_done = (
        float(bar_arrive.max())
        + (omp.barrier_cost(n_threads) + engine.omp_team_sync * min(n_threads, 80)) * rep
    )

    if instrumented:
        for i in range(n_threads):
            loc = engine.loc_id(rank.rank, i)
            chunk_delta = pf.kernel.scaled_counts(float(units[i]))
            if i == 0:
                engine.emit(loc, ENTER, r_for, float(starts[i]), runtime_delta)
            else:
                engine.emit(loc, TEAM_BEGIN, r_parallel, float(starts[i]),
                            WorkDelta(burst_calls=extra_bc), omp_id)
                engine.emit(loc, ENTER, r_for, float(starts[i]), runtime_delta)
            # Unsynchronised shared writes (declared on the action) appear
            # as region pairs spanning each thread's chunk: concurrent
            # across the team by construction, which is precisely what the
            # happened-before race detector proves.
            for r_w in r_writes:
                engine.emit(loc, ENTER, r_w, float(starts[i]), EMPTY_DELTA)
            for r_w in reversed(r_writes):
                engine.emit(loc, LEAVE, r_w, float(bar_arrive[i]), EMPTY_DELTA)
            engine.emit(loc, LEAVE, r_for, float(bar_arrive[i]), chunk_delta)
            engine.emit(loc, OBAR_ENTER, r_bar, float(bar_arrive[i]),
                        WorkDelta(burst_calls=extra_bc))
            wait = bar_done - float(bar_arrive[i])
            bar_delta = WorkDelta(
                omp_calls=rep,
                instr=omp.runtime_instr_per_call * rep + engine.cost.omp_wait_instructions(wait),
                burst_calls=extra_bc,
            )
            engine.emit(loc, OBAR_LEAVE, r_bar, bar_done, bar_delta, (omp_id, n_threads))

    join_done = bar_done + omp.join_cost(n_threads) * rep
    if instrumented:
        engine.emit_master(rank, JOIN, r_parallel, join_done, runtime_delta, omp_id)
        engine.emit_master(rank, LEAVE, r_parallel, join_done + ev_cost, EMPTY_DELTA)
    rank.t = join_done + 2 * ev_cost

"""Property-based tests: engine and clock invariants on random programs.

Hypothesis generates random SPMD programs (compute blocks, parallel
loops, matched ring communication, collectives) and checks the global
invariants that every component of the pipeline relies on:

* the simulation terminates without deadlock and time never runs backwards,
* every clock's timestamps are strictly increasing per location,
* logical timestamps are invariant under the noise seed, and so are
  logical profiles, byte for byte, raw and normalized -- on plain
  programs and on recovered fault runs,
* the analyzer's time tree exactly partitions the measured execution,
* severities are non-negative and the Jaccard score stays in [0, 1],
* the column-born trace's events equal, bit for bit, the ``Ev`` objects
  the per-event engine oracle hands the list-of-Ev measurement oracle,
* with wildcard receives, checkpoints and seeded faults added, a run
  through crash recovery records the same events and restarts as the
  per-event engine oracle,
* the compiled wait-state analysis holds the per-event walker oracle's
  call paths and values, bit for bit, raw and normalized, in the one
  profile order, and the plain profile the per-location plain walker's,
* the Lamport replay plan gives the per-event walk's timestamps and final
  counters through ``timestamp_trace``, ``stream_clock_replay`` (on the
  trace and on a multi-shard archive) and ``build_dag``, whose DAG equals
  the per-event DAG walker's node for node -- on plain programs and on
  recovered fault runs with restart groups, wildcards and checkpoints,
* JSON-lines, npz and multi-shard ``.shards`` archives read a trace
  back bit for bit and column-backed, and re-encode to its JSON-lines
  bytes -- on plain programs and on recovered fault runs,
* every serve analysis job answers the same bytes on a trace the job
  process decoded before (its plans compiled by other jobs) as on a
  fresh decode,
* the sanitizer and the race detector report what their per-event
  walkers report, list for list and witnesses included, on generated
  and recovered runs with OpenMP shared writes; the sanitizer also on
  traces with one event dropped, duplicated, swapped, moved back in time
  or re-labelled (and there the replay and the race detector too), and
  ``check_timestamps`` on one forged timestamp.

A last property pins the NumPy merged order to the heap merge it
replaced, kept here as the test oracle.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import TIME_LEAVES, analyze_trace, plain_profile
from repro.causal import build_dag
from repro.clocks import timestamp_trace
from repro.clocks.streaming import stream_clock_replay
from repro.cube.io import profile_doc
from repro.experiments.faultsweep import default_fault_config
from repro.machine import small_test_cluster
from repro.machine.faults import FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import (
    MODES,
    Measurement,
    read_trace,
    trace_archive_bytes,
    write_trace,
)
from repro.measure.config import NOISY_MODES
from repro.measure.shards import open_sharded_trace, write_sharded_trace
from repro.scoring import jaccard_metric_callpath
from repro.sim.events import (
    COLL_END,
    FAULT,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
)
from repro.verify import check_timestamps, find_races, sanitize_raw
from repro.sim import (
    ANY_SOURCE,
    Allreduce,
    Barrier,
    CallBurst,
    Checkpoint,
    Compute,
    CostModel,
    Engine,
    Enter,
    Irecv,
    Isend,
    KernelSpec,
    Leave,
    ParallelFor,
    Program,
    Recv,
    Send,
    Waitall,
    recovery,
    run_with_recovery,
)
from tests.oracles import (
    EvListMeasurement,
    HeapEngine,
    assert_same_profile,
    dag_nodes,
    event_bits,
    lamport_replay,
    walker_analyze_trace,
    walker_build_dag,
    walker_check_timestamps,
    walker_find_races,
    walker_plain_profile,
    walker_sanitize_raw,
)

K = KernelSpec("k", flops_per_unit=1e5, bytes_per_unit=1e4, omp_iters_per_unit=1.0,
               bb_per_unit=4.0, stmt_per_unit=12.0, instr_per_unit=30.0)

# One program "step" is drawn from this vocabulary; communication steps
# are constructed to be globally matched (every rank executes them).
_STEPS = ["compute", "burst", "pfor", "ring", "allreduce", "barrier"]
step_strategy = st.sampled_from(_STEPS)
program_strategy = st.lists(step_strategy, min_size=1, max_size=8)
# A wildcard receive's match order depends on noise, so programs with one
# stay out of the noise-invariance properties; checkpoints give crash
# recovery its restart points.
fault_program_strategy = st.lists(
    st.sampled_from(_STEPS + ["wildcard", "checkpoint"]), min_size=1, max_size=8)
checkpoint_program_strategy = st.lists(
    st.sampled_from(_STEPS + ["checkpoint"]), min_size=1, max_size=8)
# Shared writes let the race detector find RACE002; the verify
# properties draw them on top of both vocabularies.
race_program_strategy = st.lists(
    st.sampled_from(_STEPS + ["shared_write"]), min_size=1, max_size=8)
race_fault_program_strategy = st.lists(
    st.sampled_from(_STEPS + ["wildcard", "checkpoint", "shared_write"]),
    min_size=1, max_size=8)


class RandomProgram(Program):
    name = "random"
    n_ranks = 3
    threads_per_rank = 2

    def __init__(self, steps):
        self.steps = list(steps)

    def make_rank(self, ctx):
        yield Enter("main")
        for i, step in enumerate(self.steps):
            region = f"step{i}_{step}"
            yield Enter(region)
            if step == "compute":
                yield Compute(K, 10 + 5 * ctx.rank)
            elif step == "burst":
                yield CallBurst("tiny()", calls=50, kernel=K, units=5)
            elif step == "pfor":
                yield ParallelFor("loop", K, total_units=40 + 10 * ctx.rank)
            elif step == "ring":
                right = (ctx.rank + 1) % ctx.n_ranks
                left = (ctx.rank - 1) % ctx.n_ranks
                r1 = yield Irecv(source=left, tag=i)
                r2 = yield Isend(dest=right, tag=i, nbytes=256)
                yield Waitall([r1, r2])
            elif step == "allreduce":
                yield Allreduce()
            elif step == "barrier":
                yield Barrier()
            elif step == "wildcard":
                if ctx.rank == 0:
                    for _ in range(ctx.n_ranks - 1):
                        yield Recv(source=ANY_SOURCE, tag=i)
                else:
                    yield Send(dest=0, tag=i, nbytes=256)
            elif step == "checkpoint":
                yield Checkpoint(nbytes=1e5)
            elif step == "shared_write":
                yield ParallelFor("shared", K, total_units=20 + 10 * ctx.rank,
                                  shared_writes=("x",))
            yield Leave(region)
        yield Leave("main")


def _cluster():
    return small_test_cluster(cores_per_numa=4, numa_per_socket=2)


def _run(steps, seed, mode="tsc", measurement=None, engine=Engine):
    cluster = _cluster()
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return engine(RandomProgram(steps), cluster, cost,
                  measurement=measurement or Measurement(mode)).run()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100))
def test_no_deadlock_and_monotone_trace(steps, seed):
    res = _run(steps, seed)
    assert res.runtime >= 0
    res.trace.validate()  # per-location physical monotonicity


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy)
def test_all_clocks_strictly_increasing(steps):
    res = _run(steps, seed=3)
    for mode in ("tsc", "lt1", "ltloop", "ltbb", "ltstmt", "lthwctr"):
        tt = timestamp_trace(res.trace, mode, counter_seed=1)
        for arr in tt.times:
            if len(arr) > 1:
                assert np.all(np.diff(arr) >= 0), mode


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=50),
       st.integers(min_value=51, max_value=100))
def test_logical_noise_invariance(steps, seed_a, seed_b):
    ta = timestamp_trace(_run(steps, seed_a).trace, "ltbb").times
    tb = timestamp_trace(_run(steps, seed_b).trace, "ltbb").times
    for a, b in zip(ta, tb):
        assert np.array_equal(a, b)


def _profile_docs(trace, mode):
    """The ``profile_doc`` JSON of ``trace``'s profile, raw and normalized."""
    profile = analyze_trace(timestamp_trace(trace, mode))
    return [json.dumps(profile_doc(p)) for p in (profile, profile.normalized())]


_NOISE_FREE_MODES = [m for m in MODES if m not in NOISY_MODES]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=50),
       st.integers(min_value=51, max_value=100), st.sampled_from(_NOISE_FREE_MODES))
def test_logical_profiles_noise_invariant(steps, seed_a, seed_b, mode):
    assert (_profile_docs(_run(steps, seed_a, mode).trace, mode)
            == _profile_docs(_run(steps, seed_b, mode).trace, mode))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy)
def test_time_tree_partitions_total(steps):
    res = _run(steps, seed=5)
    for mode in ("tsc", "ltstmt"):
        prof = analyze_trace(timestamp_trace(res.trace, mode))
        total = prof.total_time()
        leaves = sum(prof.metric_total(m) for m in TIME_LEAVES)
        assert leaves == pytest.approx(total, rel=1e-9)
        for metric in prof.metrics:
            for v in prof.cells(metric).values():
                assert v >= -1e-9, metric


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy)
def test_jaccard_bounds_on_real_profiles(steps):
    res = _run(steps, seed=7)
    a = analyze_trace(timestamp_trace(res.trace, "tsc"))
    b = analyze_trace(timestamp_trace(res.trace, "lt1"))
    j = jaccard_metric_callpath(a, b)
    assert 0.0 <= j <= 1.0
    assert jaccard_metric_callpath(a, a) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100), st.sampled_from(MODES))
def test_column_born_trace_matches_ev_list_oracle(steps, seed, mode):
    born = _run(steps, seed, mode).trace
    oracle = _run(steps, seed, measurement=EvListMeasurement(mode),
                  engine=HeapEngine).trace
    assert event_bits(born) == event_bits(oracle)


#: the fault sweep's injectors, with crash points drawn within the first
#: 24 actions of a rank so that they land inside short generated programs
_FAULTS = dataclasses.replace(default_fault_config(), crash_max_progress=24)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(MODES))
def test_recovered_run_matches_heap_engine_oracle(steps, seed, fault_seed, mode):
    def recovered():
        cluster = _cluster()
        return run_with_recovery(
            RandomProgram(steps), cluster,
            lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
            FaultModel(_FAULTS, seed=fault_seed), measurement=Measurement(mode))

    born = recovered()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "Engine", HeapEngine)
        oracle = recovered()
    assert born.n_restarts == oracle.n_restarts
    assert event_bits(born.result.trace) == event_bits(oracle.result.trace)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(checkpoint_program_strategy, st.integers(min_value=0, max_value=50),
       st.integers(min_value=51, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(_NOISE_FREE_MODES))
def test_recovered_logical_profiles_noise_invariant(steps, seed_a, seed_b,
                                                    fault_seed, mode):
    def docs(seed):
        cluster = _cluster()
        trace = run_with_recovery(
            RandomProgram(steps), cluster,
            lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
            FaultModel(_FAULTS, seed=fault_seed),
            measurement=Measurement(mode)).result.trace
        return _profile_docs(trace, mode)

    assert docs(seed_a) == docs(seed_b)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100), st.sampled_from(MODES))
def test_analysis_plan_matches_walker_oracle(steps, seed, mode):
    tt = timestamp_trace(_run(steps, seed, mode).trace, mode, counter_seed=seed)
    assert_same_profile(analyze_trace(tt), walker_analyze_trace(tt))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100), st.sampled_from(MODES))
def test_plain_profile_matches_walker_oracle(steps, seed, mode):
    tt = timestamp_trace(_run(steps, seed).trace, mode, counter_seed=seed)
    got = plain_profile(tt)
    # the walker takes the events, so it runs last
    assert_same_profile(got, walker_plain_profile(tt))


# ---------------------------------------------------------------------------
# the Lamport replay plan
# ---------------------------------------------------------------------------

def _bits(values):
    return [float(v).hex() for v in values]


def _assert_plan_matches_per_event_walk(trace, mode, counter_seed):
    """Every consumer of the replay plan against the per-event walk."""
    kw = {"counter_seed": counter_seed}
    dag = build_dag(trace, mode, **kw)
    times = timestamp_trace(trace, mode, **kw).times
    finals = [stream_clock_replay(trace, mode, **kw).final]
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "t.shards"
        write_sharded_trace(trace, archive, shard_events=64)
        sharded = open_sharded_trace(archive)
        assert sharded.n_shards == max(1, -(-trace.n_events // 64))
        finals.append(stream_clock_replay(sharded, mode, **kw).final)
    # the oracles walk the trace's events, so they run last
    want_times, want_final = lamport_replay(trace, mode, **kw)
    assert [t.tobytes() for t in times] == [t.tobytes() for t in want_times]
    for final in finals + [dag.final]:
        assert _bits(final) == _bits(want_final)
    assert dag_nodes(dag) == dag_nodes(walker_build_dag(trace, mode, **kw))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100), st.sampled_from(MODES))
def test_replay_plan_matches_per_event_walk(steps, seed, mode):
    _assert_plan_matches_per_event_walk(_run(steps, seed).trace, mode, seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(MODES))
def test_replay_plan_matches_per_event_walk_after_recovery(steps, seed,
                                                           fault_seed, mode):
    cluster = _cluster()
    trace = run_with_recovery(
        RandomProgram(steps), cluster,
        lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
        FaultModel(_FAULTS, seed=fault_seed),
        measurement=Measurement("tsc")).result.trace
    _assert_plan_matches_per_event_walk(trace, mode, seed)


# ---------------------------------------------------------------------------
# archive round-trips
# ---------------------------------------------------------------------------

def _assert_archives_round_trip(trace):
    """JSON-lines, npz and a multi-shard ``.shards`` archive each read
    ``trace`` back exactly, as columns, and re-encode to its bytes."""
    want = trace_archive_bytes(trace)
    backs = []
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in (".trace.json.gz", ".npz", ".shards"):
            path = Path(tmp) / f"t{suffix}"
            if suffix == ".shards":
                write_sharded_trace(trace, path,
                                    shard_events=max(1, trace.n_events // 3))
                assert open_sharded_trace(path).n_shards >= 3
            else:
                write_trace(trace, path)
            back = read_trace(path)
            assert back.column_backed
            assert trace_archive_bytes(back) == want
            backs.append(back)
    assert trace.column_backed
    bits = event_bits(trace)
    for back in backs:
        assert event_bits(back) == bits


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100),
       st.sampled_from(MODES))
def test_archives_round_trip(steps, seed, mode):
    _assert_archives_round_trip(_run(steps, seed, mode).trace)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(MODES))
def test_archives_round_trip_after_recovery(steps, seed, fault_seed, mode):
    cluster = _cluster()
    trace = run_with_recovery(
        RandomProgram(steps), cluster,
        lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
        FaultModel(_FAULTS, seed=fault_seed),
        measurement=Measurement(mode)).result.trace
    _assert_archives_round_trip(trace)


# ---------------------------------------------------------------------------
# the serve jobs' trace cache
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100),
       st.sampled_from(MODES), st.sampled_from([".trace.json.gz", ".npz"]))
def test_serve_ops_same_bytes_warm_and_cold(steps, seed, mode, suffix):
    from repro.serve import jobs as J

    jobs = [("replay", {"mode": m, "counter_seed": seed}) for m in MODES]
    jobs += [("blame", {}), ("score", {}),
             ("whatif", {"mode": "ltbb", "scale": {f"step0_{steps[0]}": 1.5}})]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"t{suffix}")
        write_trace(_run(steps, seed, mode).trace, path)

        def run(op, params):
            return J.execute_analysis_job(op, path, params,
                                          path if op == "score" else None)

        try:
            cold = []
            for job in jobs:
                J._TRACES.clear()
                cold.append(run(*job))
            J._TRACES.clear()
            assert [run(*job) for job in jobs + jobs] == cold + cold
        finally:
            J._TRACES.clear()


# ---------------------------------------------------------------------------
# the sanitizer and the race detector
# ---------------------------------------------------------------------------

def _findings(diagnostics):
    return [(d.rule_id, d.severity, d.message, d.location, d.mode)
            for d in diagnostics]


def _races(report):
    return ([(d.rule_id, d.message, d.rank, d.location, d.witness)
             for d in report.diagnostics],
            report.wildcard_sites, report.suppressed,
            report.n_events, report.n_locations)


def _assert_verify_matches_walkers(trace):
    """sanitize_raw and find_races against their per-event walkers."""
    got_cut, want_cut = {}, {}
    got = sanitize_raw(trace, got_cut)
    races = find_races(trace)
    assert trace.column_backed
    # the walkers take the trace's events, so they run last
    assert _findings(got) == _findings(walker_sanitize_raw(trace, want_cut))
    assert got_cut == want_cut
    assert _races(races) == _races(walker_find_races(trace))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(race_program_strategy, st.integers(min_value=0, max_value=100),
       st.sampled_from(MODES))
def test_sanitizer_and_races_match_walkers(steps, seed, mode):
    _assert_verify_matches_walkers(_run(steps, seed, mode).trace)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(race_fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000), st.sampled_from(MODES))
def test_sanitizer_and_races_match_walkers_after_recovery(steps, seed,
                                                          fault_seed, mode):
    cluster = _cluster()
    trace = run_with_recovery(
        RandomProgram(steps), cluster,
        lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
        FaultModel(_FAULTS, seed=fault_seed),
        measurement=Measurement(mode)).result.trace
    _assert_verify_matches_walkers(trace)


#: one structural mutation per example
_MUTATIONS = ("drop", "duplicate", "swap", "backwards", "match_id",
              "group_id", "size")
_MATCHED = (MPI_SEND, MPI_RECV, FAULT)
_GROUPED = (COLL_END, OBAR_LEAVE, RESTART)


def _mutate(trace, mutation, data) -> None:
    """Apply one ``mutation`` to the events of ``trace`` (drawn from
    ``data``); a no-op when the trace has nothing it applies to."""
    events = trace.events
    at = [(loc, i) for loc, evs in enumerate(events) for i in range(len(evs))]
    if mutation in ("match_id", "group_id", "size"):
        kinds = _MATCHED if mutation == "match_id" else _GROUPED
    else:  # any event, or half the time a synchronisation event
        kinds = _MATCHED + _GROUPED if data.draw(st.booleans()) else None
    if kinds is not None:
        at = [(loc, i) for loc, i in at if events[loc][i].etype in kinds]
    if not at:
        return
    loc, i = data.draw(st.sampled_from(at))
    evs = events[loc]
    ev = evs[i]
    if mutation == "drop":
        del evs[i]
    elif mutation == "duplicate":
        evs.insert(i, ev)
    elif mutation == "swap":
        j = data.draw(st.integers(min_value=0, max_value=len(evs) - 1))
        evs[i], evs[j] = evs[j], evs[i]
    elif mutation == "backwards":
        ev.t = data.draw(st.sampled_from(
            [0.0, ev.t / 2, ev.t - 1e-9, evs[max(i - 1, 0)].t - 1e-12]))
    elif mutation == "match_id":
        ids = sorted({e.aux[0] if e.etype == MPI_SEND else e.aux
                      for evs2 in events for e in evs2
                      if e.etype in _MATCHED})
        new = data.draw(st.sampled_from(ids + [max(ids) + 1]))
        ev.aux = (new, ev.aux[1]) if ev.etype == MPI_SEND else new
    else:
        gid, size = ev.aux
        if mutation == "group_id":
            ids = sorted({e.aux[0] for evs2 in events for e in evs2
                          if e.etype == ev.etype})
            gid = data.draw(st.sampled_from(ids + [max(ids) + 1]))
        else:
            size = data.draw(st.sampled_from([0, size - 1, size + 1]))
        ev.aux = (gid, size)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_program_strategy, st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=1000),
       st.sampled_from(_MUTATIONS), st.data())
def test_sanitizer_matches_walker_on_mutated_traces(steps, seed, fault_seed,
                                                    mutation, data):
    cluster = _cluster()
    trace = run_with_recovery(
        RandomProgram(steps), cluster,
        lambda: CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed)),
        FaultModel(_FAULTS, seed=fault_seed),
        measurement=Measurement("tsc")).result.trace
    _mutate(trace, mutation, data)
    got_cut, want_cut = {}, {}
    got = sanitize_raw(trace, got_cut)  # converts the edited events
    assert _findings(got) == _findings(walker_sanitize_raw(trace, want_cut))
    assert got_cut == want_cut
    # the replay and the race detector follow their walkers, conflicting
    # size claims included: all close a group when it reaches the claim
    assert _replayed(lambda: timestamp_trace(trace, "lt1").times) \
        == _replayed(lambda: lamport_replay(trace, "lt1")[0])
    assert _races(find_races(trace)) == _races(walker_find_races(trace))


def _replayed(replay):
    """Timestamps as bytes, or the error a replay raised."""
    try:
        return [t.tobytes() for t in replay()]
    except (AssertionError, KeyError) as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.integers(min_value=0, max_value=100),
       st.sampled_from(MODES), st.booleans(), st.data())
def test_check_timestamps_matches_walker_on_a_forged_timestamp(
        steps, seed, mode, sync_only, data):
    trace = _run(steps, seed).trace
    tt = timestamp_trace(trace, mode, counter_seed=seed)
    sync = trace.columns().sync_plan()
    at = (list(zip(sync.loc.tolist(), sync.idx.tolist()))
          if sync_only and len(sync)
          else [(loc, i) for loc, t in enumerate(tt.times)
                for i in range(len(t))])
    loc, i = data.draw(st.sampled_from(at))
    forged = tt.times[loc].astype(float)
    t = forged[i]
    forged[i] = data.draw(st.sampled_from([0.0, t - 1.0, t + 1.0, t / 2,
                                           t + 1e6]))
    tt.times[loc] = forged
    got_cut, want_cut = {}, {}
    got = check_timestamps(tt, got_cut)
    assert _findings(got) == _findings(walker_check_timestamps(tt, want_cut))
    assert got_cut == want_cut


# ---------------------------------------------------------------------------
# the global merged order
# ---------------------------------------------------------------------------


def heap_merged(t_by_location):
    """Test oracle: the k-way heap merge the merged order is defined by.

    One head per location, keyed ``(t, loc)``; popping a head pushes the
    location's next event.  Yields ``(loc, index)`` pairs.
    """
    import heapq

    heads = [(ts[0], loc, 0) for loc, ts in enumerate(t_by_location) if ts]
    heapq.heapify(heads)
    while heads:
        _t, loc, i = heapq.heappop(heads)
        yield loc, i
        if i + 1 < len(t_by_location[loc]):
            heapq.heappush(heads, (t_by_location[loc][i + 1], loc, i + 1))


# few distinct values: ties across locations, equal timestamps within a
# location and backward steps are all common; min_size=0 gives empty
# locations
location_times = st.lists(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), max_size=12),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(location_times)
def test_merged_order_equals_heap_merge(t_by_location):
    from repro.measure import RawTrace
    from repro.measure.trace import merged_order
    from repro.sim.events import ENTER, Ev, RegionRegistry

    expected = list(heap_merged(t_by_location))
    perm, loc = merged_order(t_by_location)
    starts = np.cumsum([0] + [len(ts) for ts in t_by_location])
    assert list(zip(loc.tolist(), (perm - starts[loc]).tolist())) == expected

    events = [[Ev(ENTER, 0, t) for t in ts] for ts in t_by_location]
    trace = RawTrace("tsc", RegionRegistry(),
                     [(r, 0) for r in range(len(events))], events)
    assert [(l, ev) for l, ev in trace.merged()] \
        == [(l, events[l][i]) for l, i in expected]

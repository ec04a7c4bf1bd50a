"""Columnar traces and the vectorized clock replay.

Locks the central equivalence claims: the structure-of-arrays view
round-trips exactly, the segment-vectorized Lamport replay is
bit-identical to the per-event walk (``tests/oracles.LamportClock``) for
all six modes on real MPI+OpenMP traces, the sync plan pairs, groups and
flags defects by the walks' rules on hand-built traces, the npz archive format
round-trips, and the vectorized pattern formulas match their scalar
definitions element for element.
"""

import numpy as np
import pytest

from repro.analysis import (
    barrier_split_batch,
    late_receiver_wait_many,
    late_sender_wait,
    late_sender_wait_many,
    nxn_waits,
    nxn_waits_batch,
)
from repro.clocks import timestamp_trace
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import (
    MODES,
    ColumnarConversionError,
    Measurement,
    RawTrace,
    read_trace,
    write_trace,
)
from repro.measure.columnar import TraceColumns
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.sim import CostModel, Engine
from repro.sim.events import (
    COLL_END,
    ENTER,
    FORK,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    TEAM_BEGIN,
    Ev,
    RegionRegistry,
)
from repro.sim.kernels import EMPTY_DELTA, WorkDelta
from repro.verify import sanitize_raw
from tests.oracles import (
    barrier_split,
    lamport_replay,
    late_receiver_wait,
    walker_sanitize_raw,
)


def _run(app, seed=1):
    cl = jureca_dc(1)
    cost = CostModel(cl, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(app, cl, cost, measurement=Measurement("tsc")).run().trace


@pytest.fixture(scope="module")
def minife_trace():
    return _run(MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, threads_per_rank=2,
                                         cg_iters=4)))


@pytest.fixture(scope="module")
def tealeaf_trace():
    return _run(TeaLeaf(TeaLeafConfig.tiny(n_ranks=4, threads_per_rank=2)))


class TestTraceColumns:
    def test_round_trip_reconstructs_events(self, minife_trace):
        cols = minife_trace.columns()
        back = RawTrace.from_columns(cols)
        assert back.mode == minife_trace.mode
        assert back.locations == list(minife_trace.locations)
        assert back.runtime == minife_trace.runtime
        for orig, rec in zip(minife_trace.events, back.events):
            assert len(orig) == len(rec)
            for a, b in zip(orig, rec):
                assert (a.etype, a.region, a.t, a.t_enter, a.aux) == \
                    (b.etype, b.region, b.t, b.t_enter, b.aux)
                assert a.delta == b.delta

    def test_columns_memoized(self, minife_trace):
        assert minife_trace.columns() is minife_trace.columns()

    def test_counts_match(self, minife_trace):
        cols = minife_trace.columns()
        assert cols.n_events == minife_trace.n_events
        assert cols.n_locations == minife_trace.n_locations

    def test_nonconvertible_aux_raises(self):
        regions = RegionRegistry()
        rid = regions.intern("r", "user")
        evs = [Ev(MPI_RECV, rid, 1.0, EMPTY_DELTA, aux="not-an-int")]
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[evs])
        with pytest.raises(ColumnarConversionError):
            TraceColumns.from_raw(trace)


class TestReplayEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_minife_bit_identical(self, minife_trace, mode):
        columnar = timestamp_trace(minife_trace, mode, counter_seed=7)
        oracle, _final = lamport_replay(minife_trace, mode, counter_seed=7)
        for a, b in zip(oracle, columnar.times):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_tealeaf_bit_identical(self, tealeaf_trace, mode):
        columnar = timestamp_trace(tealeaf_trace, mode, counter_seed=3)
        oracle, _final = lamport_replay(tealeaf_trace, mode, counter_seed=3)
        for a, b in zip(oracle, columnar.times):
            np.testing.assert_array_equal(a, b)

    def test_default_uses_columnar_and_falls_back(self):
        # A trace the converter rejects (string aux) has no replay, no
        # analysis and no DAG: each raises the conversion error, since
        # every one of them runs on the trace's columns.
        from repro.analysis import analyze_trace
        from repro.causal import build_dag
        from repro.clocks import TimestampedTrace

        regions = RegionRegistry()
        rid = regions.intern("main", "user")
        evs = [Ev(ENTER, rid, 0.5, WorkDelta(bb=2.0), aux=None),
               Ev(LEAVE, rid, 1.0, EMPTY_DELTA, aux="odd")]
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[evs])
        with pytest.raises(ColumnarConversionError):
            timestamp_trace(trace, "ltbb")
        with pytest.raises(ColumnarConversionError):
            analyze_trace(TimestampedTrace(trace, [np.array([0.5, 1.0])],
                                           "tsc"))
        with pytest.raises(ColumnarConversionError):
            build_dag(trace, "ltbb")
        # its convertible twin replays like the per-event walk
        twin = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                        events=[[evs[0], Ev(LEAVE, rid, 1.0, EMPTY_DELTA)]])
        tt = timestamp_trace(twin, "ltbb")
        assert [list(t) for t in tt.times] == [[3.0, 4.0]]
        assert analyze_trace(tt).total_time() > 0.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("moved_to", ["past-receive", "before-receive"])
    def test_replay_paths_agree_on_non_monotone_trace(self, tmp_path, mode,
                                                      moved_to):
        # Move the ENTER/LEAVE in front of an MPI_SEND to a later time, so
        # its location's timestamps step backwards.  Past the matching
        # receive, the merged order puts the send behind the receive and
        # every replay must fail alike; before it, all must agree bit for
        # bit.  Each replay walks its own copy of the merged order.
        from repro.clocks.streaming import stream_clock_replay
        from repro.experiments.configs import make_app, make_cluster
        from repro.measure.shards import open_sharded_trace, write_sharded_trace

        cluster = make_cluster("MiniFE-1")
        cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=1))
        trace = Engine(make_app("MiniFE-1"), cluster, cost,
                       measurement=Measurement("tsc")).run().trace
        evs, i = next((evs, i) for evs in trace.events
                      for i in range(1, len(evs))
                      if evs[i].etype == MPI_SEND
                      and evs[i - 1].etype in (ENTER, LEAVE))
        send = evs[i]
        recv_t = next(ev.t for other in trace.events for ev in other
                      if ev.etype == MPI_RECV and ev.aux == send.aux[0])
        evs[i - 1].t = (recv_t + 1e-9 if moved_to == "past-receive"
                        else (send.t + recv_t) / 2)

        def outcome(replay):
            try:
                return replay()
            except AssertionError as exc:
                return str(exc)

        archive = tmp_path / "moved.shards"
        write_sharded_trace(trace, archive, shard_events=512)
        oracle = outcome(lambda: lamport_replay(trace, mode, counter_seed=4))
        plan = outcome(lambda: timestamp_trace(
            trace, mode, counter_seed=4).times)
        stream = outcome(lambda: stream_clock_replay(
            open_sharded_trace(archive), mode, counter_seed=4).final)
        if isinstance(oracle, str):
            assert oracle == plan == stream
        else:
            times, final = oracle
            assert [t.tolist() for t in times] == [t.tolist() for t in plan]
            assert final == stream
        if moved_to == "past-receive" and mode != "tsc":
            assert "before/without its send" in oracle


def _hand_trace(events_by_loc):
    """A trace of ``(kind, t, aux)`` events per location (region main)."""
    regions = RegionRegistry()
    rid = regions.intern("main", "user")
    return RawTrace("tsc", regions, [(r, 0) for r in range(len(events_by_loc))],
                    [[Ev(et, rid, t, EMPTY_DELTA, aux) for et, t, aux in evs]
                     for evs in events_by_loc])


class TestSyncPlan:
    def test_receive_takes_the_latest_untaken_send(self):
        # two sends of match id 5 before its receive: the receive pairs
        # with the later one, the earlier one is a duplicate
        trace = _hand_trace([[(MPI_SEND, 1.0, (5, 0)), (MPI_SEND, 2.0, (5, 0))],
                             [(MPI_RECV, 3.0, 5)]])
        sync = trace.columns().sync_plan()
        assert sync.src.tolist() == [-1, -1, 1]
        assert sync.dup.tolist() == [-1, 0, -1]
        assert sync.unreceived.tolist() == [] and sync.received.tolist() == [5]
        got = timestamp_trace(trace, "lt1").times
        want, _final = lamport_replay(trace, "lt1")
        assert [t.tolist() for t in got] == [t.tolist() for t in want] \
            == [[1.0, 2.0], [3.0]]

    def test_a_taken_send_is_gone(self):
        trace = _hand_trace([[(MPI_SEND, 1.0, (5, 0))],
                             [(MPI_RECV, 2.0, 5), (MPI_RECV, 3.0, 5)]])
        sync = trace.columns().sync_plan()
        assert sync.src.tolist() == [-1, 0, -1]
        with pytest.raises(AssertionError, match="message 5 before/without"):
            timestamp_trace(trace, "lt1")
        with pytest.raises(AssertionError, match="message 5 before/without"):
            lamport_replay(trace, "lt1")

    def test_receive_before_its_send_keeps_its_edge(self):
        # physical clocks that contradict the message: the replay refuses
        # the trace, the tsc check still reports the edge
        from repro.verify import check_timestamps
        from tests.oracles import walker_check_timestamps

        trace = _hand_trace([[(MPI_SEND, 2.0, (5, 0))], [(MPI_RECV, 1.0, 5)]])
        sync = trace.columns().sync_plan()
        assert sync.kind.tolist() == [MPI_RECV, MPI_SEND]
        assert sync.src.tolist() == [-1, -1] and sync.late.tolist() == [1, -1]
        assert sync.unreceived.tolist() == [1]
        tt = timestamp_trace(trace, "tsc")
        got = [(d.rule_id, d.message) for d in check_timestamps(tt)]
        assert got == [(d.rule_id, d.message)
                       for d in walker_check_timestamps(tt)]
        assert [rule for rule, _m in got] == ["TRC003"]

    def test_groups_close_at_the_arrivals_size_claim(self):
        # three arrivals of one collective id claiming size 2: the second
        # closes the group, the third opens one that stays open; the
        # sanitizer sees one key with three members
        trace = _hand_trace([[(COLL_END, 1.0, (7, 2))], [(COLL_END, 1.0, (7, 2))],
                             [(COLL_END, 1.0, (7, 2))]])
        sync = trace.columns().sync_plan()
        assert sync.n_complete == 1
        assert sync.group_slots(0).tolist() == [0, 1]
        assert sync.group_slots(1).tolist() == [2]
        assert sync.first.tolist() == [0, 0, 0]
        with pytest.raises(AssertionError, match=r"1 incomplete .*\('c', 7\)"):
            timestamp_trace(trace, "lt1")
        assert [d.message for d in sanitize_raw(trace)] == [
            "coll instance 7 has 3 member event(s) but group size 2"]

    def test_conflicting_size_claims_close_where_the_oracles_close(self):
        # the last arrival claims 2 after two claims of 3: its count
        # reaches its claim, so the plan and the per-event oracles all
        # close the group there
        from repro.causal import build_dag
        from tests.oracles import dag_nodes, walker_build_dag

        def trace():
            return _hand_trace([
                [(ENTER, 0.5, None), (COLL_END, t, (7, size)), (LEAVE, 2.5, None)]
                for t, size in ((1.0, 3), (1.5, 3), (2.0, 2))])

        got = timestamp_trace(trace(), "lt1").times
        want, _final = lamport_replay(trace(), "lt1")
        assert [t.tolist() for t in got] == [t.tolist() for t in want] \
            == [[1.0, 2.0, 3.0]] * 3
        assert dag_nodes(build_dag(trace(), "lt1")) \
            == dag_nodes(walker_build_dag(trace(), "lt1"))

    def test_group_max_lands_at_the_last_arrival(self):
        # location 0 records two events after its completion record and
        # before the group's last arrival: they keep their provisional
        # clocks, and the group maximum overwrites its counter only at
        # the last arrival's merged position
        trace = _hand_trace([[(COLL_END, 1.0, (1, 2)), (ENTER, 2.0, None),
                              (LEAVE, 3.0, None), (ENTER, 5.0, None)],
                             [(ENTER, 0.5, None), (ENTER, 0.6, None),
                              (ENTER, 0.7, None), (COLL_END, 4.0, (1, 2))]])
        got = timestamp_trace(trace, "lt1").times
        want, final = lamport_replay(trace, "lt1")
        assert [t.tolist() for t in got] == [t.tolist() for t in want] \
            == [[4.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 4.0]]
        assert final == [5.0, 4.0]

    def test_team_begin_fork_in_merged_and_in_location_order(self):
        # the fork comes first in time (merged order) but on a later
        # location: the replay pairs them, the sanitizer's walk does not
        trace = _hand_trace([[(TEAM_BEGIN, 2.0, 3)], [(FORK, 1.0, 3)]])
        sync = trace.columns().sync_plan()
        assert sync.loc.tolist() == [1, 0] and sync.src.tolist() == [-1, 0]
        assert sync.unforked.tolist() == [1]
        got = [(d.rule_id, d.message) for d in sanitize_raw(trace)]
        assert got == [(d.rule_id, d.message) for d in walker_sanitize_raw(trace)]
        assert got == [("TRC007", "TEAM_BEGIN for OpenMP construct 3 without "
                                  "a FORK on the master")]


class TestNpzArchive:
    def test_npz_round_trip(self, minife_trace, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace(minife_trace, path)
        back = read_trace(path)
        assert back.mode == minife_trace.mode
        assert back.locations == list(minife_trace.locations)
        for orig, rec in zip(minife_trace.events, back.events):
            for a, b in zip(orig, rec):
                assert (a.etype, a.region, a.t, a.t_enter, a.aux) == \
                    (b.etype, b.region, b.t, b.t_enter, b.aux)
                assert a.delta == b.delta

    def test_npz_and_json_agree(self, tealeaf_trace, tmp_path):
        write_trace(tealeaf_trace, tmp_path / "t.npz")
        write_trace(tealeaf_trace, tmp_path / "t.json.gz")
        a = read_trace(tmp_path / "t.npz")
        b = read_trace(tmp_path / "t.json.gz")
        for ea, eb in zip(a.events, b.events):
            for x, y in zip(ea, eb):
                assert (x.etype, x.region, x.t, x.aux) == \
                    (y.etype, y.region, y.t, y.aux)

    def test_npz_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises((ValueError, KeyError)):
            read_trace(path)


class TestVectorizedPatterns:
    def test_nxn_batch_matches_per_instance(self):
        rng = np.random.default_rng(7)
        sizes = [3, 8, 1, 40, 5]
        groups = [rng.uniform(0.0, 9.0, size=s) for s in sizes]
        completions = [float(g.max()) + rng.uniform(0.0, 1.0) for g in groups]
        flat = np.concatenate(groups)
        starts = np.cumsum([0] + sizes[:-1])
        batch = nxn_waits_batch(flat, starts, completions)
        expected = np.concatenate([
            nxn_waits(g.tolist(), c) for g, c in zip(groups, completions)
        ])
        np.testing.assert_array_equal(batch, expected)

    def test_barrier_batch_matches_per_instance(self):
        rng = np.random.default_rng(8)
        sizes = [4, 2, 33, 6]
        enters = [rng.uniform(0.0, 4.0, size=s) for s in sizes]
        leaves = [e + rng.uniform(0.1, 1.0, size=s)
                  for e, s in zip(enters, sizes)]
        starts = np.cumsum([0] + sizes[:-1])
        w_batch, o_batch = barrier_split_batch(
            np.concatenate(enters), np.concatenate(leaves), starts)
        w_exp, o_exp = [], []
        for e, l in zip(enters, leaves):
            w, o = barrier_split(e.tolist(), l.tolist())
            w_exp.extend(w)
            o_exp.extend(o)
        np.testing.assert_array_equal(w_batch, np.asarray(w_exp))
        np.testing.assert_array_equal(o_batch, np.asarray(o_exp))

    def test_p2p_many_match_scalar(self):
        rng = np.random.default_rng(9)
        n = 50
        send = rng.uniform(0.0, 5.0, size=n)
        enter = rng.uniform(0.0, 5.0, size=n)
        comp = enter + rng.uniform(0.0, 3.0, size=n)
        ls = late_sender_wait_many(send, enter, comp)
        lr = late_receiver_wait_many(send, enter, comp)
        for k in range(n):
            assert ls[k] == late_sender_wait(send[k], enter[k], comp[k])
            assert lr[k] == late_receiver_wait(send[k], enter[k], comp[k])

    def test_empty_inputs(self):
        assert nxn_waits([], 1.0) == []
        assert barrier_split([], []) == ([], [])
        assert len(nxn_waits_batch(np.empty(0), np.empty(0, int), np.empty(0))) == 0

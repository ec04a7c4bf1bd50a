"""Tests for the Scalasca-analogue analysis: patterns, profiles, delays,
and the compiled analysis plan against the per-event walker oracle
(``tests/oracles.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    COMP,
    DELAY_N2N,
    IDLE_THREADS,
    MPI_COLL_WAIT_NXN,
    MPI_P2P_LATESENDER,
    OMP_BARRIER_OVERHEAD,
    OMP_BARRIER_WAIT,
    OMP_MANAGEMENT,
    TIME_LEAVES,
    analyze_trace,
    group_totals,
    late_sender_wait,
    nxn_waits,
    render_metric_tree,
)
from repro.clocks import timestamp_trace
from repro.clocks.base import TimestampedTrace
from repro.measure import Measurement, RawTrace
from repro.sim import (
    Allreduce,
    Compute,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    ParallelFor,
    Program,
    Recv,
    Send,
)
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    Ev,
    RegionRegistry,
)
from tests.oracles import (
    assert_same_profile,
    barrier_split,
    late_receiver_wait,
    walker_analyze_trace,
)

K = KernelSpec("k", flops_per_unit=1e6, omp_iters_per_unit=1.0, bb_per_unit=5,
               stmt_per_unit=15, instr_per_unit=40, memory_scope="none")


def analyze(script, cost, n_ranks=2, threads=1, mode="tsc", phases=()):
    class P(Program):
        name = "t"

        def make_rank(self, ctx):
            yield Enter("main")
            yield from script(ctx)
            yield Leave("main")

    P.n_ranks = n_ranks
    P.threads_per_rank = threads
    res = Engine(P(), cost.cluster, cost, measurement=Measurement(mode)).run()
    return analyze_trace(timestamp_trace(res.trace, mode))


class TestPatternFormulas:
    def test_nxn_waits_basic(self):
        waits = nxn_waits([0.0, 3.0, 1.0], completion=5.0)
        assert waits == [3.0, 0.0, 2.0]

    def test_nxn_clamped_by_completion(self):
        waits = nxn_waits([0.0, 10.0], completion=4.0)
        assert waits[0] == 4.0

    def test_nxn_empty(self):
        assert nxn_waits([], 1.0) == []

    def test_barrier_split(self):
        waits, overheads = barrier_split([0.0, 2.0], [5.0, 5.0])
        assert overheads == [3.0, 3.0]  # fastest path = intrinsic cost
        assert waits == [2.0, 0.0]

    def test_barrier_split_mismatched(self):
        with pytest.raises(ValueError):
            barrier_split([0.0], [1.0, 2.0])

    def test_late_sender(self):
        assert late_sender_wait(send_ts=5.0, recv_enter_ts=2.0, recv_complete_ts=8.0) == 3.0
        assert late_sender_wait(1.0, 2.0, 8.0) == 0.0

    def test_late_receiver(self):
        assert late_receiver_wait(send_ts=1.0, recv_post_ts=4.0, complete_ts=9.0) == 3.0
        assert late_receiver_wait(4.0, 1.0, 9.0) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=16))
    @settings(max_examples=40)
    def test_nxn_waits_nonnegative(self, enters):
        completion = max(enters) + 1.0
        assert all(w >= 0 for w in nxn_waits(enters, completion))

    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_barrier_split_partition(self, pairs):
        enters = [e for e, _d in pairs]
        leaves = [e + abs(d) for e, d in pairs]
        waits, overheads = barrier_split(enters, leaves)
        for (e, l, w, o) in zip(enters, leaves, waits, overheads):
            assert w + o == pytest.approx(l - e, abs=1e-9)


class TestMetricTree:
    def test_fig1_rendering(self):
        text = render_metric_tree()
        for token in ("time", "latesender", "wait_nxn", "barrier_wait",
                      "idle_threads", "delay_mpi_collective_n2n"):
            assert token in text

    def test_time_leaves_unique(self):
        assert len(set(TIME_LEAVES)) == len(TIME_LEAVES)


class TestAnalyzerBasics:
    def test_pure_compute_is_comp(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 100)

        prof = analyze(script, quiet_cost, n_ranks=1)
        g = group_totals(prof)
        assert g["comp"] > 99.0

    def test_total_time_positive(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 10)

        prof = analyze(script, quiet_cost, n_ranks=1)
        assert prof.total_time() > 0

    def test_comp_attributed_to_callpath(self, quiet_cost):
        def script(ctx):
            yield Enter("inner")
            yield Compute(K, 100)
            yield Leave("inner")

        prof = analyze(script, quiet_cost, n_ranks=1)
        shares = prof.metric_selection_percent(COMP)
        assert shares[("main", "inner")] > 99.0

    def test_time_tree_partitions_execution(self, quiet_cost):
        """Sum of time leaves ~= sum of location lifetimes."""
        def script(ctx):
            yield Compute(K, 50 * (1 + ctx.rank))
            yield ParallelFor("l", K, total_units=100)
            yield Allreduce()

        prof = analyze(script, quiet_cost, threads=2)
        total = prof.total_time()
        comp = sum(prof.metric_total(m) for m in TIME_LEAVES)
        assert comp == pytest.approx(total)


class TestWaitStates:
    def test_imbalance_creates_nxn_wait(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 100 * (1 + ctx.rank))
            yield Enter("reduce")
            yield Allreduce()
            yield Leave("reduce")

        prof = analyze(script, quiet_cost)
        wait = prof.metric_total(MPI_COLL_WAIT_NXN)
        # rank 0's wait ~ rank 1's extra compute
        extra = 100 * 1e6 / quiet_cost.cluster.flops_per_core
        assert wait == pytest.approx(extra, rel=0.05)

    def test_balanced_ranks_no_wait(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 100)
            yield Allreduce()

        prof = analyze(script, quiet_cost)
        assert prof.percent_of_time(MPI_COLL_WAIT_NXN) < 1.0

    def test_late_sender_detected(self, quiet_cost):
        def script(ctx):
            if ctx.rank == 0:
                yield Compute(K, 500)
                yield Send(dest=1, tag=1, nbytes=64)
            else:
                yield Recv(source=0, tag=1)

        prof = analyze(script, quiet_cost)
        wait = prof.metric_total(MPI_P2P_LATESENDER)
        extra = 500 * 1e6 / quiet_cost.cluster.flops_per_core
        assert wait == pytest.approx(extra, rel=0.05)
        # attributed at the receiver's MPI_Recv call path
        shares = prof.metric_selection_percent(MPI_P2P_LATESENDER)
        assert any("MPI_Recv" in p for p in shares)

    def test_omp_barrier_wait_from_imbalance(self, quiet_cost):
        def script(ctx):
            yield ParallelFor("l", K, total_units=400, shares=(3.0, 1.0))

        prof = analyze(script, quiet_cost, n_ranks=1, threads=2)
        assert prof.metric_total(OMP_BARRIER_WAIT) > 0
        assert prof.metric_total(OMP_BARRIER_OVERHEAD) > 0

    def test_omp_management_present(self, quiet_cost):
        def script(ctx):
            for _ in range(5):
                yield ParallelFor("l", K, total_units=50)

        prof = analyze(script, quiet_cost, n_ranks=1, threads=4)
        assert prof.metric_total(OMP_MANAGEMENT) > 0


class TestIdleThreads:
    def test_serial_region_creates_idle(self, quiet_cost):
        def script(ctx):
            yield Enter("serial_part")
            yield Compute(K, 300)
            yield Leave("serial_part")
            yield ParallelFor("l", K, total_units=300)

        prof = analyze(script, quiet_cost, n_ranks=1, threads=4)
        idle = prof.metric_total(IDLE_THREADS)
        serial = 300 * 1e6 / quiet_cost.cluster.flops_per_core
        # 3 workers idle during the serial part
        assert idle == pytest.approx(3 * serial, rel=0.05)
        shares = prof.metric_selection_percent(IDLE_THREADS)
        agg = sum(v for p, v in shares.items() if "serial_part" in p)
        assert agg > 95.0

    def test_single_thread_no_idle(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 100)

        prof = analyze(script, quiet_cost, n_ranks=1, threads=1)
        assert prof.metric_total(IDLE_THREADS) == 0.0


class TestDelayCosts:
    def test_delay_points_to_imbalanced_callpath(self, quiet_cost):
        def script(ctx):
            yield Enter("balanced")
            yield Compute(K, 100)
            yield Leave("balanced")
            yield Enter("imbalanced")
            yield Compute(K, 100 * (1 + 3 * ctx.rank))
            yield Leave("imbalanced")
            yield Allreduce()

        prof = analyze(script, quiet_cost)
        shares = prof.metric_selection_percent(DELAY_N2N)
        imb = sum(v for p, v in shares.items() if "imbalanced" in p)
        assert imb > 90.0

    def test_delay_on_delayer_location(self, quiet_cost):
        def script(ctx):
            yield Compute(K, 100 * (1 + ctx.rank))
            yield Allreduce()

        prof = analyze(script, quiet_cost)
        by_loc = prof.by_location(DELAY_N2N)
        # rank 1 (loc 1) is the delayer
        assert by_loc.get(1, 0.0) > 0.0
        assert by_loc.get(0, 0.0) == 0.0

    def test_epoch_resets_at_collectives(self, quiet_cost):
        """Imbalance before the first allreduce must not leak into the
        delay attribution of the second."""
        def script(ctx):
            yield Enter("early")
            yield Compute(K, 100 * (1 + ctx.rank))
            yield Leave("early")
            yield Allreduce()
            yield Enter("late")
            yield Compute(K, 100 * (2 - ctx.rank))  # reversed imbalance
            yield Leave("late")
            yield Allreduce()

        prof = analyze(script, quiet_cost)
        # delay of the second instance must point to "late" on rank 0
        by_loc = prof.by_location(DELAY_N2N)
        assert by_loc.get(0, 0.0) > 0.0


class TestClockAgnosticism:
    """The analyzer consumes any clock's timestamps (paper Sec. III)."""

    @pytest.mark.parametrize("mode", ["lt1", "ltloop", "ltbb", "ltstmt", "lthwctr"])
    def test_logical_profiles_have_full_metric_tree(self, quiet_cost, mode):
        def script(ctx):
            yield Compute(K, 100 * (1 + ctx.rank))
            yield ParallelFor("l", K, total_units=100)
            yield Allreduce()

        prof = analyze(script, quiet_cost, threads=2, mode=mode)
        assert prof.total_time() > 0
        total = sum(prof.metric_total(m) for m in TIME_LEAVES)
        assert total == pytest.approx(prof.total_time())

    def test_count_imbalance_visible_to_logical(self, quiet_cost):
        """A deterministic count imbalance shows in logical waits too."""
        def script(ctx):
            yield Compute(K, 100 * (1 + ctx.rank))
            yield Allreduce()

        tsc = analyze(script, quiet_cost, mode="tsc")
        ltbb = analyze(script, quiet_cost, mode="ltbb")
        assert tsc.percent_of_time(MPI_COLL_WAIT_NXN) > 5
        assert ltbb.percent_of_time(MPI_COLL_WAIT_NXN) > 5


# ---------------------------------------------------------------------------
# the compiled analysis plan against the per-event walker oracle
# ---------------------------------------------------------------------------


def _hand_tt(events_by_loc, times=None):
    """A tsc-timestamped hand-built trace; events ``(kind, region, t, aux)``."""
    regions = RegionRegistry()
    for name in ("main", "x", "y", "MPI_Allreduce"):
        regions.intern(name)
    trace = RawTrace("tsc", regions, [(r, 0) for r in range(len(events_by_loc))],
                     [[Ev(et, rid, t, aux=aux) for et, rid, t, aux in evs]
                      for evs in events_by_loc])
    if times is None:
        times = [np.array([ev.t for ev in evs]) for evs in trace.events]
    return TimestampedTrace(trace, times, "tsc")


class TestAnalysisPlan:
    def test_zero_length_burst_interns_no_path(self):
        # a BURST of x that closes a zero-length interval interns no path;
        # a later positive one does, and main/x sorts before main/y
        events = [(ENTER, 0, 1.0, None), (BURST, 1, 1.0, None),
                  (ENTER, 2, 2.0, None), (LEAVE, 2, 3.0, None),
                  (BURST, 1, 4.0, None), (LEAVE, 0, 5.0, None)]
        for evs, paths in ((events[:4] + events[5:], [(), ("main",), ("main", "y")]),
                           (events, [(), ("main",), ("main", "x"), ("main", "y")])):
            tt = _hand_tt([evs])
            got = analyze_trace(tt)
            assert got.calltree.paths() == paths
            assert_same_profile(got, walker_analyze_trace(tt))

    @pytest.mark.parametrize("events", [[[], []], [[], [(ENTER, 0, 1.0, None),
                                                       (LEAVE, 0, 2.0, None)]]])
    def test_empty_locations(self, events):
        tt = _hand_tt(events)
        assert_same_profile(analyze_trace(tt), walker_analyze_trace(tt))

    def test_cells_sum_left_to_right(self):
        # 300 bursts land in one cell: its value must be the walk's
        # sequential sum (a pairwise reduction differs in the last bits)
        t = np.cumsum(np.random.default_rng(4).uniform(0.01, 1.0, 302)).tolist()
        tt = _hand_tt([[(ENTER, 0, t[0], None)]
                       + [(BURST, 1, x, None) for x in t[1:-1]]
                       + [(LEAVE, 0, t[-1], None)]])
        got, want = analyze_trace(tt), walker_analyze_trace(tt)
        total = 0.0
        for a, b in zip(t[:-2], t[1:-1]):
            total += b - a
        cp = got.calltree.id_of(("main", "x"))
        assert got.cells(COMP)[(cp, 0)] == total
        assert_same_profile(got, want)

    @pytest.mark.parametrize("case,exc", [
        ("short-times", ValueError),
        ("recv-without-send", KeyError),
        ("incomplete-collective", AssertionError),
        ("unmatched-send", AssertionError),
    ])
    def test_malformed_traces_raise_the_walkers_errors(self, case, exc):
        main = [(ENTER, 0, 1.0, None), (LEAVE, 0, 9.0, None)]
        if case == "short-times":
            tt = _hand_tt([main], times=[np.array([1.0])])
        elif case == "recv-without-send":
            tt = _hand_tt([[main[0], (MPI_RECV, 0, 2.0, 7), main[1]], main])
        elif case == "incomplete-collective":
            tt = _hand_tt([[main[0], (COLL_END, 3, 2.0, (1, 2)), main[1]], main])
        else:
            tt = _hand_tt([[main[0], (MPI_SEND, 0, 2.0, (5, 0)), main[1]], main])
        with pytest.raises(exc):
            walker_analyze_trace(tt)
        with pytest.raises(exc):
            analyze_trace(tt)

    def test_taking_events_drops_the_plan(self, quiet_cost):
        class P(Program):
            name = "t"
            n_ranks = 2
            threads_per_rank = 2

            def make_rank(self, ctx):
                yield Enter("main")
                yield Enter("work")
                yield Compute(K, 20 * (1 + ctx.rank))
                yield ParallelFor("loop", K, total_units=40)
                yield Leave("work")
                yield Allreduce()
                yield Leave("main")

        trace = Engine(P(), quiet_cost.cluster, quiet_cost,
                       measurement=Measurement("tsc")).run().trace
        analyze_trace(timestamp_trace(trace, "tsc"))
        cols = trace.columns()
        assert cols._analysis_plan is not None
        work = trace.regions.intern("work")
        renamed = trace.regions.intern("renamed")
        for ev in trace.events[0]:  # hands the events the trace's ownership
            if ev.region == work:
                ev.region = renamed
        tt = timestamp_trace(trace, "tsc")
        got = analyze_trace(tt)
        assert trace.columns() is not cols
        assert ("main", "renamed") in got.calltree.paths()
        assert_same_profile(got, walker_analyze_trace(tt))

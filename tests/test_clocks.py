"""Tests for the clocks: Lamport algorithm, increment models, extensions.

The increment models are checked through
:func:`repro.clocks.columnar_increments` on one-event traces, against
the paper's formulas and the per-event callables of ``tests/oracles.py``;
the vector and lazy clocks are study references that live there too.
"""

import numpy as np
import pytest

from repro.clocks import (
    SyncMechanism,
    columnar_increments,
    overhead_for_mechanism,
    timestamp_trace,
)
from repro.machine.noise import NoiseConfig, NoiseModel, ZeroNoise
from repro.measure import Measurement, RawTrace
from repro.sim import (
    Allreduce,
    Compute,
    CostModel,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    ParallelFor,
    Program,
    Recv,
    Send,
)
from repro.sim.events import ENTER, Ev, RegionRegistry
from repro.sim.kernels import WorkDelta
from tests.oracles import (
    LamportClock,
    LazyLamportClock,
    VectorClock,
    increment_lt1,
    increment_ltbb,
    increment_ltloop,
    increment_ltstmt,
    make_increment,
)

K = KernelSpec("k", flops_per_unit=1e5, omp_iters_per_unit=1.0, bb_per_unit=5,
               stmt_per_unit=15, instr_per_unit=40, memory_scope="none")


class _Comm(Program):
    name = "comm"
    n_ranks = 2
    threads_per_rank = 2

    def make_rank(self, ctx):
        yield Enter("main")
        yield Compute(K, 100 * (1 + ctx.rank))
        if ctx.rank == 0:
            yield Send(dest=1, tag=1, nbytes=64)
        else:
            yield Recv(source=0, tag=1)
        yield ParallelFor("loop", K, total_units=200)
        yield Allreduce()
        yield Leave("main")


@pytest.fixture
def comm_trace(cluster):
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=1))
    res = Engine(_Comm(), cluster, cost, measurement=Measurement("tsc")).run()
    return res.trace


class TestIncrementModels:
    def _ev(self, **delta):
        return Ev(ENTER, 0, 0.0, WorkDelta(**delta))

    def _inc(self, mode, ev, **constants):
        """``columnar_increments`` of a one-location trace holding ``ev``,
        checked against the oracle's per-event callable."""
        regions = RegionRegistry()
        regions.intern("main", "user")
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[[ev]])
        (inc,) = columnar_increments(trace.columns(), mode, **constants)
        assert inc.tolist() == [make_increment(mode, **constants)(ev)]
        return inc[0]

    def test_lt1_is_one_per_event(self):
        assert self._inc("lt1", self._ev()) == 1.0
        assert self._inc("lt1", self._ev(omp_iters=100, bb=50)) == 1.0
        assert increment_lt1(self._ev()) == 1.0

    def test_lt1_counts_burst_calls(self):
        assert self._inc("lt1", self._ev(burst_calls=10)) == 21.0

    def test_ltloop_counts_iterations(self):
        assert self._inc("ltloop", self._ev(omp_iters=7)) == 8.0
        assert increment_ltloop(self._ev(omp_iters=7)) == 8.0

    def test_ltbb_counts_blocks_and_omp_calls(self):
        # X = 100 basic blocks per OpenMP runtime call (paper Sec. II-A)
        ev = self._ev(bb=50, omp_calls=2)
        assert self._inc("ltbb", ev) == increment_ltbb(ev) == 1.0 + 50 + 200

    def test_ltstmt_counts_statements(self):
        # Y = 4300 statements per OpenMP runtime call
        ev = self._ev(stmt=10, omp_calls=1)
        assert self._inc("ltstmt", ev) == increment_ltstmt(ev) == 1.0 + 10 + 4300

    def test_make_increment_with_custom_constants(self):
        assert self._inc("ltbb", self._ev(omp_calls=1), x_bb=7.0) == 8.0
        assert self._inc("ltstmt", self._ev(omp_calls=2), y_stmt=3.0) == 7.0

    def test_make_increment_rejects_hwctr(self):
        # lthwctr has no static model: it needs the counter noise
        with pytest.raises(ValueError):
            make_increment("lthwctr")
        with pytest.raises(ValueError, match="CounterNoise"):
            self._inc("lthwctr", self._ev(instr=5.0))


class TestClockCondition:
    def test_strictly_increasing_per_location(self, comm_trace):
        for mode in ("lt1", "ltloop", "ltbb", "ltstmt", "lthwctr"):
            tt = timestamp_trace(comm_trace, mode)
            for arr in tt.times:
                if len(arr) > 1:
                    assert np.all(np.diff(arr) > 0), mode

    def test_send_before_receive(self, comm_trace):
        tt = timestamp_trace(comm_trace, "lt1")
        sends = {}
        recvs = {}
        for loc, evs in enumerate(comm_trace.events):
            for i, ev in enumerate(evs):
                if ev.etype == 3:  # MPI_SEND
                    sends[ev.aux[0]] = tt.times[loc][i]
                elif ev.etype == 4:  # MPI_RECV
                    recvs[ev.aux] = tt.times[loc][i]
        for match, ts in sends.items():
            assert recvs[match] > ts

    def test_collective_ends_equal(self, comm_trace):
        tt = timestamp_trace(comm_trace, "ltbb")
        ends = []
        for loc, evs in enumerate(comm_trace.events):
            for i, ev in enumerate(evs):
                if ev.etype == 5:  # COLL_END
                    ends.append(tt.times[loc][i])
        assert len(ends) == 2
        assert ends[0] == ends[1]


class TestNoiseResilience:
    """The paper's central property: logical traces are noise-invariant."""

    def _trace(self, cluster, seed):
        cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
        return Engine(_Comm(), cluster, cost, measurement=Measurement("tsc")).run().trace

    @pytest.mark.parametrize("mode", ["lt1", "ltloop", "ltbb", "ltstmt"])
    def test_logical_timestamps_identical_across_noise(self, cluster, mode):
        t1 = timestamp_trace(self._trace(cluster, 1), mode).times
        t2 = timestamp_trace(self._trace(cluster, 2), mode).times
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)

    def test_tsc_differs_across_noise(self, cluster):
        t1 = timestamp_trace(self._trace(cluster, 1), "tsc").times
        t2 = timestamp_trace(self._trace(cluster, 2), "tsc").times
        assert any(not np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_hwctr_differs_across_counter_seeds(self, cluster):
        tr = self._trace(cluster, 1)
        t1 = timestamp_trace(tr, "lthwctr", counter_seed=1).times
        t2 = timestamp_trace(tr, "lthwctr", counter_seed=2).times
        assert any(not np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_hwctr_deterministic_for_fixed_seed(self, cluster):
        tr = self._trace(cluster, 1)
        t1 = timestamp_trace(tr, "lthwctr", counter_seed=7).times
        t2 = timestamp_trace(tr, "lthwctr", counter_seed=7).times
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)


class TestVectorClock:
    def test_happens_before_message(self, comm_trace):
        vc = VectorClock(comm_trace)
        # find send/recv event indexes
        send = recv = None
        for loc, evs in enumerate(comm_trace.events):
            for i, ev in enumerate(evs):
                if ev.etype == 3:
                    send = (loc, i)
                elif ev.etype == 4:
                    recv = (loc, i)
        assert vc.happens_before(send, recv)
        assert not vc.happens_before(recv, send)

    def test_local_order(self, comm_trace):
        vc = VectorClock(comm_trace)
        assert vc.happens_before((0, 0), (0, 1))

    def test_concurrent_early_events(self, comm_trace):
        # the first events of the two masters are causally unrelated
        loc0 = comm_trace.loc_id(0, 0)
        loc1 = comm_trace.loc_id(1, 0)
        vc = VectorClock(comm_trace)
        assert vc.concurrent((loc0, 0), (loc1, 0))

    def test_vector_consistent_with_lamport(self, comm_trace):
        """a -> b (vector) implies C(a) < C(b) (Lamport clock condition)."""
        vc = VectorClock(comm_trace)
        lt = timestamp_trace(comm_trace, "lt1").times
        import itertools
        locs = range(min(2, comm_trace.n_locations))
        for la, lb in itertools.product(locs, locs):
            for ia in range(0, len(comm_trace.events[la]), 3):
                for ib in range(0, len(comm_trace.events[lb]), 3):
                    if vc.happens_before((la, ia), (lb, ib)):
                        assert lt[la][ia] < lt[lb][ib]


class TestLazyLamport:
    def test_members_agree_at_collectives(self, comm_trace):
        """At a strong sync all members share one reconciled value."""
        lazy = LazyLamportClock(increment_lt1).assign(comm_trace)
        values = []
        for loc, evs in enumerate(comm_trace.events):
            for i, ev in enumerate(evs):
                if ev.etype == 5:  # COLL_END
                    values.append(lazy[loc][i])
        assert len(set(values)) == 1

    def test_never_exceeds_eager(self, comm_trace):
        eager = LamportClock(increment_lt1).assign(comm_trace)
        lazy = LazyLamportClock(increment_lt1).assign(comm_trace)
        for a, b in zip(lazy, eager):
            assert np.all(a <= b + 1e-9)


class TestSyncMechanisms:
    def test_extra_message_most_expensive(self):
        costs = {m: overhead_for_mechanism(m).mpi_sync_cost for m in SyncMechanism}
        assert costs[SyncMechanism.EXTRA_MESSAGE] > costs[SyncMechanism.PIGGYBACK_DATATYPE]
        assert costs[SyncMechanism.PIGGYBACK_DATATYPE] > costs[SyncMechanism.PIGGYBACK_PREPOSTED]

    def test_mechanism_does_not_change_timestamps(self, cluster):
        """Piggyback vs extra message changes cost, never the clock values."""
        results = []
        for mech in (SyncMechanism.EXTRA_MESSAGE, SyncMechanism.PIGGYBACK_PREPOSTED):
            cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
            m = Measurement("ltbb", overhead=overhead_for_mechanism(mech))
            res = Engine(_Comm(), cluster, cost, measurement=m).run()
            results.append((res.runtime, timestamp_trace(res.trace, "ltbb").times))
        (rt_a, ts_a), (rt_b, ts_b) = results
        assert rt_a > rt_b  # extra message costs more wall time
        for a, b in zip(ts_a, ts_b):
            assert np.array_equal(a, b)  # logical result identical

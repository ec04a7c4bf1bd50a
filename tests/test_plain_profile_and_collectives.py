"""Tests for plain profiling and the remaining collective operations."""

import pytest

from repro.analysis import MPI_COLL_WAIT_NXN, PLAIN_TIME, analyze_trace, plain_profile
from repro.clocks import timestamp_trace
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.scoring import min_pairwise_jaccard
from repro.sim import (
    Allgather,
    Allreduce,
    Alltoall,
    Bcast,
    Compute,
    CostModel,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    ParallelFor,
    Program,
    Reduce,
)
from tests.oracles import assert_same_profile, walker_plain_profile

K = KernelSpec("k", flops_per_unit=1e6, omp_iters_per_unit=1.0, bb_per_unit=5,
               stmt_per_unit=15, instr_per_unit=40, memory_scope="none")


def run(script, cost, n_ranks=2, threads=1, mode="tsc"):
    class P(Program):
        name = "t"

        def make_rank(self, ctx):
            yield Enter("main")
            yield from script(ctx)
            yield Leave("main")

    P.n_ranks = n_ranks
    P.threads_per_rank = threads
    return Engine(P(), cost.cluster, cost, measurement=Measurement(mode)).run()


class TestOtherCollectives:
    @pytest.mark.parametrize("action", [Alltoall(nbytes_per_pair=64.0),
                                        Allgather(nbytes_per_rank=64.0)])
    def test_nxn_family_waits(self, quiet_cost, action):
        def script(ctx):
            yield Compute(K, 100 * (1 + ctx.rank))
            yield action

        prof = analyze_trace(timestamp_trace(run(script, quiet_cost).trace, "tsc"))
        assert prof.metric_total(MPI_COLL_WAIT_NXN) > 0

    @pytest.mark.parametrize("action", [Bcast(root=0, nbytes=256.0),
                                        Reduce(root=0, nbytes=256.0)])
    def test_rooted_collectives_complete(self, quiet_cost, action):
        def script(ctx):
            yield Compute(K, 10)
            yield action

        res = run(script, quiet_cost)
        # rooted collectives synchronize in our model; both ranks finish
        assert res.rank_end_times[0] == pytest.approx(res.rank_end_times[1], rel=1e-9)

    def test_alltoall_cost_grows_with_size(self, quiet_cost):
        def make(nbytes):
            def script(ctx):
                yield Alltoall(nbytes_per_pair=nbytes)

            return script

        small = run(make(64.0), quiet_cost).runtime
        big = run(make(64000.0), quiet_cost).runtime
        assert big > small


class TestPlainProfile:
    def _tt(self, cost, mode="tsc", seed=None):
        def script(ctx):
            yield Enter("f")
            yield Compute(K, 100 * (1 + ctx.rank))
            yield Leave("f")
            yield Enter("g")
            yield ParallelFor("loop", K, total_units=100)
            yield Leave("g")
            yield Allreduce()

        res = run(script, cost, threads=2, mode=mode)
        return timestamp_trace(res.trace, mode, counter_seed=seed or 0)

    def test_single_metric(self, quiet_cost):
        prof = plain_profile(self._tt(quiet_cost))
        assert prof.metrics == [PLAIN_TIME]
        assert prof.total_time() > 0

    def test_callpaths_carry_region_names(self, quiet_cost):
        prof = plain_profile(self._tt(quiet_cost))
        paths = {"/".join(p) for p in prof.by_callpath(PLAIN_TIME)}
        assert any("f" in p for p in paths)
        assert any("omp_for_loop" in p for p in paths)

    def test_plain_total_close_to_analysis_total(self, quiet_cost):
        tt = self._tt(quiet_cost)
        plain = plain_profile(tt)
        full = analyze_trace(tt)
        # plain profiles skip worker idle gaps; totals agree within the
        # idle fraction
        assert plain.total_time() <= full.total_time() * 1.001
        assert plain.total_time() > full.total_time() * 0.3

    @pytest.mark.parametrize("mode", ["tsc", "ltbb"])
    def test_matches_walker_where_ranks_differ(self, quiet_cost, mode):
        """Rank 1 enters ``b`` before rank 0 enters ``a``: the profile
        holds the per-location walk's paths and values, in the one
        profile order whatever the merged order; workers sit under their
        fork's frame."""
        def script(ctx):
            order = ("a", "b") if ctx.rank == 0 else ("b", "a")
            if ctx.rank == 0:
                yield Compute(K, 300)
            for region in order:
                yield Enter(region)
                yield ParallelFor("loop", K, total_units=100)
                yield Leave(region)
            yield Allreduce()

        tt = timestamp_trace(run(script, quiet_cost, threads=2, mode=mode).trace,
                             mode)
        got = plain_profile(tt)
        assert ("main", "a", "omp_parallel_loop", "omp_for_loop") in \
            got.by_callpath(PLAIN_TIME)
        # the walker takes the events, so it runs last
        assert_same_profile(got, walker_plain_profile(tt))

    def test_plain_profile_all_modes(self, quiet_cost):
        for mode in ("tsc", "lt1", "ltbb", "lthwctr"):
            prof = plain_profile(self._tt(quiet_cost, mode=mode))
            assert prof.total_time() > 0, mode

    def test_hwctr_plain_more_stable_than_waitstate(self, cluster):
        """The Sec. V-B reconciliation with Ritter et al. at unit scale."""
        plain, full = [], []
        for rep in range(3):
            cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=40 + rep))
            tt = self._tt(cost, mode="lthwctr", seed=40 + rep)
            plain.append(plain_profile(tt).normalized())
            full.append(analyze_trace(tt).normalized())
        assert min_pairwise_jaccard(plain) >= min_pairwise_jaccard(full) - 0.02

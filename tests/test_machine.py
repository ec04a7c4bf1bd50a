"""Tests for repro.machine: topology, pinning, network, memory, noise."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    CacheModel,
    CollectiveCostModel,
    CounterNoise,
    MemoryModel,
    NetworkModel,
    NoiseConfig,
    NoiseModel,
    Pinning,
    ZeroNoise,
    jureca_dc,
    small_test_cluster,
)
from repro.machine.topology import build_cluster
from repro.sim import ComputeContext, CostModel, KernelSpec
from tests.oracles import counter_perturb, kernel_time


class TestTopology:
    def test_jureca_dimensions(self):
        cl = jureca_dc(1)
        assert len(cl.nodes) == 1
        assert len(cl.nodes[0].sockets) == 2
        assert len(cl.numa_domains) == 8
        assert len(cl.cores) == 128

    def test_jureca_l3_512mb_per_node(self):
        # Sec. IV-E: "8 x 4 x 16 MB = 512 MB L3 cache on the node"
        cl = jureca_dc(1)
        assert cl.nodes[0].l3_capacity == pytest.approx(512 * 1024**2)

    def test_two_nodes(self):
        cl = jureca_dc(2)
        assert len(cl.cores) == 256
        assert cl.cores[128].node_id == 1

    def test_numa_domain_lookup(self):
        cl = small_test_cluster()
        d = cl.numa_domain(1)
        assert d.global_id == 1
        with pytest.raises(KeyError):
            cl.numa_domain(99)

    def test_core_lookup(self):
        cl = small_test_cluster()
        assert cl.core(0).global_id == 0
        with pytest.raises(KeyError):
            cl.core(10**6)

    def test_build_cluster_validates(self):
        with pytest.raises(ValueError):
            build_cluster("x", 0, 1, 1, 1, 1.0, 1.0, 1.0, 1.0, 1e-6, 1e9)


class TestPinning:
    def test_packed_fills_in_order(self):
        cl = small_test_cluster(cores_per_numa=4, numa_per_socket=2)
        p = Pinning.packed(cl, n_ranks=2, threads_per_rank=4)
        assert p.numa_of(0, 0) == 0
        assert p.numa_of(1, 0) == 1

    def test_packed_too_many_raises(self):
        cl = small_test_cluster(cores_per_numa=2, numa_per_socket=1)
        with pytest.raises(ValueError):
            Pinning.packed(cl, n_ranks=4, threads_per_rank=4)

    def test_spread_one_rank_per_domain(self):
        cl = jureca_dc(1)
        p = Pinning.spread_ranks_over_numa(cl, 8, 1)
        assert sorted(p.numa_of(r, 0) for r in range(8)) == list(range(8))

    def test_balanced_numa_lulesh2_shape(self):
        # "Three NUMA domains are filled completely with four ranks (16
        # threads) each.  The other five domains are assigned three ranks."
        cl = jureca_dc(1)
        p = Pinning.balanced_numa(cl, 27, 4)
        occ = p.numa_occupancy()
        counts = sorted(occ.values(), reverse=True)
        assert counts == [16, 16, 16, 12, 12, 12, 12, 12]

    def test_locations_count(self):
        cl = small_test_cluster(cores_per_numa=4)
        p = Pinning.packed(cl, 2, 2)
        assert len(list(p.locations())) == 4

    def test_same_node(self):
        cl = jureca_dc(2)
        p = Pinning.packed(cl, 64, 4)
        assert p.same_node(0, 31)
        assert not p.same_node(0, 63)


class TestNetwork:
    def test_eager_threshold(self):
        net = NetworkModel(jureca_dc(1))
        assert net.is_eager(1024)
        assert not net.is_eager(10**6)

    def test_intra_node_faster(self):
        net = NetworkModel(jureca_dc(2))
        assert net.transfer_time(1e6, same_node=True) < net.transfer_time(1e6, same_node=False)

    def test_transfer_monotone_in_size(self):
        net = NetworkModel(jureca_dc(1))
        assert net.transfer_time(2e6, True) > net.transfer_time(1e6, True)

    def test_collective_costs_grow_with_ranks(self):
        cl = jureca_dc(1)
        coll = CollectiveCostModel(NetworkModel(cl))
        p8 = Pinning.spread_ranks_over_numa(cl, 8, 1)
        p2 = Pinning.spread_ranks_over_numa(cl, 2, 1)
        assert coll.allreduce(p8, range(8), 8.0) > coll.allreduce(p2, range(2), 8.0)

    def test_single_rank_collective_free(self):
        cl = jureca_dc(1)
        coll = CollectiveCostModel(NetworkModel(cl))
        p = Pinning.packed(cl, 1, 1)
        assert coll.allreduce(p, [0], 8.0) == 0.0
        assert coll.barrier(p, [0]) == 0.0

    def test_unknown_op(self):
        cl = jureca_dc(1)
        coll = CollectiveCostModel(NetworkModel(cl))
        p = Pinning.packed(cl, 2, 1)
        with pytest.raises(ValueError):
            coll.cost("gossip", p, [0, 1], 8.0)


class TestMemoryModel:
    """The engine's contention formula (``team + others * overlap *
    relief`` effective accessors), priced call by call through
    ``tests.oracles.kernel_time`` on a streaming kernel without noise."""

    KERNEL = KernelSpec("stream", flops_per_unit=0.0, bytes_per_unit=1e6)
    UNITS = 100.0

    def _time(self, other_actors=0, desync=0.0):
        ctx = ComputeContext(rank=0, thread=0, numa_id=0, socket_id=0,
                             other_actors=other_actors, desync=desync,
                             cache_working_set=1e12)
        return kernel_time(CostModel(jureca_dc(1)), self.KERNEL, self.UNITS, ctx)

    def test_no_contention_single_actor(self):
        cluster = jureca_dc(1)
        mm, cm = MemoryModel(cluster), CacheModel(cluster)
        bw = min(mm.per_core_bw_cap, cluster.numa_domain(0).mem_bandwidth)
        solo = self.UNITS * self.KERNEL.bytes_per_unit / (bw * cm.bandwidth_factor(1e12))
        assert self._time() == pytest.approx(solo)
        assert self._time(desync=1.0) == self._time()

    def test_contention_reduces_bandwidth(self):
        assert self._time(other_actors=15) > self._time(other_actors=3) > self._time()

    def test_desync_restores_bandwidth(self):
        synced = self._time(other_actors=15)
        spread = self._time(other_actors=15, desync=10.0 * self._time())
        assert spread < synced

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=0, max_value=100))
    @settings(max_examples=30)
    def test_effective_accessors_bounds(self, actors, desync):
        solo = self._time()
        contended = self._time(other_actors=actors - 1)
        t = self._time(other_actors=actors - 1, desync=desync * solo)
        assert solo <= t <= contended


class TestCacheModel:
    def test_fits_in_cache(self):
        cm = CacheModel(jureca_dc(1))
        assert cm.hit_fraction(1024) == 1.0
        assert cm.bandwidth_factor(1024) == pytest.approx(cm.cache_speedup)

    def test_spill_reduces_factor(self):
        cm = CacheModel(jureca_dc(1))
        l3 = jureca_dc(1).nodes[0].sockets[0].l3_capacity
        fits = cm.bandwidth_factor(l3)
        spilled = cm.bandwidth_factor(l3, extra_footprint=l3)
        assert spilled < fits

    def test_huge_working_set_factor_near_one(self):
        cm = CacheModel(jureca_dc(1))
        assert cm.bandwidth_factor(1e12) == pytest.approx(1.0, rel=0.01)

    def test_footprint_monotone(self):
        cm = CacheModel(jureca_dc(1))
        l3 = jureca_dc(1).nodes[0].sockets[0].l3_capacity
        f = [cm.bandwidth_factor(l3, extra) for extra in (0.0, l3 / 4, l3 / 2, l3)]
        assert all(a >= b for a, b in zip(f, f[1:]))


class TestNoise:
    def test_zero_noise_is_identity(self):
        nm = NoiseModel(ZeroNoise(), seed=1)
        assert nm.compute_time(0, 0, 1.0) == 1.0
        assert counter_perturb(CounterNoise(1, ZeroNoise()), 0, 0, 0,
                               100.0) == 100.0

    def test_noise_reproducible_per_seed(self):
        a = NoiseModel(NoiseConfig(), seed=5).compute_time(0, 0, 1.0)
        b = NoiseModel(NoiseConfig(), seed=5).compute_time(0, 0, 1.0)
        assert a == b

    def test_noise_differs_across_seeds(self):
        a = NoiseModel(NoiseConfig(), seed=5).compute_time(0, 0, 1.0)
        b = NoiseModel(NoiseConfig(), seed=6).compute_time(0, 0, 1.0)
        assert a != b

    def test_cpu_noise_mean_near_one(self):
        nm = NoiseModel(NoiseConfig(os_jitter_rate=0.0), seed=2)
        samples = [nm.compute_time(0, 0, 1.0) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.01)

    def test_os_jitter_additive(self):
        cfg = NoiseConfig(cpu_sigma=0.0, os_jitter_rate=1000.0, os_jitter_duration=1e-4)
        nm = NoiseModel(cfg, seed=3)
        t = np.mean([nm.compute_time(0, 0, 1.0) for _ in range(50)])
        assert t > 1.0

    def test_counter_noise_nonnegative_offset(self):
        assert counter_perturb(CounterNoise(4, NoiseConfig()), 0, 0, 0,
                               1e6) > 0

    def test_scaled_config(self):
        cfg = NoiseConfig().scaled(0.0)
        assert cfg.cpu_sigma == 0.0 and cfg.network_sigma == 0.0

    def test_negative_interval_raises(self):
        nm = NoiseModel(NoiseConfig(), seed=1)
        with pytest.raises(ValueError):
            nm.os.detour_time(0, 0, -1.0)

    @pytest.mark.parametrize("config", [
        NoiseConfig(),
        NoiseConfig(counter_offset_instructions=0.0),
        NoiseConfig(counter_sigma=0.0),
        ZeroNoise(),
    ], ids=["lognormal+offset", "lognormal", "offset", "none"])
    def test_perturb_many_equals_per_event_perturb(self, config):
        # the one-pass readings equal the oracle's keyed draw taken one
        # index at a time
        counts = [0.0, 1.0, 3.0e9, 12345.678] + \
            (np.random.default_rng(2).random(500) * 1e6).tolist()
        many = CounterNoise(4, config).perturb_many(
            [(1, 2)], [len(counts)], np.array(counts))
        one = CounterNoise(4, config)
        each = np.array([counter_perturb(one, 1, 2, i, c)
                         for i, c in enumerate(counts)])
        assert many.view(np.uint64).tolist() == each.view(np.uint64).tolist()
        assert len(CounterNoise(4, config).perturb_many([(0, 0)], [0], [])) == 0

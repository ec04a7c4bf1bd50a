"""Bulk stream derivation and the block-derived network noise.

:func:`repro.util.rng.first_normals` runs NumPy's ``SeedSequence`` and
``PCG64`` seeding for a whole batch of seeds; each draw must equal the
first normal of ``np.random.default_rng(seed)`` bit for bit.
:class:`repro.machine.noise.NetworkNoise` derives its first factors in
blocks of consecutive ids with it and must equal the per-key oracle
(:class:`tests.oracles.PerKeyNetworkNoise`) factor for factor, in any
request order, and so must every engine trace priced with it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import small_test_cluster
from repro.machine.noise import NetworkNoise, NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.miniapps import MiniFE, MiniFEConfig
from repro.miniapps.lulesh import Lulesh, LuleshConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.sim import CostModel, Engine
from repro.util.rng import RngStreams, first_normals
from tests.oracles import PerKeyNetworkNoise, event_bits

#: one-word (< 2**32) and two-word SeedSequence entropy, both extremes
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

seed64 = st.integers(min_value=0, max_value=2**64 - 1)


def _scratch():
    return np.random.Generator(np.random.PCG64(0))


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.uint64).tolist()


def _reference(seeds, loc, scale):
    return [np.random.default_rng(s).normal(loc, scale) for s in seeds]


class TestFirstNormals:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seed(self, seed):
        got = first_normals([seed], -0.005, 0.1, _scratch())
        assert _bits(got) == _bits(_reference([seed], -0.005, 0.1))

    def test_edge_seeds_in_one_batch(self):
        seeds = EDGE_SEEDS + EDGE_SEEDS[::-1]
        assert _bits(first_normals(seeds, 0.0, 1.0, _scratch())) == \
            _bits(_reference(seeds, 0.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(seed64, max_size=40),
           st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_random_seeds(self, seeds, loc, scale):
        assert _bits(first_normals(seeds, loc, scale, _scratch())) == \
            _bits(_reference(seeds, loc, scale))

    def test_batches_are_independent(self):
        # the scratch generator is fully re-seeded per key: splitting a
        # batch, or drawing from the scratch in between, changes nothing
        scratch = _scratch()
        seeds = EDGE_SEEDS + [12345, 2**40 + 7]
        whole = first_normals(seeds, 0.0, 1.0, scratch)
        scratch.normal(size=17)
        halves = first_normals(seeds[:3], 0.0, 1.0, scratch) + \
            first_normals(seeds[3:], 0.0, 1.0, scratch)
        assert _bits(whole) == _bits(halves)

    def test_needs_pcg64(self):
        with pytest.raises(TypeError):
            first_normals([1], 0.0, 1.0, np.random.Generator(np.random.MT19937(0)))


def _pair(seed, config=None):
    """(block-derived, per-key oracle) network noise on equal streams."""
    config = config or NoiseConfig()
    return (NetworkNoise(RngStreams(seed), config),
            PerKeyNetworkNoise(RngStreams(seed), config))


def _agree(keys, seed=3, config=None):
    net, oracle = _pair(seed, config)
    got = [net.factor(k) for k in keys]
    want = [oracle.factor(k) for k in keys]
    assert _bits(got) == _bits(want)
    return got


#: the first and last ids of the blocks 16, 32, 64, 128, 256, 256
BOUNDARIES = [0, 15, 16, 47, 48, 111, 112, 239, 240, 495, 496, 751, 752]


class TestNetworkNoise:
    def test_keys_out_of_order(self):
        keys = [(kind, i) for i in range(900) for kind in ("p2p", "coll")]
        random.Random(1).shuffle(keys)
        _agree(keys)

    def test_repeated_keys(self):
        # a key's second and later draws continue its own stream, before
        # and after the rest of its block is derived
        keys = [("p2p", 5), ("p2p", 5), ("p2p", 6), ("p2p", 5),
                ("coll", 300), ("coll", 300), ("coll", 299), ("coll", 300)]
        got = _agree(keys * 2)
        assert len(set(got)) == len(got)

    def test_block_boundaries(self):
        keys = [(kind, i) for i in BOUNDARIES[::-1] for kind in ("p2p", "coll")]
        _agree(keys + keys[::-1])

    def test_other_key_shapes(self):
        # anything but (kind, non-negative int) has no block: its own stream
        _agree([("p2p", -1), ("weird",), "x", ("p2p", 3, 4), ("p2p", "7"),
                ("weird",), ("p2p", -1), ("p2p", 1)])

    def test_zero_sigma(self):
        keys = [("p2p", 7), ("p2p", 7), ("coll", 0)] + [("p2p", i) for i in BOUNDARIES]
        got = _agree(keys, config=NoiseConfig(network_sigma=0.0))
        assert got == [1.0] * len(keys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("p2p", "coll")),
                              st.integers(min_value=0, max_value=800)),
                    max_size=60),
           st.integers(min_value=0, max_value=2**32))
    def test_any_request_sequence(self, keys, seed):
        _agree(keys, seed=seed)


_APPS = {
    "minife": lambda: MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=3)),
    "lulesh": lambda: Lulesh(LuleshConfig.tiny(steps=2)),
    "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny()),
}


def _trace(app, seed, per_key, mode="tsc"):
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    noise = NoiseModel(NoiseConfig(), seed=seed)
    if per_key:
        noise.network = PerKeyNetworkNoise(RngStreams(seed), noise.config)
    cost = CostModel(cluster, noise=noise)
    res = Engine(_APPS[app](), cluster, cost, measurement=Measurement(mode)).run()
    return res.runtime.hex(), event_bits(res.trace)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("app", sorted(_APPS))
def test_engine_traces_equal_per_key_noise(app, seed):
    assert _trace(app, seed, per_key=False) == _trace(app, seed, per_key=True)

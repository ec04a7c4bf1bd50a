"""Tests for the generalized Jaccard score (paper Sec. V-B)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cube import CubeProfile, SystemTree
from repro.scoring import (
    jaccard,
    jaccard_metric_callpath,
    min_pairwise_jaccard,
)

nonneg = st.dictionaries(
    st.text(min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1e6),
    max_size=10,
)


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}) == 1.0

    def test_disjoint_support_zero(self):
        assert jaccard({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_both_empty_is_one(self):
        assert jaccard({}, {}) == 1.0

    def test_partial_overlap(self):
        # min-sum = 1, max-sum = 3
        assert jaccard({"a": 2.0}, {"a": 1.0, "b": 1.0}) == pytest.approx(1.0 / 3.0)

    def test_known_value_from_definition(self):
        a = {"x": 3.0, "y": 1.0}
        b = {"x": 1.0, "y": 2.0}
        assert jaccard(a, b) == pytest.approx((1 + 1) / (3 + 2))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            jaccard({"a": -1.0}, {"a": 1.0})

    @given(nonneg, nonneg)
    @settings(max_examples=60)
    def test_bounds(self, a, b):
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0

    @given(nonneg, nonneg)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert jaccard(a, b) == pytest.approx(jaccard(b, a))

    @given(nonneg)
    @settings(max_examples=60)
    def test_self_similarity(self, a):
        assert jaccard(a, a) == pytest.approx(1.0)

    @given(nonneg, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40)
    def test_scale_sensitivity(self, a, factor):
        """Scaling one argument reduces similarity unless factor == 1."""
        # subnormal values underflow when scaled, breaking the exact
        # expected ratio below
        a = {k: v for k, v in a.items() if v > 1e-150}
        if not a:
            return
        scaled = {k: v * factor for k, v in a.items()}
        expected = min(factor, 1 / factor)
        assert jaccard(a, scaled) == pytest.approx(expected, rel=1e-6)


def _profile(values, time_metrics=("comp", "wait")):
    p = CubeProfile(SystemTree([(0, 0)]), time_metrics)
    for (metric, path), v in values.items():
        p.add(metric, path, 0, v)
    return p


class TestProfileJaccard:
    def test_identical_profiles(self):
        p = _profile({("comp", ("main",)): 5.0, ("wait", ("main",)): 1.0})
        assert jaccard_metric_callpath(p, p) == pytest.approx(1.0)

    def test_normalisation_removes_units(self):
        """Profiles measured in different units but identical shape score 1."""
        a = _profile({("comp", ("f",)): 5.0, ("comp", ("g",)): 5.0})
        b = _profile({("comp", ("f",)): 500.0, ("comp", ("g",)): 500.0})
        assert jaccard_metric_callpath(a, b) == pytest.approx(1.0)

    def test_different_attribution_scores_low(self):
        a = _profile({("comp", ("f",)): 10.0})
        b = _profile({("comp", ("g",)): 10.0})
        assert jaccard_metric_callpath(a, b) == pytest.approx(0.0)

    def test_callpath_score_for_metric(self):
        a = _profile({("comp", ("f",)): 8.0, ("comp", ("g",)): 2.0})
        b = _profile({("comp", ("f",)): 2.0, ("comp", ("g",)): 8.0})
        # J_C^comp: the call-path shares of one metric (%M) compared
        j = jaccard(a.metric_selection_percent("comp"),
                    b.metric_selection_percent("comp"))
        assert j == pytest.approx((20 + 20) / (80 + 80))

    def test_min_pairwise_single(self):
        p = _profile({("comp", ("f",)): 1.0})
        assert min_pairwise_jaccard([p]) == 1.0

    def test_min_pairwise_detects_outlier(self):
        a = _profile({("comp", ("f",)): 1.0})
        b = _profile({("comp", ("f",)): 1.0})
        c = _profile({("comp", ("g",)): 1.0})
        assert min_pairwise_jaccard([a, b]) == pytest.approx(1.0)
        assert min_pairwise_jaccard([a, b, c]) == pytest.approx(0.0)


#: a score computed in a fresh interpreter: a synthetic pair of mappings
#: whose float sums depend on the summation order, and MiniFE's tiny
#: configuration under ltbb against tsc
_SCORE_SCRIPT = """
import random
from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.scoring import jaccard, jaccard_metric_callpath
from repro.sim import CostModel, Engine

rng = random.Random(11)
a = {("metric", f"path/{i}"): rng.random() * 10 ** rng.randint(-6, 2)
     for i in range(300)}
b = {k: v * rng.uniform(0.5, 1.5) for k, v in a.items() if rng.random() < 0.8}
b.update({("metric", f"other/{i}"): rng.random() for i in range(50)})

def profile(mode):
    cluster = jureca_dc(1)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=3))
    trace = Engine(MiniFE(MiniFEConfig.tiny()), cluster, cost,
                   measurement=Measurement(mode)).run().trace
    return analyze_trace(timestamp_trace(trace, mode)).normalized()

print(jaccard(a, b).hex(),
      jaccard_metric_callpath(profile("ltbb"), profile("tsc")).hex())
"""


def test_scores_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _SCORE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs

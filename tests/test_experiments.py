"""Tests for the experiment harness on a tiny injected configuration."""

import numpy as np
import pytest

from repro.experiments import configs as C
from repro.experiments import reports
from repro.experiments.configs import ExperimentSpec
from repro.experiments.workflow import run_experiment
from repro.measure import MODES


@pytest.fixture
def tiny_experiment(monkeypatch, tmp_path):
    """Register a fast throwaway experiment and isolate the cache dir."""

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3, init_segments=2))

    spec = ExperimentSpec("Tiny-1", make, nodes=1, reps_ref=2, reps_noisy=2,
                          phases=("init", "solve"))
    monkeypatch.setitem(C.EXPERIMENTS, "Tiny-1", spec)
    import repro.experiments.workflow as W

    monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
    return "Tiny-1"


class TestWorkflow:
    def test_full_workflow(self, tiny_experiment):
        res = run_experiment(tiny_experiment, seed=0, use_cache=False)
        assert len(res.ref_runtimes) == 2
        assert set(res.runtimes) == set(MODES)
        assert len(res.runtimes["tsc"]) == 2  # noisy mode repeated
        assert len(res.runtimes["ltbb"]) == 1  # deterministic mode once
        for mode in MODES:
            assert res.mean_profile(mode).total_time() == pytest.approx(1.0)

    def test_overhead_computation(self, tiny_experiment):
        res = run_experiment(tiny_experiment, seed=0, use_cache=False)
        ov = res.overhead("lthwctr", "init")
        manual = 100 * (np.mean(res.phases["lthwctr"]["init"])
                        / np.mean(res.ref_phases["init"]) - 1)
        assert ov == pytest.approx(manual)

    def test_cache_roundtrip(self, tiny_experiment):
        first = run_experiment(tiny_experiment, seed=0, use_cache=True)
        second = run_experiment(tiny_experiment, seed=0, use_cache=True)
        assert second.ref_runtimes == first.ref_runtimes
        assert second.runtimes == first.runtimes
        a = first.mean_profile("ltbb")
        b = second.mean_profile("ltbb")
        assert a.total_time() == pytest.approx(b.total_time())
        assert a.by_callpath("comp") == pytest.approx(b.by_callpath("comp"))

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            C.make_app("NoSuchApp")

    def test_experiment_names_order(self):
        names = C.experiment_names()
        assert names[0] == "MiniFE-1"
        assert "TeaLeaf-4" in names
        assert len(names) == 8


class TestReportHelpers:
    def test_callpath_shares_buckets(self, tiny_experiment):
        res = run_experiment(tiny_experiment, seed=0, use_cache=False)
        from repro.analysis import COMP

        shares = reports.callpath_shares(
            res.mean_profile("tsc"), COMP, reports.MINIFE_COMP_BUCKETS
        )
        assert set(shares) == set(reports.MINIFE_COMP_BUCKETS) | {"other"}
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.5)

    def test_fig1_needs_no_simulation(self):
        _data, text = reports.fig1_metric_tree()
        assert "wait_nxn" in text


class TestEffortConstantFit:
    def test_minife_fit_is_pinned(self):
        # The paper's X/Y fitting procedure (Sec. II-A) re-timestamps and
        # re-analyzes one trace per mode; the float bits pin it to the
        # values it returns with the per-event Lamport walk's timestamps
        # and total times summed in the profile order.
        from repro.experiments import fit_omp_effort_constants

        got = fit_omp_effort_constants("MiniFE-1", seed=0, iterations=3)
        assert {k: v.hex() for k, v in got.items()} == {
            "x_bb": "0x1.1758ae0551ec5p+8",
            "y_stmt": "0x1.a9b974dff2659p+9",
            "target_omp_fraction": "0x1.285c1ef5e9ec7p-17",
            "x_omp_fraction": "0x1.258bdd3488319p-17",
            "y_omp_fraction": "0x1.28780d74ae505p-17",
        }

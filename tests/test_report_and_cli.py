"""Tests for the text report renderer and the CLI tools."""

import pytest

from repro.analysis import analyze_trace, load_balance_summary, render_report, top_callpaths
from repro.clocks import timestamp_trace
from repro.cli import main_analyze, main_report, main_run, main_score
from repro.cube import CubeProfile, SystemTree
from repro.machine.noise import NoiseModel, ZeroNoise
from repro.measure import Measurement
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
)

K = KernelSpec("k", flops_per_unit=1e6, omp_iters_per_unit=1.0, bb_per_unit=5,
               stmt_per_unit=15, instr_per_unit=40, memory_scope="none")


class _App(Program):
    name = "cli-app"
    n_ranks = 2
    threads_per_rank = 2

    def make_rank(self, ctx):
        yield Enter("main")
        yield Enter("work")
        yield Compute(K, 50 * (1 + ctx.rank))
        yield ParallelFor("loop", K, total_units=100)
        yield Leave("work")
        yield Allreduce()
        yield Leave("main")


@pytest.fixture
def profile(cluster):
    cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
    res = Engine(_App(), cluster, cost, measurement=Measurement("tsc")).run()
    return analyze_trace(timestamp_trace(res.trace, "tsc"))


class TestReport:
    def test_render_contains_sections(self, profile):
        text = render_report(profile)
        assert "Analysis report" in text
        assert "%T" in text and "%M" in text
        assert "wait_nxn" in text
        assert "computation balance" in text

    def test_top_callpaths_sorted(self, profile):
        rows = top_callpaths(profile, "comp", limit=3)
        assert len(rows) >= 1
        values = [v for _p, v in rows]
        assert values == sorted(values, reverse=True)
        assert "work" in rows[0][0] or "loop" in rows[0][0]

    def test_load_balance_detects_imbalance(self, profile):
        bal = load_balance_summary(profile)
        assert bal["imbalance"] > 0.0  # rank 1 does twice the serial work

    def test_load_balance_empty_metric(self, profile):
        bal = load_balance_summary(profile, metric="no_such_metric")
        assert bal == {"max": 0.0, "mean": 0.0, "imbalance": 0.0}

    def test_balanced_profile_zero_imbalance(self):
        p = CubeProfile(SystemTree([(0, 0), (1, 0)]), ("comp",))
        p.add("comp", ("f",), 0, 2.0)
        p.add("comp", ("f",), 1, 2.0)
        assert load_balance_summary(p)["imbalance"] == pytest.approx(0.0)


class TestCli:
    def test_run_and_analyze_roundtrip(self, tmp_path, capsys, monkeypatch):
        # register a tiny experiment so repro-run stays fast
        import repro.experiments.configs as C
        from repro.experiments.configs import ExperimentSpec

        def make():
            return _App()

        monkeypatch.setitem(C.EXPERIMENTS, "CLI-Tiny", ExperimentSpec("CLI-Tiny", make))
        trace_path = tmp_path / "t.trace.json.gz"
        assert main_run(["CLI-Tiny", "--mode", "ltbb", "-o", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and trace_path.exists()

        profile_path = tmp_path / "p.json.gz"
        assert main_analyze([str(trace_path), "-o", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "comp" in out and profile_path.exists()

        # --report mode
        assert main_analyze([str(trace_path), "-o", str(profile_path), "--report"]) == 0
        assert "Analysis report" in capsys.readouterr().out

        # score a profile against itself
        assert main_score([str(profile_path), str(profile_path)]) == 0
        assert "J_(M,C) = 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["run.npz", "run.json.gz", "run.shards"])
    def test_analyze_keeps_its_input(self, cluster, tmp_path, capsys, name):
        from repro.cube import read_profile
        from repro.measure import read_trace, trace_archive_bytes, write_trace

        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        trace = Engine(_App(), cluster, cost, measurement=Measurement("tsc")).run().trace
        want = trace_archive_bytes(trace)
        path = tmp_path / name
        write_trace(trace, path)
        assert main_analyze([str(path)]) == 0
        assert trace_archive_bytes(read_trace(path)) == want
        assert read_profile(tmp_path / "run.profile.json.gz").mode == "tsc"
        with pytest.raises(SystemExit):
            main_analyze([str(path), "-o", str(path)])
        assert trace_archive_bytes(read_trace(path)) == want
        capsys.readouterr()

    def test_report_fig1(self, capsys):
        assert main_report(["fig1"]) == 0
        assert "wait_nxn" in capsys.readouterr().out

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main_run(["NoSuchExperiment"])

    def test_run_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            main_run(["MiniFE-1", "--mode", "sundial"])

    def test_analyze_corrupt_archive_is_usage_error(self, tmp_path, capsys):
        import gzip

        bad = tmp_path / "bad.trace.json.gz"
        bad.write_bytes(gzip.compress(b"garbage"))
        with pytest.raises(SystemExit) as exc:
            main_analyze([str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro-analyze: error: ")
        assert str(bad) in err[-1]
        assert not (tmp_path / "bad.profile.json.gz").exists()

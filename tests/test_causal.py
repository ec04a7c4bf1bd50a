"""Causal profiler: DAG clocks, critical path, blame, alignment, what-if.

The contracts under test (docs/causal.md):

* :func:`repro.causal.build_dag` builds its nodes from the replay plan's
  records and takes every clock from one run of the plan; it equals the
  per-event DAG walker (``tests/oracles.walker_build_dag``) node for node,
  and its final clocks equal the per-event Lamport walk's final counters,
  under every mode, for raw and sharded traces alike.
* Critical path and blame profile are **bit-identical across noise
  seeds** under the deterministic logical modes, on all three miniapps --
  the paper's resilience claim extended to causal structure.
* The blame profile is conservative: the blame metrics sum exactly to
  the total attributed wait.
* Nodes, blame and the critical-path table carry the analysis plan's
  call paths: every blamed path is a path of the wait-state profile of
  the same trace and mode, only the sink sits at ``<program>``, a team
  begin sits at its fork's frame and an OpenMP barrier completion under
  its ``omp_ibarrier_*`` frame.
* What-if replay (power-of-two factors) matches a full engine
  re-simulation bit for bit, and ``drop_region`` of an injected delay
  reproduces the delay-free program's clocks exactly; scaling a region
  that encloses a parallel loop scales its worker threads too, as a run
  with the region's units scaled does.
* The aligner lands shared markers exactly; aligned Chrome exports carry
  the required keys and stream from ``.shards`` archives.
"""

import json

import pytest

from repro import obs
from repro.analysis import analyze_trace
from repro.causal import (
    BLAME_LEAVES,
    ClockAligner,
    blame_profile,
    build_dag,
    critical_path_table,
    run_whatif,
    scale_rank,
    scale_region,
    validate_whatif,
)
from repro.causal.whatif import REPLAYABLE_MODES
from repro.clocks import timestamp_trace
from repro.clocks.streaming import stream_clock_replay
from repro.experiments.delayprop import DelayRing, run_delay_propagation
from repro.machine import small_test_cluster
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import MODES, X_BB_PER_OMP_CALL, Y_STMT_PER_OMP_CALL
from repro.measure.shards import open_sharded_trace, write_sharded_trace
from repro.miniapps import (
    Lulesh,
    LuleshConfig,
    MiniFE,
    MiniFEConfig,
    TeaLeaf,
    TeaLeafConfig,
)
from repro.obs import CHROME_REQUIRED_KEYS, ObsSession
from repro.sim import (
    Allreduce,
    CostModel,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    ParallelFor,
    Program,
)
from repro.sim.events import FORK, OBAR_LEAVE, TEAM_BEGIN
from tests.oracles import dag_nodes, lamport_replay, walker_build_dag

LOGICAL_MODES = REPLAYABLE_MODES  # lt1, ltloop, ltbb, ltstmt


def _apps():
    return {
        "minife": lambda: MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=3)),
        "lulesh": lambda: Lulesh(LuleshConfig.tiny(steps=2)),
        "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny()),
    }


def _run_trace(make_app, mode="tsc", seed=1):
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(make_app(), cluster, cost,
                  measurement=Measurement(mode)).run().trace


@pytest.fixture(scope="module")
def minife_trace():
    return _run_trace(_apps()["minife"], "tsc", seed=1)


@pytest.fixture(scope="module")
def seed_traces():
    """app name -> {seed: trace} (tsc recording, two noise seeds)."""
    return {name: {seed: _run_trace(make, "tsc", seed) for seed in (1, 2)}
            for name, make in _apps().items()}


def _blame_cells(prof):
    """Canonical {(metric, path, loc): value} view of a blame profile."""
    return {
        (metric, prof.calltree.path(cpid), loc): value
        for metric in prof.metrics
        for (cpid, loc), value in prof.cells(metric).items()
    }


class TestDagClocks:
    @pytest.mark.parametrize("mode", MODES)
    def test_final_clocks_match_stream_replay(self, minife_trace, mode):
        ref = stream_clock_replay(minife_trace, mode, counter_seed=3)
        dag = build_dag(minife_trace, mode, counter_seed=3)
        assert dag.final == ref.final
        assert dag.n_events == sum(ref.n_events)
        _times, final = lamport_replay(minife_trace, mode, counter_seed=3)
        assert dag.final == final

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
    def test_nodes_match_walker(self, seed_traces, app, mode):
        trace = seed_traces[app][1]
        dag = build_dag(trace, mode, counter_seed=5)
        assert dag_nodes(dag) == dag_nodes(
            walker_build_dag(trace, mode, counter_seed=5))

    def test_critical_path_ends_at_sink(self, minife_trace):
        dag = build_dag(minife_trace, "ltbb")
        path = dag.critical_path()
        assert path[-1] == dag.sink()
        assert dag.clock[path[-1]] == dag.makespan
        # clocks never decrease along the path
        clocks = [dag.clock[nid] for nid in path]
        assert all(a <= b for a, b in zip(clocks, clocks[1:]))

    def test_critical_path_table_rows(self, minife_trace):
        dag = build_dag(minife_trace, "ltbb")
        rows = critical_path_table(dag, top=5)
        assert 0 < len(rows) <= 5
        for path, hops, work, wait in rows:
            assert isinstance(path, str) and hops > 0
            assert work >= 0.0 and wait >= 0.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
    def test_critical_path_work_counts_program_edges_once(self, seed_traces,
                                                          app, mode):
        # the work column sums the program edges the path takes; a node
        # the path enters by its remote edge adds none (its program edge
        # is off the path), so the column is at most the makespan
        dag = build_dag(seed_traces[app][1], mode, counter_seed=5)
        rows = critical_path_table(dag, top=10**6)
        taken = [nid for nid in dag.critical_path()
                 if not dag.remote_critical[nid]]
        assert sum(r[1] for r in rows) == len(dag.critical_path())
        assert sum(r[2] for r in rows) == pytest.approx(
            sum(dag.work[nid] for nid in taken), rel=1e-12)
        assert sum(r[2] for r in rows) <= dag.makespan * (1 + 1e-12)

    def test_sharded_trace_parity(self, minife_trace, tmp_path):
        archive = tmp_path / "trace.shards"
        write_sharded_trace(minife_trace, archive, shard_events=256)
        d_raw = build_dag(minife_trace, "ltbb")
        d_shards = build_dag(open_sharded_trace(archive), "ltbb")
        assert d_raw.final == d_shards.final
        # the walker streams the archive shard by shard
        assert dag_nodes(d_shards) == dag_nodes(
            walker_build_dag(open_sharded_trace(archive), "ltbb"))
        assert (d_raw.critical_path_fingerprint()
                == d_shards.critical_path_fingerprint())
        assert _blame_cells(blame_profile(d_raw)) == _blame_cells(
            blame_profile(d_shards))


class TestBlame:
    @pytest.mark.parametrize("mode", ["tsc", "ltbb"])
    def test_blame_sums_to_total_wait(self, minife_trace, mode):
        dag = build_dag(minife_trace, mode)
        prof = blame_profile(dag)
        total_blame = sum(
            sum(prof.cells(metric).values()) for metric in BLAME_LEAVES
        )
        assert total_blame == pytest.approx(dag.total_wait(), rel=1e-9)

    @pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
    @pytest.mark.parametrize("mode", LOGICAL_MODES)
    def test_invariant_across_noise_seeds(self, seed_traces, app, mode):
        """Critical path and blame are bit-identical across noise seeds."""
        dags = {seed: build_dag(trace, mode)
                for seed, trace in seed_traces[app].items()}
        fps = {dag.critical_path_fingerprint() for dag in dags.values()}
        assert len(fps) == 1
        finals = {tuple(dag.final) for dag in dags.values()}
        assert len(finals) == 1
        blames = [_blame_cells(blame_profile(dag)) for dag in dags.values()]
        assert blames[0] == blames[1]

    def test_tsc_differs_across_seeds(self, seed_traces):
        dags = {seed: build_dag(trace, "tsc")
                for seed, trace in seed_traces["minife"].items()}
        finals = {tuple(dag.final) for dag in dags.values()}
        assert len(finals) == 2


class TestCallPaths:
    """The DAG reads the analysis plan's call paths (docs/causal.md)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", ["lulesh", "tealeaf"])
    def test_blamed_paths_are_profile_paths(self, seed_traces, app, mode):
        trace = seed_traces[app][1]
        blame = blame_profile(build_dag(trace, mode, counter_seed=5))
        profile = analyze_trace(timestamp_trace(trace, mode, counter_seed=5))
        blamed = {path for (_m, path, _l) in _blame_cells(blame)}
        assert len(blamed) > 2
        assert blamed - {("<source>",), ("<program>",)} <= set(
            profile.calltree.paths())

    @pytest.mark.parametrize("mode", ["tsc", "ltbb"])
    @pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
    def test_only_the_sink_sits_at_the_program_root(self, seed_traces, app,
                                                    mode):
        dag = build_dag(seed_traces[app][1], mode)
        rows = [r for r in critical_path_table(dag, top=10**6)
                if r[0] == "<program>"]
        assert [hops for _p, hops, _wk, _wt in rows] == [1]
        assert dag.callpath(dag.sink()) == ("<program>",)

    @pytest.mark.parametrize("app", ["minife", "lulesh", "tealeaf"])
    def test_workers_sit_under_their_fork_and_barrier_frames(self, seed_traces,
                                                             app):
        dag = build_dag(seed_traces[app][1], "lt1")
        names = dag.region_names
        teams = bars = 0
        for k in range(dag.n_nodes):
            path = dag.callpaths[dag.cpid[k]]
            if dag.etype[k] == TEAM_BEGIN:
                fork = dag.pred_remote[k]
                assert dag.etype[fork] == FORK
                assert path == dag.callpaths[dag.cpid[fork]]
                teams += 1
            elif dag.etype[k] == OBAR_LEAVE:
                assert path[-1] == names[dag.region[k]]
                assert path[-1].startswith("omp_ibarrier")
                bars += 1
        assert teams and bars


K_LOOP = KernelSpec("k", flops_per_unit=1e5, bytes_per_unit=1e4,
                    omp_iters_per_unit=1.0, bb_per_unit=4.0,
                    stmt_per_unit=12.0, instr_per_unit=30.0)


class _LoopInRegion(Program):
    """Two ranks of four threads; region ``r`` holds one parallel loop
    of ``units`` x (rank + 1) units, split evenly over the threads."""

    name = "loop-in-region"
    n_ranks = 2
    threads_per_rank = 4

    def __init__(self, units):
        self.units = units

    def make_rank(self, ctx):
        yield Enter("main")
        yield Enter("r")
        yield ParallelFor("loop", K_LOOP, total_units=self.units * (ctx.rank + 1))
        yield Leave("r")
        yield Allreduce()
        yield Leave("main")


def _loop_trace(units):
    cluster = small_test_cluster(cores_per_numa=4, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=1))
    return Engine(_LoopInRegion(units), cluster, cost,
                  measurement=Measurement("ltloop")).run().trace


class TestWhatIf:
    def test_empty_edit_is_identity(self, minife_trace):
        res = run_whatif(minife_trace, [], "ltbb")
        assert res.final == res.baseline_final

    def test_rejects_physical_modes(self, minife_trace):
        with pytest.raises(ValueError):
            run_whatif(minife_trace, [], "tsc")
        with pytest.raises(ValueError):
            run_whatif(minife_trace, [], "lthwctr")

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_validates_against_engine_rerun(self, minife_trace, factor):
        edits = [scale_region("cg_spmv", factor), scale_rank(0, 2.0)]
        res = run_whatif(minife_trace, edits, "ltbb")
        v = validate_whatif(
            res, lambda: _run_trace(_apps()["minife"], "tsc", seed=1))
        assert v.ok, f"max |diff| {v.max_abs_diff}"
        assert v.max_abs_diff == 0.0

    def test_scaling_up_slows_down(self, minife_trace):
        res = run_whatif(minife_trace, [scale_region("matvec", 2.0)], "ltbb")
        assert res.makespan > res.baseline_makespan
        assert res.speedup < 1.0

    def test_region_edit_scales_its_worker_threads(self):
        """Doubling ``r`` predicts the run whose loop in ``r`` does twice
        the units: the workers' share, under the fork's frame, doubles
        too."""
        res = run_whatif(_loop_trace(40), [scale_region("r", 2.0)], "ltloop")
        doubled = run_whatif(_loop_trace(80), [], "ltloop")
        assert [f.hex() for f in res.final] == [
            f.hex() for f in doubled.baseline_final]
        assert res.final != res.baseline_final
        v = validate_whatif(res, lambda: _loop_trace(40))
        assert v.ok and v.max_abs_diff == 0.0

    @pytest.mark.parametrize("mode", LOGICAL_MODES)
    def test_scales_multiply_in_the_oracles_order(self, mode):
        """Non-power-of-two factors round, so the per-(rank, path) scales
        must multiply as the scalar oracle does: the rank factor, the
        targets on the path in edit order, a burst's own region last."""
        from repro.causal.whatif import _edited_stream_finals

        trace = _run_trace(_apps()["minife"], "tsc", seed=1)
        edits = [scale_region("operator()", 1.7), scale_region("init", 2.9),
                 scale_rank(1, 1.3), scale_region("assemble_FE_data", 0.6, rank=0),
                 scale_region("omp_ibarrier_matvec_loop", 3.1)]
        res = run_whatif(trace, edits, mode)
        oracle = _edited_stream_finals(trace, edits, mode, X_BB_PER_OMP_CALL,
                                       Y_STMT_PER_OMP_CALL)
        assert [f.hex() for f in res.final] == [f.hex() for f in oracle]

    def test_duplicate_edits_compose(self, minife_trace):
        once = run_whatif(minife_trace, [scale_region("matvec", 4.0)], "ltbb")
        twice = run_whatif(
            minife_trace,
            [scale_region("matvec", 2.0), scale_region("matvec", 2.0)],
            "ltbb")
        assert once.final == twice.final


class TestDelayPropagation:
    def test_drop_region_matches_delay_free_run(self):
        """The what-if ground truth: dropping the injected delay
        reproduces the delay-free program's clocks bit for bit."""
        result = run_delay_propagation(
            "ltbb", seeds=(1, 2), iters=4, delay_units=100.0)
        assert result.whatif_ok is not None
        assert all(result.whatif_ok.values())
        assert result.seed_invariant

    def test_wavefront_propagates_one_hop_per_iteration(self):
        result = run_delay_propagation(
            "ltbb", seeds=(1,), iters=6, delay_rank=0, delay_iter=1,
            delay_units=100.0, check_whatif=False)
        arrival = result.wavefront()
        # ranks 0 and 1 see it at the delay iteration, then +1 per hop
        assert arrival[0] == 1 and arrival[1] == 1
        assert arrival[2] == 2 and arrival[3] == 3

    def test_program_is_own_baseline_at_zero_units(self):
        ring = DelayRing(iters=3, delay_units=0.0)
        assert ring.n_ranks == 4 and ring.phases == ("iterate",)


class TestAligner:
    def test_markers_land_exactly(self, seed_traces):
        ref, other = seed_traces["minife"][1], seed_traces["minife"][2]
        aligner = ClockAligner(ref)
        assert aligner.n_markers() > 0
        assert aligner.raw_skew(other) > 0.0
        aligned = aligner.align(other, label="run2")
        assert aligner.residual_skew(aligned) < 1e-12

    def test_chrome_events_have_required_keys(self, seed_traces):
        ref = seed_traces["minife"][1]
        events = list(obs.trace_chrome_events(ref, label="ref"))
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for ev in spans:
            for key in CHROME_REQUIRED_KEYS:
                assert key in ev

    def test_streamed_overlay_export(self, seed_traces, tmp_path):
        ref, other = seed_traces["minife"][1], seed_traces["minife"][2]
        aligned = ClockAligner(ref).align(other, label="run2")
        out = tmp_path / "aligned.chrome.json"
        n = obs.write_trace_chrome(out, [
            obs.trace_chrome_events(ref, label="ref"),
            obs.trace_chrome_events(aligned.trace, map_t=aligned.map_t,
                                    pid_offset=100, label="run2"),
        ])
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == n
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert any(p >= 100 for p in pids) and any(p < 100 for p in pids)


class TestObservabilitySatellites:
    def test_fastpath_and_drain_metrics(self):
        with obs.scoped(ObsSession()) as session:
            _run_trace(_apps()["minife"], "tsc", seed=1)
            doc = session.snapshot()
        counters = {row["name"] for row in doc["metrics"]["counters"]}
        assert "sim.fastpath.site_hits" in counters
        assert "sim.fastpath.site_misses" in counters
        hists = {row["name"]: row for row in doc["metrics"]["histograms"]}
        assert "sim.drain_batch_size" in hists
        assert hists["sim.drain_batch_size"]["count"] > 0

    def test_shards_peak_gauge(self, minife_trace, tmp_path):
        archive = tmp_path / "trace.shards"
        write_sharded_trace(minife_trace, archive, shard_events=256)
        with obs.scoped(ObsSession()) as session:
            sharded = open_sharded_trace(archive)
            for _ in sharded.merged():
                pass
            doc = session.snapshot()
        gauges = {row["name"]: row["value"]
                  for row in doc["metrics"]["gauges"]}
        assert gauges.get("io.shards.peak_resident_rows") == float(
            sharded.stats.peak_resident_rows)
        assert sharded.stats.peak_resident_rows <= 256


class TestCli:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.measure import write_trace

        path = tmp_path_factory.mktemp("causal") / "mini.trace.json.gz"
        write_trace(_run_trace(_apps()["minife"], "tsc", seed=1), path)
        return str(path)

    def test_blame_subcommand(self, trace_path, tmp_path, capsys):
        from repro.cli import main_causal

        report = tmp_path / "blame.json"
        profile = tmp_path / "blame.cube.json.gz"
        rc = main_causal(["blame", trace_path, "--mode", "ltbb",
                          "-o", str(report), "--profile", str(profile)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["mode"] == "ltbb" and doc["critical_path_len"] > 0
        from repro.cube import read_profile

        prof = read_profile(profile)
        assert prof.meta.get("kind") == "causal_blame"

    def test_whatif_subcommand(self, trace_path, tmp_path, capsys):
        from repro.cli import main_causal

        out = tmp_path / "whatif.json"
        rc = main_causal(["whatif", trace_path, "--mode", "ltbb",
                          "--scale", "matvec=2.0", "--drop", "waxpby",
                          "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "ltbb" and len(doc["edits"]) == 2

    def test_whatif_requires_edits(self, trace_path):
        from repro.cli import main_causal

        with pytest.raises(SystemExit):
            main_causal(["whatif", trace_path, "--mode", "ltbb"])

    def test_align_subcommand(self, trace_path, tmp_path, capsys):
        from repro.cli import main_causal
        from repro.measure import write_trace

        other = tmp_path / "other.trace.json.gz"
        write_trace(_run_trace(_apps()["minife"], "tsc", seed=2), other)
        out = tmp_path / "aligned.chrome.json"
        rc = main_causal(["align", trace_path, str(other), "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_obs_export_streams_shards(self, minife_trace, tmp_path, capsys):
        from repro.cli import main_obs

        archive = tmp_path / "trace.shards"
        write_sharded_trace(minife_trace, archive, shard_events=256)
        out = tmp_path / "trace.chrome.json"
        rc = main_obs(["export", str(archive), "--chrome", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        for ev in spans[:50]:
            for key in CHROME_REQUIRED_KEYS:
                assert key in ev

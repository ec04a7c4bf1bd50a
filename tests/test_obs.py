"""Tests for :mod:`repro.obs` and its wiring through the pipeline.

Covers the issue's acceptance points: disabled observability is free in
the engine hot loop (null singletons, no allocations), span
nesting/Chrome export round-trips, provenance manifests hash
deterministically, per-worker metric aggregation equals the serial
totals, worker failures surface their original traceback with the task
tag, trace archives embed manifests in both formats, and the
``repro-obs`` CLI exit codes.
"""

import json
import pickle
import tracemalloc

import pytest

from repro import obs
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec


@pytest.fixture(autouse=True)
def _obs_disabled(monkeypatch):
    """Isolate every test from the process-global active session."""
    import repro.obs.session as S

    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.setattr(S, "_ACTIVE", None)
    monkeypatch.setattr(S, "_ENV_CHECKED", True)


def _tiny_spec(name):
    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3,
                                        init_segments=2))

    return ExperimentSpec(name, make, nodes=1, reps_ref=1, reps_noisy=1,
                          phases=("init", "solve"))


@pytest.fixture
def tiny_obs_experiment(monkeypatch, tmp_path):
    monkeypatch.setitem(C.EXPERIMENTS, "Tiny-Obs", _tiny_spec("Tiny-Obs"))
    monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
    return "Tiny-Obs"


# ---------------------------------------------------------------------------
# disabled = free
# ---------------------------------------------------------------------------


class TestDisabledIsFree:
    def test_helpers_return_shared_null_singletons(self):
        assert obs.counter("sim.scheduler_steps") is obs.NULL_COUNTER
        assert obs.gauge("workflow.workers") is obs.NULL_GAUGE
        assert obs.histogram("sim.message_bytes") is obs.NULL_HISTOGRAM
        assert obs.span("replay", mode="ltbb") is obs.NULL_SPAN

    def test_engine_binds_null_metrics_when_disabled(self, cluster, quiet_cost):
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine

        eng = Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                     quiet_cost)
        assert eng._c_steps is obs.NULL_COUNTER
        assert eng._h_msg_bytes is obs.NULL_HISTOGRAM

    def test_null_metric_hot_loop_allocates_nothing(self):
        c = obs.counter("x")
        h = obs.histogram("y")
        g = obs.gauge("z")
        c.inc()  # warm up any lazy interpreter state outside the window
        h.observe(1.0)
        g.set(1.0)
        tracemalloc.start()
        before, _peak = tracemalloc.get_traced_memory()
        for i in range(10_000):
            c.inc()
            h.observe(3.5)
            g.set(2.0)
        i = None  # release the loop's last (traced) int before measuring
        after, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before == 0
        assert c.value == 0.0  # null counters never accumulate

    def test_null_span_is_reusable_noop(self):
        sp = obs.span("anything")
        with sp as inner:
            assert inner is sp
        assert sp.duration == 0.0


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_identity_and_label_keying(self):
        r = obs.MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a", mode="ltbb") is not r.counter("a", mode="tsc")
        r.counter("a", mode="ltbb").inc(3)
        assert r.value("a", mode="ltbb") == 3.0
        assert r.value("a", mode="lt1") is None

    def test_totals_sum_over_label_sets(self):
        r = obs.MetricsRegistry()
        r.counter("noise.injections", kind="cpu").inc(2)
        r.counter("noise.injections", kind="os").inc(5)
        r.counter("other").inc()
        assert r.totals("noise.") == {"noise.injections": 7.0}

    def test_histogram_buckets(self):
        h = obs.Histogram(bounds=(10.0, 100.0))
        for x in (1, 10, 11, 1000):
            h.observe(x)
        assert h.counts == [2, 1, 1]
        assert h.count == 4 and h.sum == 1022.0

    def test_merge_adds_counters_and_histograms(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only_b", k="v").inc(4)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(2.5)
        a.merge(b.snapshot())
        assert a.value("c") == 3.0
        assert a.value("only_b", k="v") == 4.0
        assert a.value("g") == 9.0  # gauges: last write wins
        assert a.histogram("h", bounds=(1.0,)).counts == [1, 1]

    def test_merge_rejects_bucket_mismatch(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(5.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(b.snapshot())

    def test_snapshot_json_roundtrip(self):
        r = obs.MetricsRegistry()
        r.counter("c", mode="ltbb").inc(2)
        r.histogram("h").observe(42.0)
        doc = json.loads(json.dumps(r.snapshot()))
        fresh = obs.MetricsRegistry()
        fresh.merge(doc)
        assert fresh.value("c", mode="ltbb") == 2.0


# ---------------------------------------------------------------------------
# spans + Chrome export
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_depth_and_parent(self):
        s = obs.ObsSession()
        with s.span("outer"):
            with s.span("inner", mode="ltbb"):
                pass
        outer, inner = s.spans.records
        assert (outer.depth, outer.parent) == (0, -1)
        assert (inner.depth, inner.parent) == (1, 0)
        assert inner.t0 >= outer.t0 and inner.t1 <= outer.t1
        assert inner.args == {"mode": "ltbb"}

    def test_merge_rebases_parent_links(self):
        parent, worker = obs.ObsSession(), obs.ObsSession()
        with parent.span("local"):
            pass
        with worker.span("w_outer"):
            with worker.span("w_inner"):
                pass
        parent.spans.merge(worker.spans.snapshot())
        names = [r.name for r in parent.spans.records]
        assert names == ["local", "w_outer", "w_inner"]
        assert parent.spans.records[2].parent == 1  # rebased past "local"

    def test_chrome_export_required_keys_and_units(self):
        s = obs.ObsSession()
        with s.span("replay", mode="ltbb"):
            with s.span("replay.fill"):
                pass
        s.counter("sim.runs").inc()
        doc = json.loads(json.dumps(s.snapshot()))  # archive round-trip
        chrome = obs.to_chrome(doc)
        events = chrome["traceEvents"]
        assert len(events) == 3  # two spans + one counter sample
        for ev in events:
            for key in obs.CHROME_REQUIRED_KEYS:
                assert key in ev
        span_evs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in span_evs} == {"replay", "replay.fill"}
        outer = next(e for e in span_evs if e["name"] == "replay")
        assert outer["dur"] == pytest.approx(
            (doc["spans"][0]["t1"] - doc["spans"][0]["t0"]) * 1e6)
        counter_evs = [e for e in events if e["ph"] == "C"]
        assert counter_evs[0]["args"]["value"] == 1.0

    def test_archive_save_load_roundtrip(self, tmp_path):
        s = obs.ObsSession()
        with s.span("phase"):
            s.counter("c").inc(2)
        path = tmp_path / "obs.json"
        s.save(path)
        doc = obs.load_archive(path)
        assert doc["format"] == obs.ARCHIVE_FORMAT
        assert doc["spans"][0]["name"] == "phase"
        with pytest.raises(ValueError, match="archive"):
            bad = tmp_path / "bad.json"
            bad.write_text("{}")
            obs.load_archive(bad)


# ---------------------------------------------------------------------------
# provenance manifests
# ---------------------------------------------------------------------------


class TestProvenance:
    CONFIG = {"experiment": "X", "seed": 3, "modes": ["tsc", "lt1"]}

    def test_hash_deterministic_and_order_independent(self):
        a = obs.build_manifest("experiment", self.CONFIG)
        b = obs.build_manifest(
            "experiment",
            {"modes": ["tsc", "lt1"], "seed": 3, "experiment": "X"},
        )
        assert a["hash"] == b["hash"]
        assert a["format"] == obs.MANIFEST_FORMAT

    def test_tuples_normalise_like_lists(self):
        a = obs.build_manifest("k", {"modes": ("tsc", "lt1")})
        b = obs.build_manifest("k", {"modes": ["tsc", "lt1"]})
        assert a["hash"] == b["hash"]

    def test_environment_is_hash_exempt(self):
        a = obs.build_manifest("k", self.CONFIG,
                               environment={"workers": 1})
        b = obs.build_manifest("k", self.CONFIG,
                               environment={"workers": 8})
        assert a["hash"] == b["hash"]
        assert obs.diff_manifests(a, b) == ["env: workers: 1 != 8"]

    def test_config_changes_change_hash_and_diff(self):
        a = obs.build_manifest("k", self.CONFIG)
        b = obs.build_manifest("k", {**self.CONFIG, "seed": 4})
        assert a["hash"] != b["hash"]
        assert obs.diff_manifests(a, b) == ["config.seed: 3 != 4"]
        assert obs.diff_manifests(a, a) == []


# ---------------------------------------------------------------------------
# workflow wiring: aggregation, manifests, failure transport
# ---------------------------------------------------------------------------


class TestWorkflowObs:
    def test_parallel_totals_equal_serial(self, tiny_obs_experiment):
        serial, parallel = obs.ObsSession(), obs.ObsSession()
        W.run_experiment(tiny_obs_experiment, use_cache=False, workers=1,
                         obs=serial)
        W.run_experiment(tiny_obs_experiment, use_cache=False, workers=2,
                         obs=parallel)
        for prefix in ("sim.", "noise.", "clocks.", "io."):
            assert serial.metrics.totals(prefix) == \
                parallel.metrics.totals(prefix), prefix
        assert serial.metrics.totals("sim.")["sim.runs"] == 7.0
        assert parallel.metrics.totals("workflow.")["workflow.worker_runs"] == 7.0

    def test_manifest_attached_and_reproducible(self, tiny_obs_experiment):
        r1 = W.run_experiment(tiny_obs_experiment, use_cache=False, workers=1)
        r2 = W.run_experiment(tiny_obs_experiment, use_cache=False, workers=2)
        assert r1.manifest is not None
        assert r1.manifest["hash"] == r2.manifest["hash"]
        assert r1.manifest["environment"]["workers"] == 1
        assert r2.manifest["environment"]["workers"] == 2

    def test_manifest_survives_result_cache(self, tiny_obs_experiment):
        first = W.run_experiment(tiny_obs_experiment, use_cache=True)
        cached = W.run_experiment(tiny_obs_experiment, use_cache=True)
        assert cached.manifest == first.manifest
        session = obs.ObsSession()
        W.run_experiment(tiny_obs_experiment, use_cache=True, obs=session)
        assert session.metrics.value("workflow.cache_hits",
                                     experiment=tiny_obs_experiment) == 1.0
        assert [m["hash"] for m in session.manifests] == \
            [first.manifest["hash"]]

    def test_worker_failure_carries_tag_and_traceback(self, monkeypatch,
                                                      tmp_path):
        def broken():
            raise ValueError("boom from the app factory")

        spec = ExperimentSpec("Tiny-Broken", broken, nodes=1, reps_ref=1,
                              reps_noisy=1, phases=("init",))
        monkeypatch.setitem(C.EXPERIMENTS, "Tiny-Broken", spec)
        monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
        with pytest.raises(W.CampaignTaskError) as exc_info:
            W.run_experiment("Tiny-Broken", use_cache=False, workers=2,
                             preflight=False)
        from repro.measure import MODES

        err = exc_info.value
        assert err.task[0] == "Tiny-Broken"
        assert err.task[1] in ("ref",) + tuple(MODES)
        assert "ValueError: boom from the app factory" in err.original_tb
        assert "boom from the app factory" in str(err)

    def test_campaign_task_error_pickles(self):
        err = W.CampaignTaskError("X", "ltbb", 0, 2, "Traceback: ...")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.task == ("X", "ltbb", 0, 2)
        assert clone.original_tb == "Traceback: ..."


# ---------------------------------------------------------------------------
# archive manifests (trace formats)
# ---------------------------------------------------------------------------


class TestTraceManifests:
    def _trace(self, cluster, quiet_cost):
        from repro.measure import Measurement
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine

        return Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                      quiet_cost, measurement=Measurement("tsc")).run().trace

    @pytest.mark.parametrize("suffix", ["trace.json.gz", "npz"])
    def test_manifest_roundtrip(self, cluster, quiet_cost, tmp_path, suffix):
        from repro.measure import read_manifest, read_trace, write_trace

        trace = self._trace(cluster, quiet_cost)
        manifest = obs.build_manifest("trace", {"experiment": "t", "seed": 0})
        path = tmp_path / f"t.{suffix}"
        write_trace(trace, path, manifest=manifest)
        assert read_manifest(path) == manifest
        loaded = read_trace(path)
        assert loaded.provenance == manifest

    def test_no_manifest_reads_none(self, cluster, quiet_cost, tmp_path):
        from repro.measure import read_manifest, read_trace, write_trace

        path = tmp_path / "t.npz"
        write_trace(self._trace(cluster, quiet_cost), path)
        assert read_manifest(path) is None
        assert read_trace(path).provenance is None

    def test_io_counters_when_enabled(self, cluster, quiet_cost, tmp_path):
        from repro.measure import read_trace, write_trace

        trace = self._trace(cluster, quiet_cost)
        session = obs.ObsSession()
        with obs.scoped(session):
            write_trace(trace, tmp_path / "t.npz")
            read_trace(tmp_path / "t.npz")
        totals = session.metrics.totals("io.")
        assert totals["io.traces_written"] == 1.0
        assert totals["io.traces_read"] == 1.0
        assert totals["io.bytes_written"] > 0


# ---------------------------------------------------------------------------
# CLI + bench
# ---------------------------------------------------------------------------


class TestObsCli:
    @pytest.fixture
    def archive(self, tmp_path):
        s = obs.ObsSession()
        with s.span("experiment", experiment="X"):
            with s.labels(experiment="X"):
                s.counter("sim.runs").inc(3)
        s.add_manifest(obs.build_manifest(
            "experiment", {"experiment": "X", "seed": 0}))
        path = tmp_path / "obs.json"
        s.save(path)
        return path

    def test_summary(self, archive, capsys):
        from repro.cli import main_obs

        assert main_obs(["summary", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "experiment X" in out
        assert "sim.runs" in out

    def test_export_chrome_validates(self, archive, tmp_path, capsys):
        from repro.cli import main_obs

        out_path = tmp_path / "chrome.json"
        assert main_obs(["export", str(archive), "--chrome",
                         "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            for key in obs.CHROME_REQUIRED_KEYS:
                assert key in ev

    def test_diff_exit_codes(self, archive, tmp_path):
        from repro.cli import main_obs

        same = obs.build_manifest("experiment", {"experiment": "X", "seed": 0})
        other = obs.build_manifest("experiment", {"experiment": "X", "seed": 1})
        (tmp_path / "same.json").write_text(json.dumps(same))
        (tmp_path / "other.json").write_text(json.dumps(other))
        assert main_obs(["diff", str(archive), str(tmp_path / "same.json")]) == 0
        assert main_obs(["diff", str(archive), str(tmp_path / "other.json")]) == 1

    def test_report_summary_block_per_experiment(self, tiny_obs_experiment):
        session = obs.enable()
        try:
            W.run_experiment(tiny_obs_experiment, use_cache=False, workers=1)
            text = session.summary_text()
        finally:
            obs.disable()
        assert f"experiment {tiny_obs_experiment}" in text
        assert "sim.events_emitted" in text
        assert "wall time per phase" in text


class TestBenchSpans:
    def test_timed_uses_span_durations(self):
        from repro.bench import _timed

        session = obs.ObsSession()
        best = _timed(session, "unit", lambda: None, 3)
        spans = [r for r in session.spans.records if r.name == "bench.unit"]
        assert len(spans) == 3
        assert best == pytest.approx(min(s.duration for s in spans))
        assert best >= 0.0


class TestEnvActivation:
    def test_repro_obs_env_enables_lazily(self, monkeypatch):
        import repro.obs.session as S

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setattr(S, "_ACTIVE", None)
        monkeypatch.setattr(S, "_ENV_CHECKED", False)
        session = obs.active()
        assert session is not None
        assert obs.counter("x") is session.counter("x")

    def test_falsy_env_stays_disabled(self, monkeypatch):
        import repro.obs.session as S

        monkeypatch.setenv("REPRO_OBS", "0")
        monkeypatch.setattr(S, "_ACTIVE", None)
        monkeypatch.setattr(S, "_ENV_CHECKED", False)
        assert obs.active() is None
        assert obs.counter("x") is obs.NULL_COUNTER


class TestAnalysisSpans:
    def test_six_modes_compile_one_plan(self, cluster, quiet_cost):
        from repro.analysis import analyze_trace
        from repro.clocks import timestamp_trace
        from repro.measure import MODES, Measurement
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine

        trace = Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                       quiet_cost, measurement=Measurement("tsc")).run().trace
        session = obs.ObsSession()
        with obs.scoped(session):
            for mode in MODES:
                analyze_trace(timestamp_trace(trace, mode))
        names = [r.name for r in session.spans.records]
        assert names.count("analysis.plan_compile") == 1
        assert names.count("analysis.evaluate") == len(MODES) == 6
        assert session.metrics.totals("analysis.") == {
            "analysis.plan_compiles": 1.0}


class TestReplaySpans:
    def test_six_modes_and_a_dag_share_one_plan(self, cluster, quiet_cost):
        from repro.analysis import analyze_trace
        from repro.causal import blame_profile, build_dag
        from repro.clocks import timestamp_trace
        from repro.measure import MODES, Measurement
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine
        from repro.verify import sanitize_raw

        trace = Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                       quiet_cost, measurement=Measurement("tsc")).run().trace
        session = obs.ObsSession()
        with obs.scoped(session):
            for mode in MODES:
                analyze_trace(timestamp_trace(trace, mode))
            dag = build_dag(trace, "ltbb")
            blame_profile(dag)
            sanitize_raw(trace)
        names = [r.name for r in session.spans.records]
        assert names.count("replay.plan_compile") == 1
        assert names.count("replay") == 6
        for name in ("causal.dag", "causal.blame", "verify.sanitize"):
            assert names.count(name) == 1, name
        (dag_span,) = [r for r in session.spans.records
                       if r.name == "causal.dag"]
        assert dag_span.args == {"mode": "ltbb", "nodes": dag.n_nodes}
        metrics = session.metrics
        assert metrics.totals("clocks.plan_compiles") == {
            "clocks.plan_compiles": 1.0}
        assert metrics.totals("clocks.replays") == {"clocks.replays": 7.0}
        assert metrics.value("clocks.replays", mode="ltbb") == 2.0
        assert metrics.value("clocks.replays", mode="tsc") == 1.0


class TestEngineSpans:
    def test_drain_and_finish_nest_in_run(self, cluster, quiet_cost):
        from repro.measure import Measurement
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine

        session = obs.ObsSession()
        with obs.scoped(session):
            for measurement in (Measurement("ltbb"), None):
                Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                       quiet_cost, measurement=measurement).run()
        records = session.spans.records
        runs = [i for i, r in enumerate(records) if r.name == "engine.run"]
        assert [records[i].args["mode"] for i in runs] == ["ltbb", "ref"]
        for i in runs:
            children = [r for r in records if r.parent == i]
            assert [r.name for r in children] == ["engine.drain", "engine.finish"]
            run = records[i]
            for child in children:
                assert run.t0 <= child.t0 <= child.t1 <= run.t1
            assert children[0].t1 <= children[1].t0


class TestSyncPlanSpans:
    def test_verify_replay_analysis_and_dag_compile_once(self, cluster,
                                                         quiet_cost):
        # every consumer reads the one sync plan, and none takes the
        # events, so no plan is compiled twice
        from repro.analysis import analyze_trace
        from repro.causal import build_dag
        from repro.clocks import timestamp_trace
        from repro.measure import MODES, Measurement
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import Engine
        from repro.verify import find_races, sanitize_raw

        trace = Engine(MiniFE(MiniFEConfig.tiny(nx=32, n_ranks=2)), cluster,
                       quiet_cost, measurement=Measurement("tsc")).run().trace
        session = obs.ObsSession()
        with obs.scoped(session):
            timestamp_trace(trace, "ltbb")
            sanitize_raw(trace)
            find_races(trace)
            for mode in MODES:
                analyze_trace(timestamp_trace(trace, mode))
            build_dag(trace, "ltbb")
        assert trace.column_backed
        (span,) = [r for r in session.spans.records
                   if r.name == "sync.plan_compile"]
        assert span.args == {"events": trace.n_events}
        totals = session.metrics.totals
        assert totals("sync.") == {"sync.plan_compiles": 1.0}
        assert totals("clocks.plan_compiles") == {"clocks.plan_compiles": 1.0}
        assert totals("analysis.") == {"analysis.plan_compiles": 1.0}

"""Tests for the measurement layer: modes, filters, overhead, trace IO."""

import pytest

from repro.machine.noise import NoiseModel, ZeroNoise
from repro.measure import (
    LOGICAL_MODES,
    MODES,
    FilterRules,
    Measurement,
    OverheadModel,
    read_trace,
    write_trace,
)
from repro.measure.config import validate_mode
from repro.sim import (
    CallBurst,
    CostModel,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    Program,
    Send,
    Recv,
    Allreduce,
)
from repro.sim.kernels import WorkDelta

K = KernelSpec("k", flops_per_unit=1e5, bb_per_unit=10, stmt_per_unit=30,
               instr_per_unit=80, omp_iters_per_unit=1.0, memory_scope="none")


class _App(Program):
    name = "app"
    n_ranks = 2
    threads_per_rank = 1

    def make_rank(self, ctx):
        yield Enter("main")
        yield Enter("hot")
        yield CallBurst("tiny()", calls=100, kernel=K, units=10)
        yield Leave("hot")
        if ctx.rank == 0:
            yield Send(dest=1, tag=1, nbytes=32)
        else:
            yield Recv(source=0, tag=1)
        yield Allreduce()
        yield Leave("main")


class TestModes:
    def test_validate_mode(self):
        for m in MODES:
            assert validate_mode(m) == m
        with pytest.raises(ValueError):
            validate_mode("wallclock")

    def test_six_modes(self):
        assert len(MODES) == 6
        assert len(LOGICAL_MODES) == 5


class TestOverheadModel:
    def test_hwctr_events_most_expensive(self):
        om = OverheadModel()
        costs = {m: om.event_cost(m) for m in MODES}
        assert costs["lthwctr"] == max(costs.values())
        assert costs["tsc"] == min(costs.values())

    def test_count_cost_only_counting_modes(self):
        om = OverheadModel()
        delta = WorkDelta(bb=1000, stmt=3000)
        assert om.count_cost("ltbb", delta) > 0
        assert om.count_cost("ltstmt", delta) > 0
        assert om.count_cost("tsc", delta) == 0
        assert om.count_cost("lthwctr", delta) == 0

    def test_sync_cost_logical_only(self):
        om = OverheadModel()
        assert om.sync_cost("tsc") == 0.0
        for m in LOGICAL_MODES:
            assert om.sync_cost(m) > 0

    def test_hwctr_footprint_larger(self):
        om = OverheadModel()
        assert om.footprint("lthwctr", 10) > om.footprint("tsc", 10)


class TestFilterRules:
    def test_empty_filter_records_all(self):
        assert not FilterRules().is_filtered("anything")

    def test_exclude_glob(self):
        f = FilterRules.excluding("tiny*")
        assert f.is_filtered("tiny()")
        assert not f.is_filtered("big()")

    def test_include_overrides_earlier_exclude(self):
        f = FilterRules().exclude("MPI_*").include("MPI_Allreduce")
        assert f.is_filtered("MPI_Send")
        assert not f.is_filtered("MPI_Allreduce")

    def test_later_rules_win(self):
        f = FilterRules().include("f").exclude("f")
        assert f.is_filtered("f")

    def test_rules_roundtrip(self):
        f = FilterRules.excluding("a", "b")
        g = FilterRules(f.rules())
        assert g.is_filtered("a") and g.is_filtered("b")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            FilterRules([("banish", "x")])


class TestFilteredMeasurement:
    def _run(self, cluster, filt=None):
        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        m = Measurement("tsc", filter_rules=filt)
        return Engine(_App(), cluster, cost, measurement=m).run()

    def test_filtered_region_absent_from_trace(self, cluster):
        res = self._run(cluster, FilterRules.excluding("tiny*"))
        names = {res.trace.regions.name(e.region) for evs in res.trace.events for e in evs}
        assert "tiny()" not in names
        assert "hot" in names

    def test_filtering_reduces_overhead(self, cluster):
        unfiltered = self._run(cluster)
        filtered = self._run(cluster, FilterRules.excluding("tiny*"))
        assert filtered.runtime < unfiltered.runtime

    def test_filtered_work_still_runs(self, cluster):
        # work merges into the parent, but virtual compute time remains
        res = self._run(cluster, FilterRules.excluding("tiny*"))
        burst_compute = 10 * 1e5 / cluster.flops_per_core  # units x flops
        assert res.runtime >= burst_compute


class TestMeasurementLifecycle:
    def test_single_use(self, cluster):
        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        m = Measurement("tsc")
        Engine(_App(), cluster, cost, measurement=m).run()
        with pytest.raises(RuntimeError):
            Engine(_App(), cluster, cost, measurement=m).run()

    def test_finish_before_begin(self):
        with pytest.raises(RuntimeError):
            Measurement("tsc").finish(1.0)


class TestTraceIO:
    def test_roundtrip(self, cluster, tmp_path):
        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        res = Engine(_App(), cluster, cost, measurement=Measurement("ltbb")).run()
        path = tmp_path / "t.trace.json.gz"
        write_trace(res.trace, path)
        loaded = read_trace(path)
        assert loaded.mode == "ltbb"
        assert loaded.n_events == res.trace.n_events
        assert loaded.locations == res.trace.locations
        # events compare field by field
        for evs_a, evs_b in zip(res.trace.events, loaded.events):
            for a, b in zip(evs_a, evs_b):
                assert a.etype == b.etype
                assert a.region == b.region
                assert a.t == pytest.approx(b.t)
                assert a.aux == b.aux
                assert a.delta.bb == b.delta.bb
                assert a.delta.burst_calls == b.delta.burst_calls

    def test_roundtrip_preserves_analysis(self, cluster, tmp_path):
        from repro.analysis import analyze_trace
        from repro.clocks import timestamp_trace

        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        res = Engine(_App(), cluster, cost, measurement=Measurement("lt1")).run()
        path = tmp_path / "t.trace.json.gz"
        write_trace(res.trace, path)
        loaded = read_trace(path)
        p1 = analyze_trace(timestamp_trace(res.trace, "lt1"))
        p2 = analyze_trace(timestamp_trace(loaded, "lt1"))
        assert p1.total_time() == pytest.approx(p2.total_time())

    def test_one_npz_encoder(self, cluster, tmp_path):
        # write_trace(*.npz) writes npz_archive_bytes, and the bytes are
        # the same call after call (zip members carry the zip epoch), so
        # a trace stored by them has one content address
        from repro.measure.io import decode_trace, npz_archive_bytes

        cost = CostModel(cluster, noise=NoiseModel(ZeroNoise(), seed=1))
        trace = Engine(_App(), cluster, cost,
                       measurement=Measurement("ltbb")).run().trace
        manifest = {"run": 1}
        for k in range(2):
            path = tmp_path / f"x{k}.npz"
            write_trace(trace, path, manifest=manifest)
            assert path.read_bytes() == npz_archive_bytes(trace, manifest)
        data = npz_archive_bytes(trace)
        assert npz_archive_bytes(trace) == data
        assert data != npz_archive_bytes(trace, manifest)
        back = decode_trace(data, "x.npz")
        assert back.column_backed and back.provenance is None
        assert npz_archive_bytes(back) == data

    def test_rejects_garbage(self, tmp_path):
        import gzip, json

        path = tmp_path / "bad.json.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"format": "nope"}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)

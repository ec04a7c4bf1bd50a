"""Tests for the measurement layer: modes, filters, overhead, trace IO."""

import gzip
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine.noise import NoiseModel, ZeroNoise
from repro.measure import (
    LOGICAL_MODES,
    MODES,
    FilterRules,
    Measurement,
    OverheadModel,
    read_trace,
    trace_archive_bytes,
    write_trace,
)
from repro.measure.config import validate_mode
from repro.measure.io import decode_trace, npz_archive_bytes
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
        path = tmp_path / "bad.json.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"format": "nope"}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)


#: sha256 of the JSON-lines archive of the MiniFE ``tiny()`` trace at
#: noise seed 3 under ltbb as an earlier build wrote it (gzip level 9
#: through a text layer); ``tests/goldens.json`` held it as ``archive``
LEVEL9_ARCHIVE = \
    "208229abb91210f74ad565abaa2484bafb9e45a5d9bcfb6cedf8219d95406e34"

#: the archive bytes the subprocess test recomputes, as a sha256
_ARCHIVE_SNIPPET = """
import hashlib
from repro.measure import trace_archive_bytes
from tests.test_goldens import golden_trace
trace = golden_trace("minife", 3, "ltbb")
print(hashlib.sha256(trace_archive_bytes(trace, {"run": 1})).hexdigest())
"""


def _gzip(text: str, level: int, lines_per_write=None, text_layer=False):
    """``text`` through one ``GzipFile(mtime=0)`` at ``level``: all at
    once, ``lines_per_write`` lines per write, or through an
    ``io.TextIOWrapper`` (whose close flushes the stream first)."""
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0,
                       compresslevel=level) as gz:
        if text_layer:
            with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                fh.write(text)
        elif lines_per_write is None:
            gz.write(text.encode("utf-8"))
        else:
            lines = text.splitlines(keepends=True)
            for i in range(0, len(lines), lines_per_write):
                gz.write("".join(lines[i:i + lines_per_write]).encode("utf-8"))
    return buf.getvalue()


class TestJsonlCompression:
    """JSON-lines archive bytes are a function of the archive's text and
    the gzip level: one level-6 ``GzipFile`` stream, and archives written
    at level 9 through a text layer still read."""

    @pytest.fixture(scope="class")
    def trace(self):
        from tests.test_goldens import golden_trace

        return golden_trace("minife", 3, "ltbb")

    @pytest.mark.parametrize("manifest", [None, {"run": 1}])
    def test_level9_archive_reads_back(self, trace, manifest):
        new = trace_archive_bytes(trace, manifest)
        old = _gzip(gzip.decompress(new).decode("utf-8"), 9, text_layer=True)
        if manifest is None:
            assert hashlib.sha256(old).hexdigest() == LEVEL9_ARCHIVE
        assert old != new
        a, b = (decode_trace(x, "t.trace.json.gz") for x in (old, new))
        assert a.provenance == b.provenance == manifest
        # columns bit for bit, header fields and provenance
        assert npz_archive_bytes(a, a.provenance) == \
            npz_archive_bytes(b, b.provenance) == \
            npz_archive_bytes(trace, manifest)

    @pytest.mark.parametrize("lines_per_write", [1, 700])
    def test_bytes_do_not_depend_on_write_sizes(self, trace, lines_per_write):
        data = trace_archive_bytes(trace)
        text = gzip.decompress(data).decode("utf-8")
        assert len(text.splitlines()) > 700
        assert _gzip(text, 6, lines_per_write) == _gzip(text, 6) == data
        assert _gzip(text, 9, lines_per_write) == _gzip(text, 9)

    def test_same_bytes_in_a_fresh_interpreter(self, trace):
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", _ARCHIVE_SNIPPET], check=True,
            capture_output=True, text=True, cwd=root,
            env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""},
        ).stdout.strip()
        here = trace_archive_bytes(trace, {"run": 1})
        assert out == hashlib.sha256(here).hexdigest()

    def test_one_gzip_level(self):
        import repro.cube.io as cube_io
        import repro.measure.io as mio

        assert cube_io._GZIP_LEVEL == mio.GZIP_LEVEL == 6

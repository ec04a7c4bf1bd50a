"""Column-born traces: recording, ownership and the Ev-free hot paths.

The measurement records events as columns and a trace builds ``Ev``
lists only when a caller asks for ``.events``.  These tests pin that:

* the events built from a column-born trace equal, field for field and
  bit for bit, the ``Ev`` objects the per-event engine oracle hands the
  list-of-Ev measurement oracle (both in ``tests/oracles.py``), here
  through crash recovery's mark/rewind and a sanitized run (the
  hypothesis-generated programs are in ``tests/test_properties.py``);
* the campaign task path, engine -> replay -> analysis, JSON-lines/npz/
  shards write -> read -> replay -> analysis, engine -> sanitizer -> race
  detector and a sanitized run never build an event;
* the archives work over columns: writing leaves a trace column-backed
  with the same columns, JSON-lines records that interleave locations
  and locations without events read back exactly, and non-finite times
  are refused by the writers and the reader;
* taking ``.events`` hands ownership to the lists: an edit reaches the
  next replay and archive write.
"""

import gzip
import json

import numpy as np
import pytest

from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.experiments import workflow as W
from repro.experiments.faultsweep import default_fault_config
from repro.machine import small_test_cluster
from repro.machine.faults import FaultModel
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import (
    MODES,
    Measurement,
    RawTrace,
    read_trace,
    trace_archive_bytes,
    write_trace,
)
from repro.measure import columnar, shards
from repro.miniapps import MiniFE, MiniFEConfig
from repro.sim import CostModel, Engine, recovery, run_with_recovery
from repro.sim.events import BURST, ENTER, LEAVE, Ev, RegionRegistry
from repro.sim.kernels import WorkDelta
from repro.verify import find_races, sanitize_trace
from tests.oracles import EvListMeasurement, HeapEngine, event_bits


def _cluster():
    return small_test_cluster(cores_per_numa=8, numa_per_socket=2)


def _cost(cluster, seed=3):
    return CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))


def _app():
    return MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=3))


def _trace(mode="ltbb"):
    cluster = _cluster()
    return Engine(_app(), cluster, _cost(cluster),
                  measurement=Measurement(mode)).run().trace


class TestEvListOracle:
    @pytest.mark.parametrize("fault_seed", [2, 4, 6])
    def test_recovered_minife_matches_oracle(self, fault_seed, monkeypatch):
        def recovered(measurement):
            cluster = _cluster()
            return run_with_recovery(
                _app(), cluster, lambda: _cost(cluster),
                FaultModel(default_fault_config(), seed=fault_seed),
                measurement=measurement)

        born = recovered(Measurement("ltbb"))
        monkeypatch.setattr(recovery, "Engine", HeapEngine)
        oracle = recovered(EvListMeasurement("ltbb"))
        assert born.n_restarts == oracle.n_restarts > 0
        assert event_bits(born.result.trace) == event_bits(oracle.result.trace)

    def test_sanitized_recording_matches_oracle(self):
        # the finish-time check leaves the recorded trace as it is
        cluster = _cluster()
        born = Engine(_app(), cluster, _cost(cluster), sanitize=True,
                      measurement=Measurement("lt1")).run().trace
        oracle = HeapEngine(_app(), cluster, _cost(cluster),
                            measurement=EvListMeasurement("lt1")).run().trace
        assert event_bits(born) == event_bits(oracle)


@pytest.fixture
def no_events(monkeypatch):
    """Fail the test if anything builds an ``Ev``."""
    def refuse(*args, **kwargs):
        raise AssertionError("an event object was built")

    monkeypatch.setattr(columnar, "events_from_columns", refuse)
    monkeypatch.setattr(shards, "events_from_columns", refuse)
    monkeypatch.setattr(Ev, "__init__", refuse)


class TestNoEventsOnColumnarPaths:
    @pytest.mark.parametrize("mode", MODES)
    def test_engine_replay_analysis(self, no_events, mode):
        trace = _trace(mode)
        assert trace.n_events == len(trace.merged_order()[0]) > 0
        assert columnar.TraceColumns.from_raw(trace) is trace.columns()
        assert analyze_trace(timestamp_trace(trace, mode)).total_time() > 0
        assert trace.column_backed

    @pytest.mark.parametrize("mode", MODES)
    def test_campaign_task(self, no_events, mode):
        runtime, _phases, profile = W._run_task("MiniFE-1", mode, 0, 0)
        assert runtime > 0 and profile.total_time() > 0

    @pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz", ".shards"])
    def test_archive_read_replay_analysis(self, no_events, tmp_path, suffix):
        trace = _trace("ltbb")
        want = {m: timestamp_trace(trace, m, counter_seed=5) for m in MODES}
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        back = read_trace(path)
        for mode in MODES:
            tt = timestamp_trace(back, mode, counter_seed=5)
            for a, b in zip(tt.times, want[mode].times):
                assert a.tobytes() == b.tobytes()
            # archives carry no pinning, so compare the cells
            got, ref = analyze_trace(tt), analyze_trace(want[mode])
            assert got.metrics == ref.metrics
            assert all(got.cells(m) == ref.cells(m) for m in ref.metrics)


    def test_sanitizer_and_race_detector(self, no_events, monkeypatch):
        compiled = []
        plan = columnar.SyncPlan
        monkeypatch.setattr(columnar, "SyncPlan",
                            lambda cols: compiled.append(cols) or plan(cols))
        trace = _trace("ltbb")
        report = sanitize_trace(trace)
        assert report.ok and report.modes == MODES
        races = find_races(trace)
        assert races.n_events == trace.n_events and not races.has_races
        assert trace.column_backed
        assert compiled == [trace.columns()]

    def test_sanitized_run(self, no_events):
        cluster = _cluster()
        trace = Engine(_app(), cluster, _cost(cluster), sanitize=True,
                       measurement=Measurement("lt1")).run().trace
        assert trace.n_events > 0 and trace.column_backed


def _interleave(lines):
    """Records of a JSON-lines body, round-robin over their locations
    (each location's own order kept)."""
    by_loc = {}
    for line in lines:
        by_loc.setdefault(json.loads(line)[0], []).append(line)
    queues = list(by_loc.values())
    out = []
    while any(queues):
        out.extend(q.pop(0) for q in queues if q)
    return out


class TestArchivesOverColumns:
    @pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz", ".shards"])
    def test_writing_keeps_the_trace_column_backed(self, tmp_path, suffix):
        trace = _trace("ltbb")
        cols = trace.columns()
        write_trace(trace, tmp_path / f"t{suffix}")
        trace_archive_bytes(trace)
        assert trace.column_backed and trace.columns() is cols

    @pytest.mark.parametrize("line_path", [False, True])
    def test_interleaved_locations_read_back_location_major(self, tmp_path,
                                                            line_path):
        # the writer emits each location's records in one run; a reader
        # meeting them interleaved (on the bulk path, or line by line
        # where a trailing blank sends every chunk) reorders them stably
        trace = _trace("ltbb")
        want = trace_archive_bytes(trace)
        header, *records = gzip.decompress(want).decode().splitlines(True)
        mixed = _interleave(records)
        assert mixed != records
        if line_path:
            mixed = [line[:-1] + " \n" for line in mixed]
        path = tmp_path / "t.trace.json.gz"
        path.write_bytes(gzip.compress((header + "".join(mixed)).encode()))
        back = read_trace(path)
        assert back.column_backed
        assert trace_archive_bytes(back) == want
        assert event_bits(back) == event_bits(trace)

    @pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz", ".shards"])
    def test_empty_locations_round_trip(self, tmp_path, suffix):
        regions = RegionRegistry()
        rid = regions.intern("main", "user")
        trace = RawTrace("lt1", regions, [(0, 0), (0, 1), (1, 0), (1, 1)], [
            [Ev(ENTER, rid, 0.5), Ev(LEAVE, rid, 1.0, WorkDelta(bb=2.0))],
            [],
            [Ev(ENTER, rid, 0.25), Ev(LEAVE, rid, 2.0)],
            []])
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.column_backed
        assert [len(lc) for lc in back.columns().locs] == [2, 0, 2, 0]
        assert trace_archive_bytes(back) == trace_archive_bytes(trace)
        assert event_bits(back) == event_bits(trace)

    def test_non_finite_times_are_spelled_as_json_spells_them(self,
                                                              tmp_path):
        # A non-finite time has no place in a trace: a NaN breaks the
        # merged order (the running maximum carries it to the rest of its
        # location).  The writers refuse one, and the reader refuses one
        # spelled as json spells it, at its line.
        from repro.measure import ColumnarConversionError, TraceFormatError

        nan, inf = float("nan"), float("inf")
        regions = RegionRegistry()
        rid = regions.intern("main", "user")
        for bad in ([Ev(ENTER, rid, nan), Ev(LEAVE, rid, 1.0)],
                    [Ev(BURST, rid, 1.0, t_enter=-inf)],
                    [Ev(ENTER, rid, 0.5), Ev(LEAVE, rid, inf)]):
            trace = RawTrace("tsc", regions, [(0, 0)], [bad])
            for suffix in (".trace.json.gz", ".npz", ".shards"):
                with pytest.raises(ColumnarConversionError):
                    write_trace(trace, tmp_path / f"w{suffix}")
        good = RawTrace("tsc", regions, [(0, 0)], [[
            Ev(ENTER, rid, 0.5), Ev(BURST, rid, 1.0, t_enter=0.75),
            Ev(LEAVE, rid, 2.0, WorkDelta(bb=2.0))]])
        lines = gzip.decompress(trace_archive_bytes(good)).decode() \
            .splitlines(True)
        for k, record in ((1, [0, ENTER, rid, nan, None, None, None]),
                          (2, [0, BURST, rid, 1.0, None, None, -inf]),
                          (3, [0, LEAVE, rid, inf, {"bb": 2.0}, None, None])):
            path = tmp_path / "t.trace.json.gz"
            path.write_bytes(gzip.compress("".join(
                lines[:k] + [json.dumps(record) + "\n"] + lines[k + 1:])
                .encode()))
            with pytest.raises(TraceFormatError) as err:
                read_trace(path)
            assert err.value.offset == f"line {k + 1}"
            assert "is not finite" in err.value.reason


class TestEventsTakeOwnership:
    def test_edit_reaches_replay_and_npz(self, tmp_path):
        trace = _trace("ltbb")
        before = timestamp_trace(trace, "ltbb").times[0][-1]
        last = trace.events[0][-1]
        assert not trace.column_backed
        last.delta = last.delta + WorkDelta(bb=1000.0)
        after = timestamp_trace(trace, "ltbb")
        assert after.times[0][-1] == before + 1000.0
        write_trace(trace, tmp_path / "t.npz")
        back = read_trace(tmp_path / "t.npz")
        assert back.events[0][-1].delta == last.delta
        assert trace_archive_bytes(back) == trace_archive_bytes(trace)
        np.testing.assert_array_equal(
            timestamp_trace(back, "ltbb").times[0], after.times[0])

"""Out-of-core sharded trace archives: round-trip, streaming, bounded memory.

The contract under test (docs/performance.md): a trace larger than the
shard size round-trips through ``write -> stream`` while never holding
more than one shard's rows in memory; the sanitizer, the race detector,
the clock replay and the analysis of the archive (read whole) match the
full trace's, and manifest reads never touch the event body.
"""

import tracemalloc

import pytest

from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.clocks.streaming import stream_clock_replay
from repro.machine import small_test_cluster
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import MODES
from repro.measure.io import read_manifest, read_trace, write_trace
from repro.measure.shards import (
    open_sharded_trace,
    read_shard_manifest,
    write_sharded_trace,
)
from repro.miniapps import MiniFE, MiniFEConfig
from repro.sim import CostModel, Engine
from repro.sim.events import MPI_SEND
from repro.verify import sanitize_raw
from repro.verify.races import find_races
from tests.oracles import (
    analyze_stream,
    assert_same_profile,
    lamport_replay,
    shard_event_lists,
)

SHARD_EVENTS = 256  # far below the fixture's ~1.7k events -> multi-shard


def _make_trace():
    cluster = small_test_cluster(cores_per_numa=8, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=0))
    app = MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=4))
    return Engine(app, cluster, cost, measurement=Measurement("tsc")).run().trace


@pytest.fixture(scope="module")
def trace():
    return _make_trace()


@pytest.fixture
def archive(trace, tmp_path):
    path = tmp_path / "trace.shards"
    write_sharded_trace(trace, path, shard_events=SHARD_EVENTS,
                        manifest={"kind": "test-run"})
    return path


def _sig(trace_like):
    return [(loc, ev.etype, ev.region, ev.t.hex(), ev.aux, ev.t_enter.hex(),
             ev.delta)
            for loc, ev in trace_like.merged()]


class TestRoundTrip:
    def test_multi_shard_round_trip_is_exact(self, trace, archive):
        st = open_sharded_trace(archive)
        assert st.n_shards > 3
        assert st.n_events == trace.n_events
        assert _sig(st) == _sig(trace)

    def test_io_dispatch_on_suffix(self, trace, tmp_path):
        path = tmp_path / "via_io.shards"
        write_trace(trace, path, manifest={"kind": "dispatch"})
        back = read_trace(path)
        assert _sig(back) == _sig(trace)
        assert back.provenance == {"kind": "dispatch"}
        assert read_manifest(path) == {"kind": "dispatch"}

    def test_metadata_surface_matches_raw(self, trace, archive):
        st = open_sharded_trace(archive)
        assert st.locations == trace.locations
        assert list(st.regions.names) == list(trace.regions.names)
        assert st.n_locations == trace.n_locations
        assert st.n_ranks == trace.n_ranks
        assert st.loc_id(*trace.locations[-1]) == trace.n_locations - 1
        assert st.master_locations() == trace.master_locations()

    def test_manifest_is_header_only(self, archive):
        # Destroy every shard body: manifest reads must still succeed
        # (nothing but manifest.json is opened), streaming must fail.
        for shard in archive.glob("shard-*.npy"):
            shard.write_bytes(b"garbage")
        header = read_shard_manifest(archive)
        assert header["n_events"] > 0
        assert read_manifest(archive) == {"kind": "test-run"}
        st = open_sharded_trace(archive)  # manifest-only: still fine
        with pytest.raises(Exception):
            list(st.merged())


class TestBoundedMemory:
    def test_peak_resident_rows_bounded_by_shard_size(self, archive):
        st = open_sharded_trace(archive)
        for _loc, _ev in st.merged():
            pass
        assert st.stats.shards_opened == st.n_shards
        assert st.stats.rows_streamed == st.n_events
        assert 0 < st.stats.peak_resident_rows <= SHARD_EVENTS

    def test_streaming_allocates_less_than_materializing(self, archive):
        st = open_sharded_trace(archive)
        tracemalloc.start()
        for _loc, _ev in st.merged():
            pass
        _cur, peak_stream = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        raw = open_sharded_trace(archive).to_raw()
        _cur, peak_materialize = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert raw.n_events == st.n_events
        # The full trace holds every Ev at once; the stream holds at most
        # one shard (256 of ~1.7k events) plus transient objects.
        assert peak_stream < peak_materialize / 2


class TestStreamingConsumers:
    def test_sanitize_raw_reads_shards_clean(self, trace, archive):
        st = open_sharded_trace(archive)
        assert sanitize_raw(st) == sanitize_raw(trace) == []

    def test_sanitize_raw_reads_shards_corrupt(self, tmp_path):
        # Forge a duplicate MPI_SEND match id on a fresh trace (the
        # columnar snapshot is memoized, so corrupt before first write);
        # the archive, read whole, must give the trace's findings in the
        # same order.
        corrupt = _make_trace()
        sends = [ev for evs in corrupt.events for ev in evs
                 if ev.etype == MPI_SEND]
        assert len(sends) >= 2
        sends[1].aux = (sends[0].aux[0],) + tuple(sends[1].aux[1:])
        path = tmp_path / "corrupt.shards"
        write_sharded_trace(corrupt, path, shard_events=SHARD_EVENTS)
        raw_fp = [(d.rule_id, d.message, d.location)
                  for d in sanitize_raw(corrupt)]
        shard_fp = [(d.rule_id, d.message, d.location)
                    for d in sanitize_raw(open_sharded_trace(path))]
        assert raw_fp == shard_fp
        assert any(rule == "TRC002" for (rule, _m, _l) in raw_fp)

    def test_race_replay_accepts_sharded_trace(self, trace, archive):
        st = open_sharded_trace(archive)
        full = find_races(trace)
        streamed = find_races(st)
        assert streamed.n_events == full.n_events
        assert streamed.wildcard_sites == full.wildcard_sites
        assert ([(d.rule_id, d.message) for d in streamed.diagnostics]
                == [(d.rule_id, d.message) for d in full.diagnostics])

    @pytest.mark.parametrize("mode", MODES)
    def test_stream_clock_replay_matches_full_replay(self, trace, archive, mode):
        st = open_sharded_trace(archive)
        tt = timestamp_trace(trace, mode, counter_seed=2)
        summary = stream_clock_replay(st, mode, counter_seed=2)
        assert summary.n_events == [len(t) for t in tt.times]
        finals = [float(t[-1]) if len(t) else 0.0 for t in tt.times]
        assert summary.final == finals  # bit-identical, no tolerance
        assert summary.max_clock == max(finals)
        _times, counters = lamport_replay(trace, mode, counter_seed=2)
        assert summary.final == counters  # the per-event walk's finals

    def test_analyze_stream_matches_analyze_trace(self, trace, archive):
        st = open_sharded_trace(archive)
        full = analyze_trace(timestamp_trace(trace, "tsc"))
        streamed = analyze_stream(
            shard_event_lists(st),
            mode="tsc", regions=st.regions, locations=st.locations)
        assert streamed.metrics == full.metrics
        assert_same_profile(full, streamed)
        assert st.stats.peak_resident_rows <= SHARD_EVENTS

"""Performance microbenchmarks of the toolchain itself.

These are conventional pytest-benchmark measurements (multiple rounds) of
the three hot paths: the discrete-event engine, the Lamport replay, and
the wait-state analyzer (plan evaluation; the plan compiles on the first
round).
"""

import pytest

from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.sim import CostModel, Engine


def _trace():
    cluster = jureca_dc(1)
    app = MiniFE(MiniFEConfig.tiny(nx=96, n_ranks=8, threads_per_rank=4, cg_iters=8))
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=0))
    return Engine(app, cluster, cost, measurement=Measurement("tsc")).run().trace


@pytest.fixture(scope="module")
def trace():
    return _trace()


def test_perf_engine_simulation(benchmark):
    def run():
        cluster = jureca_dc(1)
        app = MiniFE(MiniFEConfig.tiny(nx=96, n_ranks=8, threads_per_rank=4, cg_iters=8))
        cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=0))
        return Engine(app, cluster, cost, measurement=Measurement("tsc")).run().trace.n_events

    n_events = benchmark(run)
    assert n_events > 1000


def test_perf_lamport_replay(benchmark, trace):
    times = benchmark(lambda: timestamp_trace(trace, "ltbb"))
    assert len(times.times) == trace.n_locations


def test_perf_hwctr_replay(benchmark, trace):
    times = benchmark(lambda: timestamp_trace(trace, "lthwctr", counter_seed=1))
    assert len(times.times) == trace.n_locations


def test_perf_replay_plan_compile(benchmark, trace):
    """One-time cost of compiling the static replay plan for a trace."""
    from repro.clocks.columnar import _build_replay_plan

    cols = trace.columns()
    records, _tails = benchmark(lambda: _build_replay_plan(cols))
    assert len(records) > 0


def test_perf_npz_write_read(benchmark, trace, tmp_path):
    from repro.measure import read_trace, write_trace

    path = tmp_path / "t.npz"

    def round_trip():
        write_trace(trace, path)
        return read_trace(path)

    back = benchmark(round_trip)
    assert back.n_events == trace.n_events


def test_perf_jsonl_write_read(benchmark, trace, tmp_path):
    from repro.measure import read_trace, write_trace
    from repro.measure.io import npz_archive_bytes

    path = tmp_path / "t.trace.json.gz"

    def round_trip():
        write_trace(trace, path)
        return read_trace(path)

    back = benchmark(round_trip)
    assert back.n_events == trace.n_events
    assert npz_archive_bytes(back) == npz_archive_bytes(trace)


def test_perf_sharded_write(benchmark, trace, tmp_path):
    from repro.measure.shards import write_sharded_trace

    path = tmp_path / "t.shards"
    benchmark(lambda: write_sharded_trace(trace, path,
                                          shard_events=trace.n_events // 8))
    assert path.is_dir()


def test_perf_sharded_stream(benchmark, trace, tmp_path):
    """Full streamed merged() walk over a multi-shard archive."""
    from repro.measure.shards import open_sharded_trace, write_sharded_trace

    path = tmp_path / "t.shards"
    write_sharded_trace(trace, path, shard_events=trace.n_events // 8)

    def walk():
        n = 0
        for _loc, _ev in open_sharded_trace(path).merged():
            n += 1
        return n

    assert benchmark(walk) == trace.n_events


def test_perf_sharded_clock_replay(benchmark, trace, tmp_path):
    from repro.clocks.streaming import stream_clock_replay
    from repro.measure.shards import open_sharded_trace, write_sharded_trace

    path = tmp_path / "t.shards"
    write_sharded_trace(trace, path, shard_events=trace.n_events // 8)
    summary = benchmark(lambda: stream_clock_replay(open_sharded_trace(path), "lt1"))
    assert summary.max_clock > 0


def test_perf_analyzer(benchmark, trace):
    tt = timestamp_trace(trace, "tsc")
    profile = benchmark(lambda: analyze_trace(tt))
    assert profile.total_time() > 0


def test_perf_jaccard(benchmark, trace):
    from repro.scoring import jaccard_metric_callpath

    tt = timestamp_trace(trace, "tsc")
    a = analyze_trace(tt)
    b = analyze_trace(timestamp_trace(trace, "ltbb"))
    score = benchmark(lambda: jaccard_metric_callpath(a, b))
    assert 0.0 <= score <= 1.0

"""Performance benchmark harness behind the ``repro-bench`` CLI.

Times the toolchain's hot paths -- the discrete-event engine, the clock
replay, the wait-state analyzer, and a miniature measurement campaign
(serial vs. parallel workers) -- and writes the numbers to
``BENCH_repro.json`` (a generated file, not tracked).  A committed baseline
(``benchmarks/BENCH_baseline.json``) plus ``--baseline`` turns the run
into a smoke gate: any timed section slower than ``--threshold`` times
its baseline value fails the run (CI uses 2x).

The numbers are wall-clock best-of-``repeats`` measurements of single-
process work, so they are machine-dependent but robust against transient
load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs

__all__ = [
    "run_benchmarks",
    "compare_to_baseline",
    "campaign_warnings",
    "render_comparison_markdown",
    "REGRESSION_KEYS",
]

#: (section, field) pairs gated by the baseline comparison; wall-time
#: fields only -- throughput/speedup fields are derived from them
REGRESSION_KEYS: Tuple[Tuple[str, str], ...] = (
    ("engine", "seconds"),
    ("replay_ltbb", "columnar_seconds"),
    ("replay_lthwctr", "columnar_seconds"),
    ("analyzer", "seconds"),
    ("shards", "stream_seconds"),
    ("serve", "warm_seconds"),
)


def _timed(session: "_obs.ObsSession", label: str,
           fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time, measured through obs spans.

    Each repetition runs inside a ``bench.<label>`` span on ``session``
    and the reported number is the minimum span duration, so
    ``BENCH_repro.json`` and a Chrome export of the session contain
    literally the same measurements.
    """
    best = float("inf")
    for rep in range(repeats):
        with session.span(f"bench.{label}", rep=rep) as sp:
            fn()
        best = min(best, sp.duration)
    return best


def _make_trace(quick: bool):
    from repro.machine import jureca_dc
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import Measurement
    from repro.miniapps.minife import MiniFE, MiniFEConfig
    from repro.sim import CostModel, Engine

    if quick:
        cfg = MiniFEConfig.tiny(nx=64, n_ranks=4, threads_per_rank=2, cg_iters=4)
    else:
        cfg = MiniFEConfig.tiny(nx=96, n_ranks=8, threads_per_rank=4, cg_iters=8)
    cluster = jureca_dc(1)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=0))

    def build():
        return Engine(MiniFE(cfg), cluster, cost,
                      measurement=Measurement("tsc")).run().trace

    return build


def run_benchmarks(quick: bool = False, workers: int = 2,
                   verbose: bool = True) -> Dict:
    """Time every hot path; returns the ``BENCH_repro.json`` document."""
    from repro.analysis import analyze_trace
    from repro.clocks import timestamp_trace

    repeats = 3 if quick else 5
    log = print if verbose else (lambda *_a, **_k: None)
    build = _make_trace(quick)

    # Timings go through obs spans: on the active session when
    # observability is enabled (so a Chrome export shares the bench's
    # timing source), else on a throwaway local session that is never
    # activated -- the timed code itself then still runs with
    # observability disabled, which is what the regression gate measures.
    session = _obs.active()
    if session is None:
        session = _obs.ObsSession()

    engine_s = _timed(session, "engine", build, max(repeats, 5))
    trace = build()
    n_events = trace.n_events
    log(f"engine:          {engine_s * 1e3:8.2f} ms "
        f"({n_events / engine_s:,.0f} events/s)")

    results: Dict[str, Dict] = {
        "engine": {
            "seconds": engine_s,
            "events": n_events,
            "events_per_sec": n_events / engine_s,
        },
    }

    for mode, kwargs in (("ltbb", {}), ("lthwctr", {"counter_seed": 1})):
        columnar_s = _timed(
            session, f"replay_{mode}_columnar",
            lambda: timestamp_trace(trace, mode, **kwargs), repeats,
        )
        results[f"replay_{mode}"] = {
            "columnar_seconds": columnar_s,
            "events_per_sec": n_events / columnar_s,
        }
        log(f"replay {mode:8s}{columnar_s * 1e3:8.2f} ms "
            f"({n_events / columnar_s:,.0f} events/s)")

    # The first analysis of a trace compiles its plan, later ones (the
    # gated number) evaluate it -- as the replay rows reuse their plan.
    tt = timestamp_trace(trace, "tsc")
    cols = trace.columns()

    def first_analysis():
        cols._analysis_plan = None
        analyze_trace(tt)

    compile_s = _timed(session, "analyzer_compile", first_analysis, repeats)
    analyzer_s = _timed(session, "analyzer", lambda: analyze_trace(tt), repeats)
    results["analyzer"] = {
        "seconds": analyzer_s,
        "compile_seconds": compile_s,
        "events_per_sec": n_events / analyzer_s,
    }
    log(f"analyzer:        {analyzer_s * 1e3:8.2f} ms "
        f"({n_events / analyzer_s:,.0f} events/s; first call with plan "
        f"compile {compile_s * 1e3:.2f} ms)")

    results["shards"] = _bench_shards(trace, log, session, repeats)
    results["campaign"] = _bench_campaign(quick, workers, log, session)
    results["serve"] = _bench_serve(quick, log, session, repeats)
    return {
        "format": "repro-bench-1",
        "quick": quick,
        "results": results,
    }


def _bench_shards(trace, log, session: "_obs.ObsSession",
                  repeats: int) -> Dict:
    """Out-of-core streaming throughput over a multi-shard archive.

    Writes the bench trace as a sharded archive (shards far smaller than
    the trace so the walk really crosses shard boundaries), then times a
    full streamed ``merged()`` walk and an ``lt1`` clock replay of the
    archive (read whole).
    """
    import shutil
    import tempfile
    from pathlib import Path as _Path

    from repro.clocks.streaming import stream_clock_replay
    from repro.measure.shards import open_sharded_trace, write_sharded_trace

    n_events = trace.n_events
    shard_events = max(256, n_events // 8)
    tmp = _Path(tempfile.mkdtemp(prefix="repro-bench-")) / "bench.shards"
    try:
        write_s = _timed(
            session, "shards_write",
            lambda: write_sharded_trace(trace, tmp, shard_events=shard_events),
            repeats,
        )

        def stream():
            for _loc, _ev in open_sharded_trace(tmp).merged():
                pass

        stream_s = _timed(session, "shards_stream", stream, repeats)
        replay_s = _timed(
            session, "shards_replay_lt1",
            lambda: stream_clock_replay(open_sharded_trace(tmp), "lt1"),
            repeats,
        )
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    log(f"shards:          {stream_s * 1e3:8.2f} ms streamed walk "
        f"({n_events / stream_s:,.0f} events/s, write {write_s * 1e3:.2f} ms, "
        f"lt1 replay {replay_s * 1e3:.2f} ms)")
    return {
        "shard_events": shard_events,
        "write_seconds": write_s,
        "stream_seconds": stream_s,
        "stream_events_per_sec": n_events / stream_s,
        "replay_lt1_seconds": replay_s,
    }


def _bench_campaign(quick: bool, workers: int, log,
                    session: "_obs.ObsSession") -> Dict:
    """Wall time of a miniature campaign, serial vs. ``workers`` processes.

    Registers a throwaway experiment for the duration of the measurement;
    caching is disabled so both runs really compute.  The fixture is
    sized so each worker's share of the campaign dwarfs the process-pool
    start-up cost (~100 ms) -- on a multi-core machine the parallel run
    should win, and ``repro-bench`` warns when it does not.  On a
    single-CPU machine (``cpu_count`` is recorded alongside the numbers)
    the workers time-slice one core and parallel cannot win; the warning
    says so instead of flagging a regression.
    """
    import os

    from repro.experiments import configs as C
    from repro.experiments.configs import ExperimentSpec
    from repro.experiments.workflow import run_experiment

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(
            nx=64 if quick else 96, n_ranks=4,
            cg_iters=6 if quick else 8, init_segments=2))

    name = "Bench-Micro"
    reps = 3 if quick else 4
    spec = ExperimentSpec(name, make, nodes=1, reps_ref=reps, reps_noisy=reps,
                          phases=("init", "solve"))
    C.EXPERIMENTS[name] = spec
    try:
        serial_s = _timed(
            session, "campaign_serial",
            lambda: run_experiment(name, seed=0, use_cache=False,
                                   preflight=False, workers=1), 1
        )
        parallel_s = _timed(
            session, "campaign_parallel",
            lambda: run_experiment(name, seed=0, use_cache=False,
                                   preflight=False, workers=workers), 1
        )
    finally:
        del C.EXPERIMENTS[name]
    log(f"campaign:        {serial_s * 1e3:8.2f} ms serial, "
        f"{parallel_s * 1e3:8.2f} ms with {workers} workers "
        f"({serial_s / parallel_s:.2f}x)")
    return {
        "serial_seconds": serial_s,
        "workers": workers,
        "parallel_seconds": parallel_s,
        "parallel_speedup": serial_s / parallel_s,
        "cpu_count": os.cpu_count() or 1,
    }


def _bench_serve(quick: bool, log, session: "_obs.ObsSession",
                 repeats: int) -> Dict:
    """Request latencies of the analysis service (``repro-serve``).

    Boots the asyncio service on an ephemeral port over a scratch cache
    and measures the serving funnel's three characteristic latencies:
    the **cold** request (one pool computation), the **warm** repeat
    (content-addressed cache, never touches the pool -- this is the
    gated number: a regression here means the cache read path got
    slower), and a **coalesced** burst of concurrent identical requests
    (single flight: one computation however many clients).
    """
    import asyncio
    import shutil
    import tempfile
    from pathlib import Path as _Path

    from repro.experiments import configs as C
    from repro.experiments.configs import ExperimentSpec

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(
            nx=64 if quick else 96, n_ranks=4,
            cg_iters=4 if quick else 6, init_segments=2))

    name = "Bench-Serve"
    C.EXPERIMENTS[name] = ExperimentSpec(name, make, nodes=1, reps_ref=1,
                                         reps_noisy=1,
                                         phases=("init", "solve"))
    tmp = _Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    out: Dict = {}

    async def drive():
        from repro.serve.client import ServeClient
        from repro.serve.service import AnalysisService, ServeConfig

        service = AnalysisService(ServeConfig(
            port=0, workers=2, cache_dir=str(tmp / "cache"),
            tenant_rate=1e6, tenant_burst=1e6))
        await service.start()
        try:
            client = ServeClient("127.0.0.1", service.port)
            with session.span("bench.serve_cold") as sp:
                resp = await client.experiment(name, 0)
            if resp.status != 200:
                raise RuntimeError(f"serve bench cold request failed "
                                   f"({resp.status}): {resp.body[:200]!r}")
            cold_s = sp.duration
            warm_s = float("inf")
            for rep in range(max(2 * repeats, 5)):
                with session.span("bench.serve_warm", rep=rep) as sp:
                    await client.experiment(name, 0)
                warm_s = min(warm_s, sp.duration)
            k = 4
            with session.span("bench.serve_coalesced") as sp:
                burst = await asyncio.gather(
                    *(client.experiment(name, 1) for _ in range(k)))
            if any(r.status != 200 for r in burst):
                raise RuntimeError("serve bench coalesced burst failed")
            out.update({
                "cold_seconds": cold_s,
                "warm_seconds": warm_s,
                "warm_requests_per_sec": 1.0 / warm_s,
                "coalesce_clients": k,
                "coalesce_seconds": sp.duration,
                "cold_over_warm": cold_s / warm_s,
            })
        finally:
            await service.stop()

    try:
        with _obs.scoped(session):
            asyncio.run(drive())
    finally:
        del C.EXPERIMENTS[name]
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"serve:           {out['warm_seconds'] * 1e3:8.2f} ms warm "
        f"({out['warm_requests_per_sec']:,.0f} req/s, cold "
        f"{out['cold_seconds'] * 1e3:.2f} ms, "
        f"{out['cold_over_warm']:.0f}x cold/warm, {out['coalesce_clients']} "
        f"coalesced in {out['coalesce_seconds'] * 1e3:.2f} ms)")
    return out


def compare_to_baseline(
    doc: Dict, baseline: Dict, threshold: float = 2.0,
) -> List[str]:
    """Regressions of ``doc`` vs. ``baseline`` (empty list = all clear).

    Only the wall-time fields in :data:`REGRESSION_KEYS` are gated; a
    section missing from the baseline is skipped so the gate survives
    benchmark additions without invalidating old baselines.  Comparing a
    quick run against a full baseline (or vice versa) is meaningless --
    that mismatch is reported as the single problem instead.
    """
    if doc.get("quick") != baseline.get("quick"):
        return [
            f"fixture mismatch: run quick={doc.get('quick')} vs baseline "
            f"quick={baseline.get('quick')} -- regenerate the baseline with "
            f"the same --quick setting"
        ]
    problems = []
    for section, field in REGRESSION_KEYS:
        base = baseline.get("results", {}).get(section, {}).get(field)
        cur = doc.get("results", {}).get(section, {}).get(field)
        if base is None or cur is None:
            continue
        if cur > threshold * base:
            problems.append(
                f"{section}.{field}: {cur * 1e3:.2f} ms vs baseline "
                f"{base * 1e3:.2f} ms (>{threshold:g}x)"
            )
    return problems


def campaign_warnings(doc: Dict) -> List[str]:
    """Non-fatal oddities worth surfacing (parallel slower than serial)."""
    camp = doc.get("results", {}).get("campaign", {})
    serial = camp.get("serial_seconds")
    parallel = camp.get("parallel_seconds")
    if serial is None or parallel is None or parallel <= serial:
        return []
    cpus = camp.get("cpu_count", 0)
    msg = (
        f"campaign: parallel ({parallel * 1e3:.1f} ms, "
        f"{camp.get('workers')} workers) slower than serial "
        f"({serial * 1e3:.1f} ms)"
    )
    if cpus and cpus < 2:
        msg += f" -- expected on this {cpus}-CPU machine, workers time-slice one core"
    else:
        msg += " -- pool start-up dominates or the machine is oversubscribed"
    return [msg]


def render_comparison_markdown(doc: Dict, baseline: Dict,
                               threshold: float = 2.0) -> str:
    """Markdown summary table of ``doc`` vs. ``baseline`` (the CI artifact).

    One row per (section, field) present in either document; wall-time
    fields show the regression ratio against ``threshold``, derived
    fields (speedups, throughput) are listed for context.
    """
    gated = set(REGRESSION_KEYS)
    lines = [
        "# repro-bench comparison",
        "",
        f"Fixture: `quick={doc.get('quick')}`; regression threshold: "
        f"`{threshold:g}x` on gated wall times.",
        "",
        "| section.field | baseline | current | ratio | gate |",
        "|---|---:|---:|---:|:---|",
    ]
    base_r = baseline.get("results", {})
    cur_r = doc.get("results", {})
    for section in sorted(set(base_r) | set(cur_r)):
        fields = sorted(set(base_r.get(section, {})) | set(cur_r.get(section, {})))
        for field in fields:
            base = base_r.get(section, {}).get(field)
            cur = cur_r.get(section, {}).get(field)
            if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
                continue
            if field.endswith("seconds"):
                fmt = lambda v: f"{v * 1e3:.2f} ms"
            elif field.endswith("per_sec"):
                fmt = lambda v: f"{v:,.0f}/s"
            else:
                fmt = lambda v: f"{v:g}"
            ratio = (cur / base) if base else float("inf")
            if (section, field) in gated:
                gate = "ok" if cur <= threshold * base else "**REGRESSION**"
            else:
                gate = ""
            lines.append(
                f"| {section}.{field} | {fmt(base)} | {fmt(cur)} "
                f"| {ratio:.2f}x | {gate} |"
            )
    for warning in campaign_warnings(doc):
        lines += ["", f"> warning: {warning}"]
    return "\n".join(lines) + "\n"


def write_bench(doc: Dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_bench(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None

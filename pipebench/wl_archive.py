"""``archive``: offline analysis of recorded traces, no simulation timed.

Set-up simulates one trace per experiment under tsc (noise seeded from
``--seed``).  One operation is a pass of every trace through the offline
path: archive write + read in all three formats, sanitize + race check,
six-mode clock replay + wait-state analysis, a streaming replay of the
``.shards`` archive, Jaccard scores against tsc, and under ltbb the
causal DAG, blame, critical path and one identity what-if edit.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import common
import ledger

SIZES = {"full": ("LULESH-2", "TeaLeaf-2"), "tiny": ("MiniFE-1",)}
FORMATS = {"jsonl": ".trace.json.gz", "npz": ".trace.npz",
           "shards": ".shards"}
#: setups per run; set-up time is their median
SETUP_REPEATS = 3


def _simulate(name: str, seed: int):
    from repro.experiments.configs import make_app, make_cluster
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import Measurement
    from repro.sim import CostModel, Engine

    cluster = make_cluster(name)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(make_app(name), cluster, cost,
                  measurement=Measurement("tsc")).run().trace


def _setup(names, seed: int):
    """Simulate every trace SETUP_REPEATS times; returns traces + median s."""
    rng = random.Random(seed)
    seeds = {name: rng.randrange(1 << 30) for name in names}
    times, digests, traces = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        traces = {name: _simulate(name, seeds[name]) for name in names}
        for trace in traces.values():
            trace.columns()  # the archive writers' columnar view
        times.append(time.perf_counter() - t0)
        digests.append({n: common.trace_digest(t) for n, t in traces.items()})
    return traces, digests, common.median(times)


def _pass(repro, trace, base: Path, counter_seed: int, region: str) -> dict:
    """One trace through the offline path; returns the raw outputs."""
    M, C = repro.measure, repro.clocks
    paths = {fmt: base.with_name(base.name + ext)
             for fmt, ext in FORMATS.items()}
    for fmt, path in paths.items():
        M.write_trace(trace, path)
    reads = {fmt: M.read_trace(path) for fmt, path in paths.items()}
    t = reads["jsonl"]  # fresh trace: one replay plan compiled per pass
    out = {"reads": reads, "paths": paths,
           "sanitize": repro.verify.sanitize_raw(t),
           "races": repro.verify.find_races(t), "finals": {},
           "profiles": {}}
    for mode in ledger.MODES:
        tt = C.timestamp_trace(t, mode, counter_seed=counter_seed)
        out["finals"][mode] = [float(x[-1]) if len(x) else 0.0
                               for x in tt.times]
        out["profiles"][mode] = repro.analysis.analyze_trace(tt).normalized()
    sharded = repro.measure.shards.open_sharded_trace(paths["shards"])
    out["stream"] = C.streaming.stream_clock_replay(sharded, "ltbb").final
    tsc = out["profiles"]["tsc"]
    out["scores"] = {m: repro.scoring.jaccard_metric_callpath(p, tsc)
                     for m, p in out["profiles"].items()}
    dag = repro.causal.build_dag(t, "ltbb")
    blame = repro.causal.blame_profile(dag)
    out["blame"] = {m: sum(blame.cells(m).values()) for m in blame.metrics}
    out["table"] = repro.causal.critical_path_table(dag, top=10)
    out["critical"] = dag.critical_path_fingerprint()
    out["whatif"] = repro.causal.run_whatif(
        t, [repro.causal.scale_region(region, 1.0)], "ltbb")
    return out


def _observe(out: dict) -> dict:
    """Seed-independent digests of one trace's outputs."""
    return {
        "finals": {m: common.sha(out["finals"][m]) for m in common.LOGICAL},
        "profiles": {m: common.profile_digest(out["profiles"][m])
                     for m in common.LOGICAL},
        "blame": common.sha(out["blame"], rounded=True),
        "critical": out["critical"],
    }


def _check(name: str, out: dict, trace_digest: str, expected: dict,
           first: dict, problems: list) -> int:
    """Output checks of one trace's pass; returns the failed stage count."""
    from repro.verify import has_errors

    bad = []
    for fmt, t in out["reads"].items():
        if common.trace_digest(t) != trace_digest:
            bad.append(f"{fmt} archive does not read back to the trace")
    if has_errors(out["sanitize"]) or out["races"].has_races:
        bad.append("sanitizer or race detector reports errors")
    if out["stream"] != out["finals"]["ltbb"]:
        bad.append("streaming replay finals differ from timestamp_trace")
    wi = out["whatif"]
    if wi.final != wi.baseline_final or wi.final != out["finals"]["ltbb"]:
        bad.append("what-if at factor 1.0 differs from the baseline")
    seen = _observe(out)
    for key, want in expected.items():
        if seen[key] != want:
            bad.append(f"{key} digest {common.sha(seen[key])[:12]} != "
                       f"recorded {common.sha(want)[:12]}")
    scores = out["scores"]
    if scores["tsc"] != 1.0 or not all(0.0 <= s <= 1.0
                                       for s in scores.values()):
        bad.append(f"Jaccard scores out of range {scores}")
    # seed-dependent outputs (tsc, lthwctr, scores) repeat pass to pass
    varying = common.sha([out["finals"], out["scores"], out["blame"]] + [
        common.profile_digest(p, rounded=False)
        for p in out["profiles"].values()])
    if first.setdefault(name, varying) != varying:
        bad.append("outputs differ between passes over the same trace")
    problems.extend(f"{name}: {b}" for b in bad)
    return len(bad)


#: checked stages of one trace's pass: write x3, read x3, sanitize, races,
#: replay+analyze x6, stream replay, scores, dag+blame+critical path, what-if
STAGES = 3 + 3 + 2 + 6 + 1 + 1 + 1 + 1


def run(opts, work: Path, digests: dict) -> dict:
    t_setup = time.perf_counter()
    import_s = common.import_seconds("repro.measure", "repro.clocks",
                                     "repro.analysis", "repro.causal",
                                     "repro.verify", "repro.scoring")
    import repro
    import repro.causal
    import repro.clocks.streaming
    import repro.measure.shards
    import repro.scoring
    import repro.verify
    from repro import obs

    names = SIZES[opts.size]
    traces, setup_digests, sim_s = _setup(names, opts.seed)
    setup_window = (t_setup, time.perf_counter())
    problems = []
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("set-up simulations of one seed differ")
    trace_digests = setup_digests[0]
    rng = random.Random(opts.seed + 1)
    counter_seed = rng.randrange(1 << 30)
    regions = {n: rng.choice(sorted(set(t.regions.names)))
               for n, t in traces.items()}

    tracer = None
    if opts.trace:
        tracer = ledger.Tracer(work / "spool")
        ledger.install(tracer)

    times, first, cpu, windows = [], {}, [], []
    attempted = failed = 0
    traced = None
    t_start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(times) == 1
        session = obs.ObsSession() if tracing else None
        if tracer is not None:
            tracer.enabled = tracing
            tracer.reset()
        outs = {}
        c0 = common.cpu_s()
        with obs.scoped(session):
            t0 = time.perf_counter()
            for name in names:
                outs[name] = _pass(repro, traces[name], work / name,
                                   counter_seed, regions[name])
            t1 = time.perf_counter()
        times.append(t1 - t0)
        cpu.append(common.cpu_s() - c0)
        windows.append((t0, t1))
        sizes = {}
        for name, out in outs.items():
            attempted += STAGES
            failed += _check(name, out, trace_digests[name],
                             digests[name]["archive"], first, problems)
            for fmt, path in out["paths"].items():
                sizes[fmt] = sizes.get(fmt, 0) + _size(path)
                if path.is_dir():
                    common.rmtree(path)
                else:
                    path.unlink()
        if tracing:
            traced = (tracer.collect(), session.snapshot(), t0, t1, sizes)
        outs = None  # free the read-back traces before the next pass
        elapsed = time.perf_counter() - t_start
        # untraced: as many operations as fit in the window, at least one;
        # traced: one untraced and one traced operation
        if (traced is not None or tracer is None) and \
                elapsed + times[-1] > opts.seconds:
            break

    props = {"traces": {n: {"events": t.n_events,
                            "locations": t.n_locations,
                            "ranks": t.n_ranks} for n, t in traces.items()},
             "archive_bytes": sizes, "passes": len(times),
             "whatif_region": regions}
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "setup_s": import_s + sim_s, "setup_window": setup_window,
           "op_times": times, "op_cpu": cpu, "op_windows": windows,
           "elapsed": elapsed, "window": (t_start, t_start + elapsed),
           "props": props,
           "op_label": "one pass of every trace through the offline path"}
    if traced is not None:
        out["layers"], out["ledger"] = _layers(traced, times)
        props["plan_reuse_ratio"] = out["layers"]["clocks.plan_reuse_ratio"]
    return out


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _layers(traced, times):
    spans, snap, T0, T1, sizes = traced
    spans = ledger.within(spans, T0, T1)
    wall = T1 - T0
    selfs = ledger.self_by_layer(spans)
    rows = {layer: selfs[layer] for layer in ledger.LAYERS
            if selfs.get(layer, 0.0) > 0.0}
    rows["unattributed"] = wall - sum(rows.values())
    layers = ledger.layer_metrics(spans, snap)
    for fmt, n in sizes.items():
        layers[f"measure.bytes.{fmt}"] = float(n)
    layers["obs.overhead_frac"] = times[1] / times[0] - 1.0
    layers["unattributed_frac"] = rows["unattributed"] / wall
    return layers, (rows, wall)

"""``campaign``: the paper's time to solution (Sec. IV-B), cold.

One operation is ``run_experiment(name, workers=2, preflight=True)`` with
the result cache on but rooted in a fresh directory (so every campaign
computes all 5 reference and 14 instrumented runs), followed by the
Jaccard score of each mode's mean profile against tsc (Figs. 3/4).
Each campaign of a run uses its own seed drawn from ``--seed``.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import common
import ledger

WORKERS = 2
SIZES = {"full": "LULESH-2", "tiny": "MiniFE-1"}


def _campaign(W, scoring, name: str, seed: int, cache: Path, session=None):
    """One cold campaign plus its scores; returns (result, scores, t0, t1)."""
    W._CACHE_DIR = cache
    t0 = time.perf_counter()
    result = W.run_experiment(name, seed=seed, use_cache=True,
                              preflight=True, workers=WORKERS, obs=session)
    tsc = result.mean_profiles["tsc"]
    scores = {m: scoring.jaccard_metric_callpath(p, tsc)
              for m, p in result.mean_profiles.items()}
    return result, scores, t0, time.perf_counter()


def _check(result, scores, expected: dict, first: dict, problems: list,
           props: dict):
    """Output checks of one campaign; returns the number of failed tasks.

    Logical mean profiles must match the recorded digests (values to
    ``common.DIGITS`` significant digits) and the first campaign's cell
    set; the count of cells that differ bit-wise from the first campaign
    is reported, not failed (README: known gap).  The tsc repetitions,
    each under its own noise seed, must all differ.
    """
    failed = 0
    for mode in common.LOGICAL:
        profile = result.mean_profiles[mode]
        seen = common.profile_digest(profile)
        apart = common.cells_apart(first.setdefault(mode, profile), profile)
        props["logical_cells_bitwise_apart"] = max(
            props.get("logical_cells_bitwise_apart", 0), apart)
        if seen != expected.get(mode) or apart < 0:
            problems.append(f"seed {result.seed}: {mode} mean profile "
                            f"{seen[:12]} != recorded "
                            f"{str(expected.get(mode))[:12]}")
            failed += len(result.profiles[mode])
    reps = [common.profile_digest(p, rounded=False)
            for p in result.profiles["tsc"]]
    if len(set(reps)) < len(reps):
        problems.append(f"seed {result.seed}: tsc repetitions repeat a "
                        "profile (noise was not applied)")
        failed += len(reps)
    if scores["tsc"] != 1.0 or not all(0.0 <= s <= 1.0
                                       for s in scores.values()):
        problems.append(f"seed {result.seed}: Jaccard scores out of range "
                        f"{scores}")
        failed += 1
    return failed


def run(opts, work: Path, digests: dict) -> dict:
    # set-up is the imports alone: every campaign is cold
    t_setup = time.perf_counter()
    setup_s = common.import_seconds("repro.experiments.workflow",
                                    "repro.scoring")
    setup_window = (t_setup, time.perf_counter())
    from repro import obs, scoring
    from repro.experiments import workflow as W

    name = SIZES[opts.size]
    expected = digests[name]["campaign"]
    rng = random.Random(opts.seed)
    tracer = None
    if opts.trace:
        tracer = ledger.Tracer(work / "spool")
        ledger.install(tracer)

    times, cpu, windows, problems, first, props = [], [], [], [], {}, {}
    attempted = failed = 0
    traced = None
    t_start = time.perf_counter()
    while True:
        seed = rng.randrange(1 << 30)
        cache = work / f"cache-{len(times)}"
        tracing = tracer is not None and len(times) == 1
        session = obs.ObsSession() if tracing else None
        if tracer is not None:
            tracer.enabled = tracing
            tracer.reset()
        c0 = common.cpu_s()
        result, scores, t0, t1 = _campaign(W, scoring, name, seed, cache,
                                           session)
        times.append(t1 - t0)
        cpu.append(common.cpu_s() - c0)
        windows.append((t0, t1))
        n_tasks = len(result.ref_runtimes) + sum(
            len(p) for p in result.profiles.values())
        attempted += n_tasks
        failed += _check(result, scores, expected, first, problems, props)
        if tracing:
            traced = (tracer.collect(), session.snapshot(), t0, t1, n_tasks)
        common.rmtree(cache)
        elapsed = time.perf_counter() - t_start
        # untraced: as many campaigns as fit in the window, at least one;
        # traced: one untraced and one traced campaign
        if (traced is not None or tracer is None) and \
                elapsed + times[-1] > opts.seconds:
            break

    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "setup_s": setup_s, "setup_window": setup_window,
           "op_times": times, "op_cpu": cpu, "op_windows": windows,
           "elapsed": elapsed, "window": (t_start, t_start + elapsed),
           "props": {"experiment": name, "campaigns": len(times),
                     "runs_per_campaign": n_tasks, "workers": WORKERS,
                     "jaccard_vs_tsc": {m: round(v, 4)
                                        for m, v in scores.items()},
                     **props},
           "op_label": "one cold campaign + scores"}
    if traced is not None:
        out["layers"], out["ledger"] = _layers(traced, times)
        out["props"]["plan_reuse_ratio"] = \
            out["layers"]["clocks.plan_reuse_ratio"]
    return out


def _layers(traced, times):
    """Per-layer metrics and the 2-slot self-time ledger of one campaign."""
    spans, snap, T0, T1, n_tasks = traced
    spans = ledger.within(spans, T0, T1)
    wall = T1 - T0
    parent = os.getpid()
    workers = sorted({s.pid for s in spans if s.pid != parent})
    wspans = [s for s in spans if s.pid != parent]
    p0 = min(s.t0 for s in wspans)
    p1 = max(s.t1 for s in wspans)
    tail_idle = 0.0
    for pid in workers:
        mine = [s for s in wspans if s.pid == pid]
        tail_idle += (min(s.t0 for s in mine) - p0) + (p1 - max(s.t1 for s in mine))
    tail_idle += max(0, WORKERS - len(workers)) * (p1 - p0)
    serial_idle = (p0 - T0) + (T1 - p1)

    selfs = ledger.self_by_layer(spans)
    capacity = WORKERS * wall
    rows = {layer: selfs.get(layer, 0.0) for layer in ledger.LAYERS
            if selfs.get(layer, 0.0) > 0.0}
    rows["experiments.tail_idle_s"] = tail_idle
    rows["experiments.serial_idle_s"] = serial_idle
    rows["unattributed"] = capacity - sum(rows.values())

    inst = ledger.total_by_name(spans, "Engine.run.instrumented")
    events = ledger.counter_total(snap, "sim.events_emitted")
    hits = ledger.counter_total(snap, "sim.fastpath.site_hits")
    misses = ledger.counter_total(snap, "sim.fastpath.site_misses")
    layers = ledger.layer_metrics(spans, snap)
    layers.update({
        "sim.ref_s": ledger.total_by_name(spans, "Engine.run.ref"),
        "sim.instrumented_s": inst,
        "sim.events": events,
        "sim.events_per_s": events / inst if inst else 0.0,
        "sim.fastpath_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "sim.scheduler_steps": ledger.counter_total(
            snap, "sim.scheduler_steps"),
        "experiments.tasks": n_tasks,
        "experiments.retries": ledger.counter_total(snap, "workflow.retries"),
        "experiments.tail_idle_s": tail_idle,
        "experiments.serial_idle_s": serial_idle,
        "obs.overhead_frac": times[1] / times[0] - 1.0,
        "unattributed_frac": rows["unattributed"] / capacity,
    })
    return layers, (rows, capacity)

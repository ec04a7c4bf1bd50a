"""Pipeline benchmark of the reproduction: one command, three workloads.

Usage (from the repository root)::

    python3 pipebench/run.py --workload campaign|archive|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate traced run that prints the per-layer ledger.
Both check the program's outputs; a violated check counts as a failed
operation and makes the exit code 1.  The last stdout line is the JSON
result object; the lines before it are a human-readable report.  Metric
names and units come from ``BENCHMARK.json``.  See ``README.md`` here for
the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import common
import ledger


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("campaign", "archive", "serve"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke check")
    ap.add_argument("--digests", default=None,
                    help="recorded output digests (default: digests.json)")
    return ap.parse_args(argv)


def _end_to_end(out: dict, probe: common.Probe) -> dict:
    """End-to-end metrics, scaled to the reference host's speed."""
    times = out["op_times"]
    tail, pct = common.tail(times)
    window = probe.factor(*out["window"])
    p50 = common.median(out.get("p50_times", times))
    raw = {"setup_s": out["setup_s"], "op_p50_ms": 1000.0 * p50,
           "ops_per_s": len(times) / out["elapsed"],
           "op_cpu_ms": 1000.0 * common.median(out["op_cpu"])}
    if "op_windows" in out:   # batch workloads: scale each operation
        per_op = [probe.factor(*w) for w in out["op_windows"]]
        p50 = common.median([t * f for t, f in zip(times, per_op)])
    else:                     # serve: scale by the whole window
        per_op = [window] * len(out["op_cpu"])
        p50 *= window
    out["props"]["op_samples"] = len(times)
    out["props"][f"op_tail_ms (p{pct:.4g})"] = round(1000.0 * tail, 3)
    out["props"]["host_speed_factor"] = round(window, 4)
    out["props"]["unscaled"] = {k: round(v, 4) for k, v in raw.items()}
    return {
        "setup_s": raw["setup_s"] * probe.factor(*out["setup_window"]),
        "peak_rss_mb": common.peak_rss_mb(),
        "op_p50_ms": 1000.0 * p50,
        "ops_per_s": raw["ops_per_s"] / window,
        "op_cpu_ms": 1000.0 * common.median(
            [c * f for c, f in zip(out["op_cpu"], per_op)]),
    }


def main(argv=None) -> int:
    opts = _parse(sys.argv[1:] if argv is None else argv)
    common.require_program()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    digests = common.load_digests(opts.digests)
    import wl_archive
    import wl_campaign
    import wl_serve

    module = {"campaign": wl_campaign, "archive": wl_archive,
              "serve": wl_serve}[opts.workload]
    work = common.make_workdir(opts.workload)
    t0 = time.perf_counter()
    probe = common.Probe(work)
    try:
        out = module.run(opts, work, digests)
    finally:
        probe.stop()
        common.remove_workdir(work)

    if opts.trace:
        names = spec["per_layer"]
        values = out["layers"]
    else:
        names = spec["end_to_end"]
        values = _end_to_end(out, probe)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise SystemExit(f"pipebench: workload printed no {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in names}

    import numpy

    out["props"].update(nproc=len(os.sched_getaffinity(0)),
                        python=platform.python_version(),
                        numpy=numpy.__version__)
    print(f"pipebench {opts.workload} seed={opts.seed} trace={opts.trace} "
          f"size={opts.size} wall={time.perf_counter() - t0:.1f}s "
          f"({out['op_label']})")
    for key, value in out["props"].items():
        print(f"  {key}: {value}")
    if opts.trace and out.get("ledger"):
        rows, capacity = out["ledger"]
        print(f"self-time ledger (sums to {capacity:.3f} s):")
        print(ledger.format_ledger(rows, capacity))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32}{value:>16.6g} {unit}")
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = out["failed"] == 0 and not out["problems"]
    common.emit(correct, out["attempted"], out["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

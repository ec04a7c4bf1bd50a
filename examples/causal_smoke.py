"""Causal profiler smoke: blame, alignment and validated what-if.

Run by the CI ``causal-smoke`` job.  Simulates one mini-app
configuration under two noise seeds, then drives the whole
``repro.causal`` surface through the CLI and the API:

* ``repro-causal blame`` -- builds the DAG, writes the blame report and
  Cube blame profile; the critical-path fingerprint must be identical
  across the two noise seeds under a deterministic logical mode.  A
  second blame of an MPI+OpenMP run (TeaLeaf-2) checks the call paths:
  every blamed path but ``<source>`` and ``<program>`` must be a path of
  the wait-state profile of the same trace and mode, and only the sink
  may sit at ``<program>`` in the critical-path table.
* ``repro-causal align`` -- overlays the two physical-timer runs on one
  Perfetto timeline; shared markers must land exactly.
* ``repro-causal whatif --validate`` -- the edited-replay prediction
  must match a full engine re-simulation **bit for bit** (the job's
  central assertion).
* ``repro-causal delayprop`` -- the injected-delay wavefront must be
  noise-invariant and ``drop_region`` must reproduce the delay-free
  baseline exactly.

Artifacts left for upload: ``causal_blame.json``,
``causal_blame.cube.json.gz``, ``causal_blame_omp.json``,
``causal_aligned.chrome.json``, ``causal_whatif.json``,
``causal_delayprop.json``.

Usage::

    PYTHONPATH=src python examples/causal_smoke.py
"""

import json
import sys

from repro.analysis import analyze_trace
from repro.causal import build_dag
from repro.cli import main_causal, main_run
from repro.clocks import timestamp_trace
from repro.cube import read_profile
from repro.measure import read_trace


def run(argv, main=main_causal):
    print(f"$ {' '.join(argv)}")
    rc = main(argv)
    if rc != 0:
        print(f"command failed with exit status {rc}", file=sys.stderr)
        sys.exit(1)


def main_smoke() -> int:
    # two recordings of the same configuration, different noise seeds
    run(["MiniFE-1", "--mode", "tsc", "--seed", "1",
         "-o", "causal_s1.trace.json.gz"], main=main_run)
    run(["MiniFE-1", "--mode", "tsc", "--seed", "2",
         "-o", "causal_s2.trace.json.gz"], main=main_run)

    # blame: report + profile, and seed-invariance of the causal structure
    run(["blame", "causal_s1.trace.json.gz", "--mode", "ltbb",
         "-o", "causal_blame.json", "--profile", "causal_blame.cube.json.gz"])
    report = json.load(open("causal_blame.json"))
    assert report["critical_path_len"] > 0, "empty critical path"
    assert report["total_wait"] > 0.0, "no waits attributed"
    fp2 = build_dag(read_trace("causal_s2.trace.json.gz"),
                    "ltbb").critical_path_fingerprint()
    assert report["critical_path_fingerprint"] == fp2, (
        "critical path fingerprint differs across noise seeds under ltbb")
    print("critical path bit-identical across noise seeds: ok")

    # call paths: an OpenMP run's blame uses the wait-state profile's paths
    run(["TeaLeaf-2", "--mode", "tsc", "--seed", "1",
         "-o", "causal_omp.trace.json.gz"], main=main_run)
    run(["blame", "causal_omp.trace.json.gz", "--mode", "ltbb",
         "--top", "1000000", "-o", "causal_blame_omp.json",
         "--profile", "causal_blame_omp.cube.json.gz"])
    blame = read_profile("causal_blame_omp.cube.json.gz")
    blamed = {blame.calltree.path(cp) for m in blame.metrics
              for (cp, _loc) in blame.cells(m)}
    profile = analyze_trace(timestamp_trace(
        read_trace("causal_omp.trace.json.gz"), "ltbb"))
    foreign = blamed - {("<source>",), ("<program>",)} - set(
        profile.calltree.paths())
    assert not foreign, f"blamed paths outside the profile: {sorted(foreign)[:3]}"
    rows = json.load(open("causal_blame_omp.json"))["rows"]
    at_root = [r["hops"] for r in rows if r["path"] == "<program>"]
    assert at_root in ([], [1]), f"<program> rows on the critical path: {at_root}"
    print("blame call paths are wait-state profile paths: ok")

    # alignment: overlay the two physical runs on one timeline
    run(["align", "causal_s1.trace.json.gz", "causal_s2.trace.json.gz",
         "-o", "causal_aligned.chrome.json"])
    doc = json.load(open("causal_aligned.chrome.json"))
    assert doc["traceEvents"], "empty aligned export"

    # what-if: the central assertion -- prediction == engine re-simulation
    run(["whatif", "causal_s1.trace.json.gz", "--mode", "ltbb",
         "--scale", "matvec=0.5", "--validate", "MiniFE-1", "--seed", "1",
         "-o", "causal_whatif.json"])
    doc = json.load(open("causal_whatif.json"))
    assert doc["validation"]["ok"], "what-if diverged from re-simulation"
    assert doc["validation"]["max_abs_diff"] == 0.0
    print("what-if bit-identical to full engine re-simulation: ok")

    # delay propagation: noise-invariant wavefront + drop-delay identity
    run(["delayprop", "--mode", "ltbb", "--seeds", "1", "2", "--iters", "6",
         "-o", "causal_delayprop.json"])
    doc = json.load(open("causal_delayprop.json"))
    assert doc["seed_invariant"], "delay wavefront varies with noise"
    assert all(doc["whatif_ok"].values()), "drop-delay what-if mismatch"

    print("causal smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())

"""Re-record ``digests.json``: the outputs the benchmark checks against.

Run from the repository root after a change that is meant to alter the
checked outputs (never to make a failing check pass)::

    python3 pipebench/record.py [EXPERIMENT ...]

For each experiment (default: every one the workloads use) it records
the digests of one cold campaign's logical mean profiles and of one
archive pass over a fresh trace.  Both are seed-independent by the
paper's claim, so any seed will do; the ones below are arbitrary.
"""

from __future__ import annotations

import json
import sys

import common


def main(argv) -> int:
    common.require_program()
    import repro
    import repro.causal
    import repro.clocks.streaming
    import repro.measure.shards
    import repro.scoring
    import repro.verify
    from repro.experiments import workflow as W

    import wl_archive

    names = argv or sorted({*wl_archive.SIZES["full"],
                            *wl_archive.SIZES["tiny"], "LULESH-2"})
    digests = common.load_digests() if common.DIGESTS.exists() else {}
    work = common.make_workdir("record")
    try:
        for name in names:
            trace = wl_archive._simulate(name, 12345)
            out = wl_archive._pass(repro, trace, work / name, 7,
                                   trace.regions.names[0])
            entry = digests.setdefault(name, {})
            entry["archive"] = wl_archive._observe(out)
            W._CACHE_DIR = work / f"cache-{name}"
            result = W.run_experiment(name, seed=3, workers=2)
            entry["campaign"] = {m: common.profile_digest(
                result.mean_profiles[m]) for m in common.LOGICAL}
            print(f"recorded {name}", flush=True)
    finally:
        common.remove_workdir(work)
    common.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Ingestion smoke: export, mutate, ingest, replay -- never crash.

Run by the CI ``ingest-smoke`` job.  Exercises the hardened
foreign-trace ingestion pipeline (docs/ingest.md) end to end:

* **round trip** -- a Chrome trace-event export with the lossless
  ``repro.raw`` sidecar re-ingests to a column-backed trace with the
  original's archive bytes, whose per-location clock finals are
  bit-identical to the original under every deterministic logical mode
  (lt1/ltloop/ltbb/ltstmt);
* **foreign corpus** -- the visible events of the same export are
  accepted with no duplicate drop (ING011) and no synthesized LEAVE:
  intervals that nest into two equal LEAVEs are two records;
* **fuzz contract** -- >= 200 seeded corpus mutations *per format*
  (Chrome lossless + foreign, comm-op doc + JSON-lines) are ingested;
  every input must either parse clean, repair with an ING-diagnosed
  report, or reject with an ING error diagnostic.  No uncaught
  exception, no hang, and every accepted trace passes ``sanitize_raw``
  with zero errors;
* **replay** -- an ingested comm-op program replays through the
  simulator under all six clock modes with finite runtimes.

Artifacts left for upload: ``ingest_fuzz.json`` (per-corpus fuzz
stats + ING rule histogram) and ``ingest_roundtrip.json`` (the clock
finals driven both ways).

Usage::

    PYTHONPATH=src python examples/ingest_smoke.py [N_PER_CORPUS]
"""

import json
import sys

from repro.ingest import ingest_bytes
from repro.ingest.fuzz import FUZZ_LIMITS, build_corpus, run_fuzz
from repro.ingest.replay import replay_clock_finals, replay_program
from repro.measure.config import MODES

LOGICAL = ("lt1", "ltloop", "ltbb", "ltstmt")


def check(name, ok, detail=""):
    mark = "ok" if ok else "FAIL"
    print(f"  [{mark}] {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        raise SystemExit(f"ingest smoke failed: {name}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    n_per_corpus = int(argv[0]) if argv else 200

    corpus = build_corpus()
    by_name = dict(corpus)

    # -- round trip: chrome export -> ingest -> bit-identical finals ----
    print("round trip (lossless Chrome export):")
    result = ingest_bytes(by_name["chrome-lossless"], name="export.json")
    check("accepted without repairs",
          result.report.accepted and not result.report.repairs)
    roundtrip = {}
    from repro.ingest.fuzz import _engine_trace
    from repro.measure import trace_archive_bytes

    original = _engine_trace()
    check("column-backed", result.trace.column_backed)
    check("archive bytes equal the original's",
          trace_archive_bytes(result.trace) == trace_archive_bytes(original))
    for mode in LOGICAL:
        want = replay_clock_finals(original, mode=mode)
        got = replay_clock_finals(result.trace, mode=mode)
        roundtrip[mode] = {"original": want, "ingested": got}
        check(f"{mode} finals bit-identical", got == want,
              f"final={got[-1]:.6g}")

    # -- foreign corpus: clamps only, every LEAVE kept ------------------
    print("foreign corpus (visible events only):")
    foreign = ingest_bytes(by_name["chrome-foreign"], name="foreign.json",
                           limits=FUZZ_LIMITS).report
    check("accepted", foreign.accepted,
          f"{len(foreign.repairs)} repair(s)")
    check("no duplicate drop", "ING011" not in foreign.rule_ids())
    check("no balance repair",
          not any("synthesized" in d.message for d in foreign.repairs))

    # -- replay: comm-op program under all six clock modes --------------
    print("comm-op replay:")
    prog = ingest_bytes(by_name["commops-doc"], name="ops.json").program
    for mode in MODES:
        res = replay_program(prog, mode=mode, seed=1)
        check(f"{mode} replays", res.runtime >= 0.0,
              f"runtime={res.runtime:.3g}s")

    # -- fuzz: >= n mutations per corpus entry, contract holds ----------
    print(f"fuzz ({n_per_corpus} mutations x {len(corpus)} corpora):")
    stats = run_fuzz(n_per_corpus=n_per_corpus, seed=0,
                     limits=FUZZ_LIMITS, corpus=corpus)
    print("  " + stats.format().replace("\n", "\n  "))
    check("no contract violations", stats.ok,
          f"{len(stats.failures)} violations")
    check("rejections carry ING diagnostics", stats.rejected > 0)
    check("salvage layer exercised", stats.repaired > 0)

    with open("ingest_fuzz.json", "w") as fh:
        json.dump({
            "n_per_corpus": n_per_corpus,
            "corpora": [name for name, _ in corpus],
            "n_inputs": stats.n_inputs,
            "accepted": stats.accepted,
            "repaired": stats.repaired,
            "rejected": stats.rejected,
            "failures": len(stats.failures),
            "rule_counts": stats.rule_counts,
        }, fh, indent=2)
    with open("ingest_roundtrip.json", "w") as fh:
        json.dump(roundtrip, fh, indent=2)
    print("wrote ingest_fuzz.json, ingest_roundtrip.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 pipebench/smoke.py

Runs every workload on tiny inputs (``--size tiny``), untraced and
traced, and requires exit code 0, ``correct: true`` and every metric of
``BENCHMARK.json`` printed with its unit.  Then it corrupts one recorded
digest for the ``campaign`` and ``archive`` checks and requires those
runs to fail: exit code 1, ``correct: false`` and a failed operation.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common

WORKLOADS = ("campaign", "archive", "serve")


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--seed", "1",
         "--seconds", "2", "--size", "tiny", *args],
        capture_output=True, text=True, cwd=str(common.ROOT), timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = _run("--workload", workload,
                                     "--trace", str(trace))
            tag = f"{workload} --trace {trace}"
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{tag}: exit {code}, result {result}\n{err}")
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json: {set(want) ^ set(got)}")
            print(f"ok   {tag}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)

    work = common.make_workdir("smoke")
    try:
        bad = common.load_digests()
        entry = bad["MiniFE-1"]
        entry["campaign"]["lt1"] = "0" * 64
        entry["archive"]["profiles"]["ltbb"] = "0" * 64
        path = work / "wrong-digests.json"
        path.write_text(json.dumps(bad))
        for workload in ("campaign", "archive"):
            code, result, _err = _run("--workload", workload, "--trace", "0",
                                      "--digests", str(path))
            if code != 1 or not result or result["correct"] \
                    or result["failed"] < 1:
                problems.append(f"{workload} with a wrong digest: exit "
                                f"{code}, result {result}")
            else:
                print(f"ok   {workload} fails on a wrong digest "
                      f"({result['failed']} failed)", flush=True)
    finally:
        common.remove_workdir(work)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

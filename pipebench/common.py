"""Shared helpers of the pipeline benchmark: paths, statistics, digests.

Everything here is benchmark-side; the program under test is reached
only through ``repro``'s public functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: the four deterministic logical clock modes (paper Sec. III); their
#: results must not change under noise
LOGICAL = ("lt1", "ltloop", "ltbb", "ltstmt")


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workdir(tag: str) -> Path:
    """A fresh scratch directory inside the checkout, also used as TMPDIR.

    Removed by :func:`remove_workdir`; nothing is written outside it.
    """
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=base))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    return work


def remove_workdir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)`` by nearest rank.  With fewer than
    eleven samples no such percentile exists and the maximum is
    returned as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    k = n - 11 if n >= 11 else n - 1
    return float(s[k]), 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    """Peak RSS (MiB) of the largest process: this one or any waited child.

    ``RUSAGE_CHILDREN`` covers every descendant that was waited for,
    including pool workers of a waited server process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: the probe loop's median time (``probe.py``) on the reference host, a
#: 2-vCPU VM running Python 3.11; see README "Host-speed normalization"
REF_PROBE_S = 0.0013


class Probe:
    """Host-speed samples from ``probe.py``, taken for the whole run."""

    def __init__(self, work: Path) -> None:
        self.path = work / "probe.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(self.path)],
            stdin=subprocess.PIPE)
        self.samples = []

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        if self.path.exists():
            self.samples = [tuple(map(float, line.split()))
                            for line in self.path.read_text().splitlines()]

    def factor(self, t0: float, t1: float) -> float:
        """REF_PROBE_S over the median probe time in ``[t0, t1]``.

        Scales a time measured in that interval to the reference host's
        speed.  Short intervals use the 5 samples nearest their middle.
        """
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if len(inside) < 5:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]
            inside = [dt for _t, dt in near]
        return REF_PROBE_S / median(inside)


def cpu_s() -> float:
    """User + system CPU seconds of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process and its live children."""
    tick = os.sysconf("SC_CLK_TCK")
    total, todo = 0.0, [pid]
    while todo:
        p = todo.pop()
        try:
            fields = Path(f"/proc/{p}/stat").read_text().rsplit(")", 1)[1]
            utime, stime = fields.split()[11:13]
            total += (int(utime) + int(stime)) / tick
            todo += [int(c) for c in Path(f"/proc/{p}/task/{p}/children")
                     .read_text().split()]
        except (OSError, ValueError):
            continue
    return total


# -- digests --------------------------------------------------------------------

#: significant digits of the floats a recorded digest covers (see README)
DIGITS = 10


def _rounded(obj):
    if isinstance(obj, float):
        return format(obj, f".{DIGITS}g")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def sha(obj, rounded: bool = False) -> str:
    """sha256 of a JSON-able object (keys sorted).

    Floats enter by ``repr``, or with ``rounded`` by :data:`DIGITS`
    significant digits.
    """
    text = json.dumps(_rounded(obj) if rounded else obj, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close_json(a: bytes, b: bytes) -> bool:
    """Two JSON documents equal once floats are cut to DIGITS digits."""
    return _rounded(json.loads(a)) == _rounded(json.loads(b))


def profile_cells(profile) -> list:
    """Severity cells keyed by call-path names, sorted.

    ``repro.cube.io.profile_doc`` writes cells in an order that depends
    on the noise seed even when every value is equal, hence the sort.
    """
    cells = []
    for metric in profile.metrics:
        for (cpid, loc), value in profile.cells(metric).items():
            cells.append((metric, list(profile.calltree.path(cpid)), loc,
                          value))
    cells.sort(key=lambda c: (c[0], c[1], c[2]))
    return cells


def profile_digest(profile, rounded: bool = True) -> str:
    """Digest of a profile's sorted cells (rounded unless told otherwise)."""
    return sha({"time_metrics": list(profile.time_metrics),
                "cells": profile_cells(profile)}, rounded=rounded)


def cells_apart(a, b) -> int:
    """Cells of two profiles that differ bit-wise; -1 if keys differ."""
    ca, cb = profile_cells(a), profile_cells(b)
    if [c[:3] for c in ca] != [c[:3] for c in cb]:
        return -1
    return sum(x[3] != y[3] for x, y in zip(ca, cb))


def trace_digest(trace) -> str:
    """Digest of a raw trace's full content (events, deltas, metadata)."""
    from repro.measure.columnar import TraceColumns

    cols = TraceColumns.from_raw(trace)
    h = hashlib.sha256()
    h.update(json.dumps([trace.mode, trace.runtime,
                         [list(lt) for lt in trace.locations],
                         list(trace.regions.names)]).encode("utf-8"))
    for lc in cols.locs:
        for name in lc.__slots__:
            h.update(getattr(lc, name).tobytes())
    return h.hexdigest()


def load_digests(path=None) -> dict:
    return json.loads(Path(path or DIGESTS).read_text())


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last stdout line."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)


def import_seconds(*modules: str, repeats: int = 3) -> float:
    """Median wall time of importing ``modules`` in a fresh interpreter."""
    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       cwd=str(ROOT))
        times.append(time.perf_counter() - t0)
    return median(times)


def rmtree(path) -> None:
    shutil.rmtree(path, ignore_errors=True)

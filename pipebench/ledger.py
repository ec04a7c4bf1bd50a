"""Traced runs: spans around the program's public entry points.

:func:`install` replaces each entry point listed in :data:`TARGETS` by a
timing wrapper, in its defining module or class and in every ``repro``
module that imported it by name, so calls made inside campaign and
service pool workers (forked after installation) are timed too.  A span
records its name, layer, process, start, end and *self* time (duration
minus the time of directly nested spans in the same thread).

Spans of the installing process stay in memory; a forked child appends
its spans to ``<spool>/<pid>.jsonl`` each time its outermost span closes,
and :meth:`Tracer.collect` reads them back.  Timestamps are
``time.perf_counter()``, which is system-wide monotonic on Linux, so spans
of different processes share one timeline.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _mode_of(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    return str(mode or args[0].mode)


def _fmt_of(path) -> str:
    p = str(path)
    return "npz" if p.endswith(".npz") else (
        "shards" if p.endswith(".shards") else "jsonl")


def _engine_kind(args, kwargs, result):
    return "ref" if args[0].measurement is None else "instrumented", 0


#: (module, attribute, layer, detail) -- ``detail(args, kwargs, result)``
#: returns a span-name suffix and a work count (events, nodes, ...)
TARGETS = [
    ("repro.sim.engine", "Engine.run", "sim", _engine_kind),
    ("repro.verify.linter", "lint_program", "verify", None),
    ("repro.verify.determinism", "analyze_determinism", "verify", None),
    ("repro.verify.sanitizer", "sanitize_raw", "verify", None),
    ("repro.verify.races", "find_races", "verify", None),
    ("repro.clocks.base", "timestamp_trace", "clocks",
     lambda a, k, r: (_mode_of(a, k), 0)),
    ("repro.clocks.streaming", "stream_clock_replay", "clocks",
     lambda a, k, r: (_mode_of(a, k), 0)),
    ("repro.analysis.analyzer", "analyze_trace", "analysis",
     lambda a, k, r: ("", a[0].trace.n_events)),
    ("repro.cube.profile", "CubeProfile.normalized", "cube", None),
    ("repro.cube.profile", "CubeProfile.mean", "cube", None),
    ("repro.cube.io", "write_profile", "cube", None),
    ("repro.cube.io", "read_profile", "cube", None),
    ("repro.scoring.jaccard", "jaccard_metric_callpath", "scoring", None),
    ("repro.measure.io", "write_trace", "measure",
     lambda a, k, r: (_fmt_of(a[1]), 0)),
    ("repro.measure.io", "read_trace", "measure",
     lambda a, k, r: (_fmt_of(a[0]), 0)),
    ("repro.causal.dag", "build_dag", "causal",
     lambda a, k, r: ("", r.n_nodes)),
    ("repro.causal.dag", "blame_profile", "causal", None),
    ("repro.causal.dag", "critical_path_table", "causal", None),
    ("repro.causal.whatif", "run_whatif", "causal", None),
    ("repro.ingest.pipeline", "ingest_bytes", "ingest", None),
    ("repro.serve.jobs", "execute_analysis_job", "serve", None),
    ("repro.serve.store", "ResultStore.get_bytes", "serve", None),
    ("repro.serve.store", "ResultStore.put_bytes", "serve", None),
]

#: ledger rows, in print order
LAYERS = ("sim", "verify", "measure", "clocks", "analysis", "cube",
          "scoring", "causal", "ingest", "serve")


class Span:
    __slots__ = ("name", "layer", "pid", "t0", "t1", "self_s", "count")

    def __init__(self, name, layer, pid, t0, t1, self_s, count):
        self.name, self.layer, self.pid = name, layer, pid
        self.t0, self.t1, self.self_s, self.count = t0, t1, self_s, count

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Span recorder shared by every wrapper installed in this process.

    Spans are recorded while ``enabled`` is true; children forked later
    inherit its value.  ``flag``, an optional shared ``multiprocessing``
    value, replaces it where already-forked children must follow a
    toggle too.
    """

    def __init__(self, spool: Path, flag=None) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.flag = flag
        self.enabled = True
        self.owner = os.getpid()
        self.spans = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self._local = threading.local()

    def on(self) -> bool:
        return self.enabled if self.flag is None else bool(self.flag.value)

    def wrap(self, fn, name: str, layer: str, detail=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on():
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1] += dur
                full, count = name, 0
                if detail is not None and done:
                    suffix, count = detail(args, kwargs, result)
                    full = f"{name}.{suffix}" if suffix else name
                tracer.spans.append(Span(full, layer, os.getpid(), t0, t1,
                                         dur - child, count))
                if not stack and os.getpid() != tracer.owner:
                    tracer.flush()

        return traced

    def flush(self) -> None:
        """Append this process's spans to its spool file."""
        rows = [[s.name, s.layer, s.pid, s.t0, s.t1, s.self_s, s.count]
                for s in self.spans]
        self.spans = []
        with open(self.spool / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in rows))

    def collect(self):
        """All spans so far: this process's plus every spooled child's."""
        return list(self.spans) + load_spool(self.spool)

    def reset(self) -> None:
        self.spans = []
        for path in self.spool.glob("*.jsonl"):
            path.unlink()


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS` (see module docstring)."""
    for mod_name, attr, layer, detail in TARGETS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, attr, layer,
                                                  detail))
            else:
                wrapped = tracer.wrap(raw, attr, layer, detail)
            setattr(cls, meth, wrapped)
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, attr, layer, detail)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)


# -- aggregation ----------------------------------------------------------------

def self_by_layer(spans) -> dict:
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += s.self_s
    return out


def total_by_name(spans, prefix: str) -> float:
    """Inclusive seconds of spans named ``prefix`` or ``prefix.<detail>``."""
    return sum(s.dur for s in spans
               if s.name == prefix or s.name.startswith(prefix + "."))


def durations(spans, name: str):
    return [s.dur for s in spans if s.name == name]


def count_by_name(spans, prefix: str) -> int:
    return sum(s.count for s in spans
               if s.name == prefix or s.name.startswith(prefix + "."))


def within(spans, t0: float, t1: float):
    return [s for s in spans if s.t0 >= t0 and s.t1 <= t1]


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of an obs counter over all label sets matching ``labels``."""
    total = 0.0
    for row in snapshot.get("metrics", snapshot).get("counters", ()):
        if row["name"] == name and all(
                row["labels"].get(k) == v for k, v in labels.items()):
            total += row["value"]
    return total


def format_ledger(rows: dict, capacity: float) -> str:
    """Self-time table; ``rows`` must already sum to ``capacity``."""
    lines = [f"  {'row':<28}{'seconds':>10}{'share':>9}"]
    for name, value in rows.items():
        share = value / capacity if capacity else 0.0
        lines.append(f"  {name:<28}{value:>10.3f}{share:>9.1%}")
    lines.append(f"  {'total':<28}{sum(rows.values()):>10.3f}"
                 f"{'(= ' + format(capacity, '.3f') + ')':>12}")
    return "\n".join(lines)


MODES = ("tsc", "lt1", "ltloop", "ltbb", "ltstmt", "lthwctr")
FORMATS = ("jsonl", "npz", "shards")


def _self_of(spans, *names) -> float:
    return sum(s.self_s for s in spans
               if any(s.name == n or s.name.startswith(n + ".")
                      for n in names))


def layer_metrics(spans, snap: dict, per: float = 1.0) -> dict:
    """Per-layer metrics every workload reports, from spans + obs counters.

    Times are self seconds divided by ``per`` (the number of operations
    the spans cover); layers a workload does not reach report 0.
    """
    out = {}

    def put(name, value):
        out[name] = value / per

    put("verify.preflight_s", _self_of(spans, "lint_program",
                                       "analyze_determinism"))
    put("verify.sanitize_s", _self_of(spans, "sanitize_raw"))
    put("verify.races_s", _self_of(spans, "find_races"))
    for fmt in FORMATS:
        put(f"measure.write_s.{fmt}", _self_of(spans, f"write_trace.{fmt}"))
        put(f"measure.read_s.{fmt}", _self_of(spans, f"read_trace.{fmt}"))
        out[f"measure.bytes.{fmt}"] = 0.0
    put("clocks.replay_s", _self_of(spans, "timestamp_trace"))
    for mode in MODES:
        put(f"clocks.replay_s.{mode}", _self_of(spans,
                                                f"timestamp_trace.{mode}"))
    put("clocks.stream_replay_s", _self_of(spans, "stream_clock_replay"))
    replays = counter_total(snap, "clocks.replays")
    compiles = counter_total(snap, "clocks.plan_compiles")
    out["clocks.plan_reuse_ratio"] = 1.0 - compiles / replays if replays \
        else 0.0
    analyze = _self_of(spans, "analyze_trace")
    put("analysis.analyze_s", analyze)
    out["analysis.events_per_s"] = (count_by_name(spans, "analyze_trace")
                                    / analyze if analyze else 0.0)
    put("cube.profile_s", _self_of(spans, "CubeProfile.normalized",
                                   "CubeProfile.mean"))
    put("cube.io_s", _self_of(spans, "write_profile", "read_profile"))
    put("scoring.jaccard_s", _self_of(spans, "jaccard_metric_callpath"))
    put("causal.dag_s", _self_of(spans, "build_dag"))
    put("causal.blame_s", _self_of(spans, "blame_profile",
                                   "critical_path_table"))
    put("causal.whatif_s", _self_of(spans, "run_whatif"))
    put("causal.dag_nodes", count_by_name(spans, "build_dag"))
    for name in ("sim.ref_s", "sim.instrumented_s", "sim.events",
                 "sim.events_per_s", "sim.fastpath_hit_ratio",
                 "sim.scheduler_steps", "experiments.tasks",
                 "experiments.retries", "experiments.tail_idle_s",
                 "experiments.serial_idle_s", "ingest.ingest_ms",
                 "ingest.repairs", "serve.job_ms", "serve.queue_wait_ms",
                 "serve.store_get_ms", "serve.store_put_ms",
                 "serve.hit_ratio", "serve.mem_hit_ratio",
                 "serve.jobs_executed", "serve.coalesced", "serve.shed",
                 "serve.job_retries", "serve.batch_size_mean",
                 "serve.hit_p50_ms", "serve.miss_p50_ms",
                 "serve.write_p50_ms", "serve.tail_ms"):
        out[name] = 0.0
    return out


def load_spool(spool: Path):
    """Spans spooled by other processes (see :class:`Tracer`)."""
    out = []
    for path in sorted(Path(spool).glob("*.jsonl")):
        out.extend(Span(*json.loads(line))
                   for line in path.read_text().splitlines())
    return out

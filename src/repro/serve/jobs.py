"""Job functions the service executes inside process-pool workers.

Every function here is module-level (picklable across the pool
boundary), takes only plain-data arguments, and returns the *canonical
bytes* of its result -- the exact payload the HTTP response carries and
the store caches, which is what makes the byte-identity invariant
checkable end to end.

Failures are wrapped in :class:`repro.experiments.workflow.
CampaignTaskError` exactly like campaign runs, so the service's retry
supervisor treats experiment and analysis jobs uniformly and the
original traceback survives the pool boundary.

Content addressing of analysis jobs: the job's full parameter set (op,
trace hashes, mode, edits, package/cache versions) is hashed through
:func:`repro.obs.build_manifest` with kind ``"serve.analysis"``; the
resulting manifest rides in the response document so clients can trace
any served artifact back to its inputs.

A worker keeps state across analysis jobs: the traces it decoded, in a
per-process LRU keyed by the sha256 of the archive bytes (see
:class:`_TraceCache`), so a repeat analysis of an upload reuses the
decoded columns and the plans compiled on them.
"""

from __future__ import annotations

import os
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro import obs

__all__ = [
    "ANALYSIS_OPS",
    "TRACE_CACHE_EVENTS",
    "analysis_manifest",
    "execute_experiment_job",
    "execute_analysis_job",
]

#: analysis operations the service accepts on uploaded trace archives
ANALYSIS_OPS = ("blame", "replay", "score", "whatif")

#: events of decoded traces one process keeps between analysis jobs: a
#: decoded trace with its sync, replay and analysis plans compiled holds
#: 210-260 bytes per event, so 21-26 MiB (docs/serving.md, "Pool workers
#: keep decoded traces")
TRACE_CACHE_EVENTS = 100_000


def analysis_manifest(op: str, params: dict) -> dict:
    """Provenance manifest (hence content address) of one analysis job."""
    from repro.experiments.workflow import CACHE_VERSION

    config = {
        "op": op,
        "params": params,
        "cache_version": CACHE_VERSION,
        "version": obs.package_version(),
    }
    return obs.build_manifest("serve.analysis", config,
                              environment=obs.default_environment())


def _rewrap(fn, *args, tag):
    from repro.experiments.workflow import CampaignTaskError
    from repro.measure.io import TraceFormatError

    try:
        return fn(*args)
    except TraceFormatError:
        # typed, picklable, and the client's fault: crosses the pool
        # boundary intact so the service can answer 400 instead of 500
        raise
    except Exception:
        name, mode = tag
        raise CampaignTaskError(name, mode, 0, 0,
                                traceback.format_exc()) from None


def execute_experiment_job(name: str, seed: int, cache_dir: str,
                           max_bytes: Optional[int],
                           preflight: bool = False) -> bytes:
    """Run (or load) one experiment campaign; return its canonical bytes.

    Runs serially inside this worker -- the service shards *across*
    jobs, nesting pools would oversubscribe -- with the shared store
    rooted at ``cache_dir``, so the computed result is immediately warm
    for every future request and for offline ``run_experiment`` calls
    against the same cache.  Campaign-internal supervision (checkpoints,
    retry, quarantine) applies unchanged; the store's offline lease also
    coordinates with any concurrent CLI campaign on the same key.
    """

    def work():
        from repro.experiments import workflow as W

        W._CACHE_DIR = Path(cache_dir)
        if max_bytes is not None:
            os.environ["REPRO_CACHE_MAX_BYTES"] = str(max_bytes)
        result = W.run_experiment(name, seed=seed, use_cache=True,
                                  preflight=preflight, workers=1)
        return W.serialize_result(result)

    return _rewrap(work, tag=(name, "serve.experiment"))


def execute_analysis_job(op: str, archive_path: str, params: dict,
                         extra_archive: Optional[str] = None) -> bytes:
    """Run one trace analysis; return canonical JSON bytes.

    ``archive_path`` (and ``extra_archive`` for two-trace ops like
    ``score``) point at content-addressed uploads in the shared store;
    ``params`` is the validated request body.  The response document
    embeds the job's provenance manifest.
    """

    def work():
        from repro.obs.provenance import canonical_json

        doc = _ANALYSIS_IMPL[op](archive_path, params, extra_archive)
        doc["format"] = "repro-analysis-1"
        doc["op"] = op
        doc["manifest"] = {
            k: v for k, v in analysis_manifest(op, params).items()
            if k != "environment"
        }
        return (canonical_json(doc) + "\n").encode("utf-8")

    return _rewrap(work, tag=(op, "serve.analysis"))


# ---------------------------------------------------------------------------
# per-op implementations (run inside the worker)
# ---------------------------------------------------------------------------


class _TraceCache:
    """LRU of decoded traces, keyed by the sha256 of their archive bytes
    (:func:`repro.measure.io.archive_hash`, an upload's content address)
    and bounded by ``max_events`` events in all.

    :meth:`load` reads and hashes the file's bytes on every call and, on
    a miss, decodes exactly those bytes: an archive replaced or rewritten
    in place is decoded afresh, and one that fails to decode is never
    kept.  A hit returns the same column-backed trace, with the plans
    memoized on its columns; no op converts or edits a trace, which the
    event budget relies on.  A trace over the budget is never kept.  A
    pool worker runs one job at a time, so there is no lock.
    """

    def __init__(self, max_events: int) -> None:
        self.max_events = max_events
        self.events = 0
        self._traces: OrderedDict = OrderedDict()

    def load(self, path: str):
        from repro.measure.io import TraceFormatError, archive_hash, decode_trace

        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise TraceFormatError(
                path, f"unreadable archive: {type(exc).__name__}: {exc}"
            ) from exc
        key = archive_hash(data)
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            obs.counter("serve.trace_cache", result="hit").inc()
            return trace
        obs.counter("serve.trace_cache", result="miss").inc()
        trace = decode_trace(data, path)
        if trace.n_events <= self.max_events:
            self._traces[key] = trace
            self.events += trace.n_events
            while self.events > self.max_events:
                _key, old = self._traces.popitem(last=False)
                self.events -= old.n_events
                obs.counter("serve.trace_cache", result="evict").inc()
        return trace

    def clear(self) -> None:
        self._traces.clear()
        self.events = 0


_TRACES = _TraceCache(TRACE_CACHE_EVENTS)


def _load_trace(path: str):
    return _TRACES.load(path)


def _op_replay(archive_path: str, params: dict, _extra) -> dict:
    """Clock replay: final per-location clock values under ``mode``."""
    from repro.clocks import timestamp_trace

    trace = _load_trace(archive_path)
    mode = params.get("mode") or trace.mode
    tt = timestamp_trace(trace, mode,
                         counter_seed=int(params.get("counter_seed", 0)))
    finals = [float(t[-1]) if len(t) else 0.0 for t in tt.times]
    return {
        "mode": tt.mode,
        "n_events": trace.n_events,
        "locations": [list(lt) for lt in trace.locations],
        "finals": finals,
        "makespan": max(finals) if finals else 0.0,
    }


def _op_blame(archive_path: str, params: dict, _extra) -> dict:
    """Causal blame: critical path + wait-state attribution."""
    from repro.causal import blame_profile, build_dag, critical_path_table

    trace = _load_trace(archive_path)
    dag = build_dag(trace, params.get("mode"),
                    counter_seed=int(params.get("counter_seed", 0)))
    prof = blame_profile(dag)
    rows = critical_path_table(dag, top=int(params.get("top", 10)))
    return {
        "mode": dag.mode,
        "makespan": dag.makespan,
        "total_wait": dag.total_wait(),
        "critical_path_len": len(dag.critical_path()),
        "critical_path_fingerprint": dag.critical_path_fingerprint(),
        "rows": [{"path": p, "hops": h, "work": wk, "wait": wt}
                 for p, h, wk, wt in rows],
        "blame": {metric: sum(prof.cells(metric).values())
                  for metric in prof.metrics},
    }


def _op_score(archive_path: str, params: dict, extra_archive) -> dict:
    """Generalized Jaccard score of two traces' analysis profiles."""
    from repro.analysis import analyze_trace
    from repro.clocks import timestamp_trace
    from repro.scoring import jaccard_metric_callpath

    if extra_archive is None:
        raise ValueError("score needs two traces (trace, trace_b)")
    mode = params.get("mode")
    counter_seed = int(params.get("counter_seed", 0))

    def profile(path):
        trace = _load_trace(path)
        tt = timestamp_trace(trace, mode or trace.mode,
                             counter_seed=counter_seed)
        return analyze_trace(tt).normalized()

    a, b = profile(archive_path), profile(extra_archive)
    return {"mode": mode or "per-trace", "score": jaccard_metric_callpath(a, b)}


def _op_whatif(archive_path: str, params: dict, _extra) -> dict:
    """Edited-cost what-if replay (logical modes only)."""
    from repro.causal import drop_region, run_whatif, scale_rank, scale_region

    edits = []
    for region, factor in dict(params.get("scale", {})).items():
        edits.append(scale_region(region, float(factor)))
    for rank, factor in dict(params.get("scale_rank", {})).items():
        edits.append(scale_rank(int(rank), float(factor)))
    edits.extend(drop_region(r) for r in params.get("drop", []))
    if not edits:
        raise ValueError("whatif needs edits (scale/scale_rank/drop)")
    trace = _load_trace(archive_path)
    result = run_whatif(trace, edits, params.get("mode"))
    return dict(result.to_json())


_ANALYSIS_IMPL = {
    "replay": _op_replay,
    "blame": _op_blame,
    "score": _op_score,
    "whatif": _op_whatif,
}

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

The two upload jobs, :func:`check_upload` (``PUT /v1/traces``) and
:func:`ingest_upload` (``POST /v1/ingest``), run in the service's upload
process: every byte a client uploads is parsed there, never in the
event-loop process.  They answer what the route answers instead of
raising for the client's faults.  The service runs every job through
:func:`observed`, which brings the job's metrics back with its result.
"""

from __future__ import annotations

import os
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

from repro import obs

__all__ = [
    "ANALYSIS_OPS",
    "TRACE_CACHE_EVENTS",
    "analysis_manifest",
    "observed",
    "execute_experiment_job",
    "execute_analysis_job",
    "check_upload",
    "ingest_upload",
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


def observed(fn, *args):
    """``fn(*args)`` under a fresh :class:`repro.obs.ObsSession`; returns
    ``(result, metrics)``, ``metrics`` the session's metrics snapshot.

    The service runs every pool job through this and merges ``metrics``
    into its own session, so a job's counters and histograms reach the
    server's ``/metrics``; its spans and manifests go with the session
    instead of piling up in the one the process inherited at fork.  A
    job that raises brings no metrics back.  ``fn`` crosses the pool
    boundary by reference: the process calls what its module holds
    under that name, a wrapper installed before the fork included.
    """
    session = obs.ObsSession()
    with obs.scoped(session):
        result = fn(*args)
    return result, session.metrics.snapshot()


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


def check_upload(data: bytes, name: str) -> Optional[Tuple[str, str]]:
    """``PUT /v1/traces``'s check of the archive bytes ``data`` (``name``
    gives the format, as :func:`repro.measure.io.decode_trace` reads it):
    ``None`` when they decode and the sanitizer finds no error, else the
    400's ``(error, detail)`` -- the first errors it finds, by the rule
    ``/v1/ingest`` applies to its output.
    """
    from repro.measure.io import TraceFormatError, decode_trace
    from repro.verify.rules import Severity
    from repro.verify.sanitizer import sanitize_raw

    try:
        trace = decode_trace(data, name)
    except TraceFormatError as exc:
        return "malformed trace archive", str(exc)
    errors = [f"{d.rule_id}: {d.message}" for d in sanitize_raw(trace)
              if d.severity == Severity.ERROR]
    return ("trace fails the sanitizer", "; ".join(errors[:3])) \
        if errors else None


def ingest_upload(data: bytes, name: str, fmt: Optional[str],
                  max_bytes: int) -> Tuple[bool, dict, Optional[bytes]]:
    """``POST /v1/ingest``'s work on the upload ``data`` (``max_bytes``
    caps its inflated size): ``(accepted, doc, archive)``.

    An accepted trace comes back as its npz archive bytes
    (:func:`repro.measure.io.npz_archive_bytes`, deterministic, so one
    export always gets one content address) beside the response document
    (``kind`` and ``report``); an accepted comm-op program as its
    normalized op document inline (``archive`` is ``None``).  A rejection
    is ``(False, report, None)`` with the ingest report as a dict.
    """
    from repro.ingest import IngestError, IngestLimits, ingest_bytes
    from repro.ingest.commops import commops_doc
    from repro.measure.io import npz_archive_bytes

    try:
        result = ingest_bytes(data, name=name, fmt=fmt,
                              limits=IngestLimits(max_bytes=max_bytes))
    except IngestError as exc:
        return False, exc.report.to_dict(), None
    doc = {"kind": result.kind, "report": result.report.to_dict()}
    if result.kind == "trace":
        return True, doc, npz_archive_bytes(result.trace)
    doc["n_ranks"] = result.program.n_ranks
    doc["ops"] = commops_doc(result.program)["ops"]
    return True, doc, None


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

"""`repro-serve`: asyncio analysis service over the shared result store.

A stdlib-only HTTP/1.1 service (``asyncio.start_server``; no third-party
web framework) that accepts experiment configs and trace-archive
analysis requests and answers them from the same content-addressed
store as offline ``run_experiment`` calls.  The request path is a
funnel, cheapest exit first:

1. **quota** -- per-tenant token bucket (:mod:`repro.serve.quota`);
   an empty bucket answers ``429`` with an exact ``Retry-After``.
2. **warm cache** -- the in-memory bytes LRU, then the disk store
   (:mod:`repro.serve.store`).  Warm requests never touch the process
   pool; the ``serve.cache_hits`` counter and the ``X-Repro-Cache``
   response header say which tier answered.
3. **single flight** -- concurrent requests for the same content
   address coalesce onto one in-flight future (``serve.coalesced``);
   exactly one computation runs no matter how many clients ask.
4. **backpressure** -- a bounded dispatch queue; when it fills, the
   service sheds load with ``503`` + ``Retry-After``.  Expensive
   experiment jobs shed at half depth, cheap analysis jobs only when
   the queue is truly full -- under overload the service degrades to a
   cache/analysis server instead of collapsing.
5. **dispatch** -- an adaptive batcher drains the queue and shards the
   batch across a process pool (``resolve_workers`` sizing, fork
   context), each job under the campaign supervisor's watchdog/retry
   discipline (bounded attempts, timeout per attempt).  A pool whose
   worker died is replaced, and the job retried on the new one.

Uploads (``PUT /v1/traces``, ``POST /v1/ingest``) are parsed in one
upload process of their own, started and stopped with the pool and
replaced when it dies (by the same helper as the pool); the event-loop
process only hashes, stores and answers bytes.  Every pool job's
metrics come back with its result and are merged into this process's
``/metrics``.

Responses for experiment requests are the workflow's canonical result
serialization, so served bytes are bit-identical to
``serialize_result(run_experiment(...))`` -- the suite asserts equality.
"""

from __future__ import annotations

import asyncio
import json
import re
import traceback
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.experiments import workflow as W
from repro.experiments.configs import EXPERIMENTS
from repro.measure.io import (
    UPLOAD_SUFFIXES,
    TraceFormatError,
    archive_hash,
    archive_suffix,
    atomic_write_bytes,
    quarantine,
    store_archive_bytes,
)
from repro.serve import jobs as J
from repro.serve.quota import QuotaManager
from repro.serve.store import ResultStore, resolve_cache_max_bytes

__all__ = ["ServeConfig", "AnalysisService", "Job"]

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"

_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: a trace digest as uploads answer it: a lowercase hex sha256
_DIGEST = re.compile(r"[0-9a-f]{64}")

#: the suffixes an upload may be stored under, in the order their file
#: names sort (the names share the ``cas-<digest>-trace`` prefix)
_STORED_SUFFIXES = tuple(sorted(UPLOAD_SUFFIXES))

#: sentinel body from ``_read_request`` for a declared-oversize request
#: (the body is never read; the connection must close after the 413)
_OVERSIZE = object()

#: the 500 of an upload whose process died under it
_DIED = "the upload process died parsing this upload"

_STATUS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Tunables of one service instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 8337
    workers: Optional[int] = None        #: pool size; None -> resolve_workers
    cache_dir: Optional[str] = None      #: store root; None -> workflow cache
    cache_max_bytes: Optional[int] = None  #: None -> REPRO_CACHE_MAX_BYTES
    queue_limit: int = 64                #: dispatch queue bound (backpressure)
    batch_max: int = 8                   #: max jobs drained per dispatch round
    tenant_rate: float = 20.0            #: quota tokens/second per tenant
    tenant_burst: float = 40.0           #: quota bucket depth
    job_timeout: float = 300.0           #: watchdog seconds per job attempt
    max_job_attempts: int = 2            #: bounded retries (campaign style)
    mem_cache_entries: int = 128         #: in-memory response-bytes LRU size
    max_body_bytes: int = 64 * 1024 * 1024  #: request body bound
    start_dispatcher: bool = True        #: False -> jobs queue but never run
    time_fn: Callable[[], float] = field(default=None)  # type: ignore[assignment]


class Job:
    """One queued computation: content address + how to produce it."""

    __slots__ = ("key", "kind", "fn", "args", "future", "attempts")

    def __init__(self, key: str, kind: str, fn, args: tuple,
                 future: "asyncio.Future[bytes]") -> None:
        self.key = key
        self.kind = kind          # "experiment" (expensive) | "analysis"
        self.fn = fn
        self.args = args
        self.future = future
        self.attempts = 0


class AnalysisService:
    """The asyncio HTTP service; see the module docstring for the funnel."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        root = Path(self.config.cache_dir) if self.config.cache_dir \
            else W._CACHE_DIR
        self.store = ResultStore(
            root, max_bytes=resolve_cache_max_bytes(self.config.cache_max_bytes))
        kwargs = {}
        if self.config.time_fn is not None:
            kwargs["time_fn"] = self.config.time_fn
        self.quotas = QuotaManager(self.config.tenant_rate,
                                   self.config.tenant_burst, **kwargs)
        self.n_workers = W.resolve_workers(self.config.workers)
        self._mem: "OrderedDict[str, bytes]" = OrderedDict()
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._queue: "deque[Job]" = deque()
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._uploads: Optional[ProcessPoolExecutor] = None
        self._job_ewma = 1.0   # seconds; drives Retry-After on shed
        self._closing = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        if obs.active() is None:
            obs.enable()
        self.store.root.mkdir(parents=True, exist_ok=True)
        self.store.sweep_staging()
        self._pool = _fork_pool(self.n_workers)
        # one upload process: uploads ran one at a time under this
        # process's interpreter lock before they left it
        self._uploads = _fork_pool(1)
        if self.config.start_dispatcher:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """Bound port (useful with ``port=0`` in tests)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for job in self._queue:
            if not job.future.done():
                job.future.cancel()
        self._queue.clear()
        for pool in (self._pool, self._uploads):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def resume_dispatcher(self) -> None:
        """Start the dispatcher late (tests boot with it paused)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())
            self._wake.set()

    # -- HTTP plumbing ------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while not self._closing:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                if body is _OVERSIZE:
                    payload = _jerr(
                        f"request body exceeds the "
                        f"{self.config.max_body_bytes} byte limit")
                    self._write_response(writer, 413, _JSON, payload,
                                         {}, False)
                    await writer.drain()
                    break
                try:
                    status, ctype, payload, extra = await self._route(
                        method, path, headers, body)
                except Exception:
                    status, ctype, extra = 500, _JSON, {}
                    payload = _jerr("internal error", traceback.format_exc())
                keep = headers.get("connection", "").lower() != "close"
                self._write_response(writer, status, ctype, payload,
                                     extra, keep)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
        except (ConnectionResetError, OSError):
            return None
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 3:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if not hline or hline in (b"\r\n", b"\n"):
                break
            name, _sep, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return None
        if length < 0:
            return None
        if length > self.config.max_body_bytes:
            # do not read the body: answer 413 and drop the connection
            return method, target, headers, _OVERSIZE
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        ctype: str, payload: bytes, extra: Dict[str, str],
                        keep: bool) -> None:
        head = [f"HTTP/1.1 {status} {_STATUS.get(status, 'Unknown')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(payload)}",
                f"Connection: {'keep-alive' if keep else 'close'}"]
        head.extend(f"{k}: {v}" for k, v in extra.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)

    # -- routing ------------------------------------------------------------
    async def _route(self, method: str, target: str,
                     headers: Dict[str, str],
                     body: bytes) -> Tuple[int, str, bytes, Dict[str, str]]:
        url = urlsplit(target)
        path, query = url.path.rstrip("/") or "/", parse_qs(url.query)
        obs.counter("serve.requests", route=path.split("/v1/")[-1]).inc()
        if path == "/healthz" and method == "GET":
            return self._get_healthz()
        if path == "/metrics" and method == "GET":
            return self._get_metrics(query)
        if path == "/v1/experiment" and method == "POST":
            return await self._post_experiment(headers, body)
        if path == "/v1/analyze" and method == "POST":
            return await self._post_analyze(headers, body)
        if path == "/v1/traces" and method == "PUT":
            return await self._put_trace(headers, body)
        if path == "/v1/ingest" and method == "POST":
            return await self._post_ingest(headers, body)
        if path.startswith("/v1/traces/") and method == "GET":
            return self._get_trace(path.rsplit("/", 1)[1])
        if path.startswith("/v1/results/") and method == "GET":
            return self._get_result(path.rsplit("/", 1)[1])
        known = (path in ("/healthz", "/metrics", "/v1/experiment",
                          "/v1/analyze", "/v1/traces", "/v1/ingest")
                 or path.startswith(("/v1/traces/", "/v1/results/")))
        if known:
            return 405, _JSON, _jerr(f"{method} not allowed on {path}"), {}
        return 404, _JSON, _jerr(f"no route {path}"), {}

    # -- read-only endpoints ------------------------------------------------
    def _get_healthz(self):
        doc = {
            "status": "ok",
            "queue_depth": len(self._queue),
            "queue_limit": self.config.queue_limit,
            "inflight": len(self._inflight),
            "workers": self.n_workers,
            "store_bytes": self.store.total_bytes(),
            "store_max_bytes": self.store.max_bytes,
            "tenants": self.quotas.snapshot(),
        }
        return 200, _JSON, _jdoc(doc), {}

    def _get_metrics(self, query):
        session = obs.active()
        snapshot = session.snapshot() if session else {"metrics": {}}
        if query.get("format", [""])[0] == "json":
            return 200, _JSON, _jdoc(snapshot), {}
        text = obs.prometheus_text(snapshot)
        return 200, _TEXT, text.encode("utf-8"), {}

    def _get_result(self, key: str):
        data = self._cached(key)
        if data is None:
            return 404, _JSON, _jerr(f"no cached result {key}"), {}
        return 200, _JSON, data, {"X-Repro-Cache": "hit"}

    # -- trace uploads ------------------------------------------------------
    async def _put_trace(self, headers, body):
        ok, retry = self._admit(headers)
        if not ok:
            return retry
        name = headers.get("x-archive-name", "trace.trace.json.gz")
        try:
            suffix = archive_suffix(name)
        except ValueError as exc:
            return 400, _JSON, _jerr(str(exc)), {}
        # the upload process decodes the archive and runs the sanitizer,
        # by the rule /v1/ingest applies to its output: an upload that
        # does not decode, or that has errors, is quarantined and
        # answered with the first findings instead of failing later
        # /v1/analyze jobs
        status = 400
        try:
            problem = await self._upload(J.check_upload, body, name)
        except BrokenProcessPool:
            status, problem = 500, (_DIED,)
        if problem:
            moved = self._quarantine(
                body, f"cas-{archive_hash(body)[:20]}-trace{suffix}")
            obs.counter("serve.upload_rejects").inc()
            return status, _JSON, _jerr(*problem), {
                "X-Repro-Quarantine": moved or "deleted"}
        digest, path = store_archive_bytes(
            body, self.store.root, suffix=suffix, prefix="cas-")
        self.store.evict(protect=(path.name,))
        return 201, _JSON, _jdoc({"hash": digest, "path": path.name}), {}

    async def _post_ingest(self, headers, body):
        """Hardened ingestion of a foreign trace upload.

        Accepted Chrome inputs are stored content-addressed as npz
        archives (immediately analyzable via ``/v1/analyze``); accepted
        comm-op inputs return their normalized op document inline.
        Rejected bytes are quarantined beside the store (``*.corrupt-N``)
        and answered ``400`` with the full ingest report.
        """
        ok, retry = self._admit(headers)
        if not ok:
            return retry
        name = headers.get("x-archive-name", "<upload>")
        fmt = headers.get("x-ingest-format") or None
        stash = f"ingest-{archive_hash(body)[:20]}.upload"
        try:
            accepted, doc, archive = await self._upload(
                J.ingest_upload, body, name, fmt, self.config.max_body_bytes)
        except BrokenProcessPool:
            moved = self._quarantine(body, stash) or "deleted"
            return 500, _JSON, _jerr(_DIED), {"X-Repro-Quarantine": moved}
        if not accepted:
            doc["quarantine_path"] = self._quarantine(body, stash)
            return 400, _JSON, _jdoc(
                {"error": "ingest rejected", "report": doc}), {}
        if archive is not None:
            digest, path = store_archive_bytes(
                archive, self.store.root, suffix=".npz", prefix="cas-")
            self.store.evict(protect=(path.name,))
            doc["hash"] = digest
            doc["path"] = path.name
        return 201, _JSON, _jdoc(doc), {}

    def _quarantine(self, body: bytes, name: str) -> Optional[str]:
        """Write refused upload bytes beside the store as ``name`` and move
        them aside at once; the quarantined file's name, or ``None``."""
        path = self.store.root / name
        try:
            atomic_write_bytes(path, body)
            moved = quarantine(path)
        except OSError:
            moved = None
        return moved.name if moved else None

    async def _upload(self, fn, *args):
        """``fn(*args)`` in the upload process (see :meth:`_submit`).

        A process found dead before the upload reached it is replaced
        and the upload sent to the new one.  One that dies under the
        upload is replaced too, and ``BrokenProcessPool`` reaches the
        route, which quarantines the upload and answers 500.
        """
        pool = self._uploads
        try:
            future = self._submit(pool, fn, *args)
        except BrokenProcessPool:
            pool = self._replace_pool("_uploads", pool)
            future = self._submit(pool, fn, *args)
        try:
            return await self._merged(future)
        except BrokenProcessPool:
            obs.counter("serve.upload_crashes").inc()
            self._replace_pool("_uploads", pool)
            raise

    def _trace_path(self, digest: str) -> Optional[Path]:
        """The stored upload of ``digest``, or ``None`` if there is none.

        Probes the names :func:`store_archive_bytes` can give it, first in
        name order wins.  Raises ``ValueError`` unless ``digest`` is a
        lowercase hex sha256.
        """
        if not _DIGEST.fullmatch(digest):
            raise ValueError(
                f"trace {digest!r} is not a sha256 digest (64 lowercase hex)")
        for suffix in _STORED_SUFFIXES:
            path = self.store.root / f"cas-{digest[:20]}-trace{suffix}"
            if path.is_file():
                return path
        return None

    def _get_trace(self, digest: str):
        try:
            path = self._trace_path(digest)
        except ValueError as exc:
            return 400, _JSON, _jerr(str(exc)), {}
        if path is None:
            return 404, _JSON, _jerr(f"no trace {digest}"), {}
        self.store.touch(path.name)
        return 200, "application/octet-stream", path.read_bytes(), {}

    # -- compute endpoints --------------------------------------------------
    async def _post_experiment(self, headers, body):
        ok, retry = self._admit(headers)
        if not ok:
            return retry
        try:
            req = json.loads(body.decode("utf-8"))
            name, seed = str(req["name"]), int(req.get("seed", 0))
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return 400, _JSON, _jerr(f"bad request body: {exc}"), {}
        if name not in EXPERIMENTS:
            return 404, _JSON, _jerr(f"unknown experiment {name!r}"), {}
        # response bytes cache as a blob beside the workflow's result dir;
        # a dir cached by an offline campaign still answers without the
        # pool via the loader fallback below
        key = W.cache_key(name, seed) + ".body"
        args = (name, seed, str(self.store.root), self.store.max_bytes)
        return await self._serve_computed(
            key, "experiment", J.execute_experiment_job, args,
            loader=lambda: self._load_offline_result(name, seed))

    def _load_offline_result(self, name: str, seed: int) -> Optional[bytes]:
        """Serialize a result dir cached by an offline campaign (no pool).

        Runs in a thread off the event loop.  Any load failure returns
        ``None`` -- the request falls through to a pool computation,
        which re-runs the campaign supervisor's own corruption handling.
        """
        prev = self.store.root / W.cache_key(name, seed)
        if not prev.is_dir():
            return None
        try:
            return W.serialize_result(W._load(prev, name, seed))
        except Exception:
            return None

    async def _post_analyze(self, headers, body):
        ok, retry = self._admit(headers)
        if not ok:
            return retry
        try:
            req = json.loads(body.decode("utf-8"))
            op = str(req["op"])
            trace = str(req["trace"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return 400, _JSON, _jerr(f"bad request body: {exc}"), {}
        if op not in J.ANALYSIS_OPS:
            return 400, _JSON, _jerr(
                f"unknown op {op!r}; expected one of {J.ANALYSIS_OPS}"), {}
        trace_b = req.get("trace_b")
        try:
            path = self._trace_path(trace)
            extra = None if trace_b is None else self._trace_path(str(trace_b))
        except ValueError as exc:
            return 400, _JSON, _jerr(str(exc)), {}
        if path is None:
            return 404, _JSON, _jerr(f"trace {trace} not uploaded"), {}
        if trace_b is not None and extra is None:
            return 404, _JSON, _jerr(f"trace {trace_b} not uploaded"), {}
        params = dict(req.get("params", {}))
        params["trace"] = trace
        if trace_b is not None:
            params["trace_b"] = str(trace_b)
        manifest = J.analysis_manifest(op, params)
        key = ResultStore.entry_name(manifest["hash"], f"analysis-{op}")
        args = (op, str(path), params,
                str(extra) if extra is not None else None)
        return await self._serve_computed(
            key, "analysis", J.execute_analysis_job, args)

    # -- the funnel ---------------------------------------------------------
    def _admit(self, headers):
        """Token-bucket gate; returns ``(True, None)`` or a 429 tuple."""
        tenant = headers.get("x-tenant", "anonymous")
        admitted, retry_after = self.quotas.admit(tenant)
        if admitted:
            return True, None
        obs.counter("serve.quota_rejections", tenant=tenant).inc()
        return False, (429, _JSON,
                       _jerr(f"tenant {tenant!r} over quota"),
                       {"Retry-After": self.quotas.retry_after_header(
                           retry_after)})

    def _cached(self, key: str) -> Optional[bytes]:
        """Warm tiers: in-memory LRU, then the disk store.  No pool."""
        data = self._mem.get(key)
        if data is not None:
            self._mem.move_to_end(key)
            self.store.touch(key)
            obs.counter("serve.cache_hits", tier="mem").inc()
            return data
        data = self.store.get_bytes(key)
        if data is not None:
            obs.counter("serve.cache_hits", tier="store").inc()
            self._remember(key, data)
            return data
        return None

    def _remember(self, key: str, data: bytes) -> None:
        self._mem[key] = data
        self._mem.move_to_end(key)
        while len(self._mem) > self.config.mem_cache_entries:
            self._mem.popitem(last=False)

    async def _serve_computed(self, key: str, kind: str, fn, args,
                              loader=None):
        """Warm-hit / coalesce / enqueue path shared by compute routes."""
        data = self._cached(key)
        if data is not None:
            return 200, _JSON, data, {"X-Repro-Cache": "hit"}
        if loader is not None:
            data = await asyncio.to_thread(loader)
            if data is not None:
                obs.counter("serve.cache_hits", tier="offline").inc()
                self.store.put_bytes(key, data)
                self._remember(key, data)
                return 200, _JSON, data, {"X-Repro-Cache": "hit"}
        future = self._inflight.get(key)
        if future is not None:
            obs.counter("serve.coalesced").inc()
            try:
                data = await asyncio.shield(future)
            except TraceFormatError as exc:
                return 400, _JSON, _jerr("malformed trace archive",
                                         str(exc)), {}
            except Exception:
                return 500, _JSON, _jerr(
                    f"computation of {key} failed", traceback.format_exc()), {}
            return 200, _JSON, data, {"X-Repro-Cache": "coalesced"}
        shed = self._shed_check(kind)
        if shed is not None:
            return shed
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._queue.append(Job(key, kind, fn, args, future))
        obs.gauge("serve.queue_depth").set(len(self._queue))
        self._wake.set()
        try:
            data = await asyncio.shield(future)
        except TraceFormatError as exc:
            return 400, _JSON, _jerr("malformed trace archive",
                                     str(exc)), {}
        except Exception as exc:
            return 500, _JSON, _jerr(f"computation of {key} failed",
                                     _exc_text(exc)), {}
        return 200, _JSON, data, {"X-Repro-Cache": "miss"}

    def _shed_check(self, kind: str):
        """Bounded queue with tiered shedding (expensive jobs go first)."""
        depth = len(self._queue)
        limit = self.config.queue_limit
        threshold = max(1, limit // 2) if kind == "experiment" else limit
        if depth < threshold:
            return None
        obs.counter("serve.shed", kind=kind).inc()
        eta = (depth + 1) * self._job_ewma / max(1, self.n_workers)
        return 503, _JSON, _jerr(
            f"queue full ({depth}/{limit}) for {kind} requests"), {
            "Retry-After": self.quotas.retry_after_header(eta)}

    # -- pool processes -----------------------------------------------------
    @staticmethod
    def _submit(pool: ProcessPoolExecutor, fn, *args) -> "asyncio.Future":
        """Send ``fn(*args)`` to ``pool`` under :func:`J.observed`; raises
        ``BrokenProcessPool`` at once for a pool already known dead."""
        return asyncio.get_running_loop().run_in_executor(
            pool, J.observed, fn, *args)

    def _replace_pool(self, attr: str, broken: ProcessPoolExecutor
                      ) -> ProcessPoolExecutor:
        """``self.<attr>`` -- the analysis pool ``_pool`` or the upload
        process ``_uploads`` -- after replacing it with a new pool of its
        size if it still is ``broken`` (so once, however many jobs shared
        the dead pool; never while the service stops)."""
        if getattr(self, attr) is broken and not self._closing:
            analysis = attr == "_pool"
            broken.shutdown(wait=False, cancel_futures=True)
            setattr(self, attr, _fork_pool(self.n_workers if analysis else 1))
            obs.counter("serve.pool_replacements",
                        pool="analysis" if analysis else "upload").inc()
        return getattr(self, attr)

    @staticmethod
    async def _merged(future: "asyncio.Future"):
        """The result of a :meth:`_submit` future, its job's metrics
        merged into this process's session."""
        result, metrics = await future
        session = obs.active()
        if session is not None:
            session.metrics.merge(metrics)
        return result

    # -- dispatcher ---------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Drain the queue in adaptive batches, shard across the pool."""
        while True:
            while not self._queue:
                self._wake.clear()
                await self._wake.wait()
            batch = [self._queue.popleft()
                     for _ in range(min(len(self._queue),
                                        self.config.batch_max))]
            obs.gauge("serve.queue_depth").set(len(self._queue))
            obs.histogram("serve.batch_size",
                          bounds=_BATCH_BUCKETS).observe(len(batch))
            await asyncio.gather(
                *(self._run_job(job) for job in batch),
                return_exceptions=True)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                job.attempts += 1
                t0 = loop.time()
                pool = self._pool
                try:
                    data = await asyncio.wait_for(
                        self._merged(self._submit(pool, job.fn, *job.args)),
                        timeout=self.config.job_timeout)
                except Exception as exc:
                    obs.counter("serve.job_failures", kind=job.kind).inc()
                    if isinstance(exc, BrokenProcessPool):
                        # a worker died (under this job or idle): this
                        # and later jobs go to a new pool
                        self._replace_pool("_pool", pool)
                    # a malformed archive fails identically every
                    # attempt; surface it without burning retries
                    if (isinstance(exc, TraceFormatError)
                            or job.attempts >= self.config.max_job_attempts):
                        if not job.future.done():
                            job.future.set_exception(exc)
                        return
                    obs.counter("serve.job_retries", kind=job.kind).inc()
                    continue
                self._job_ewma = 0.7 * self._job_ewma + 0.3 * (loop.time() - t0)
                obs.counter("serve.jobs_executed", kind=job.kind).inc()
                self.store.put_bytes(job.key, data)
                self._remember(job.key, data)
                if not job.future.done():
                    job.future.set_result(data)
                return
        finally:
            self._inflight.pop(job.key, None)


# -- module helpers ---------------------------------------------------------
def _jdoc(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _fork_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=get_context("fork"))


def _jerr(message: str, detail: str = "") -> bytes:
    doc = {"error": message}
    if detail:
        doc["detail"] = detail
    return _jdoc(doc)


def _exc_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


async def _amain(config: ServeConfig) -> None:
    service = AnalysisService(config)
    await service.start()
    print(f"repro-serve listening on http://{config.host}:{service.port} "
          f"(workers={service.n_workers}, store={service.store.root})")
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def run_service(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point used by the ``repro-serve run`` CLI."""
    try:
        asyncio.run(_amain(config or ServeConfig()))
    except KeyboardInterrupt:
        pass

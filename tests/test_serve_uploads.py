"""The service's upload process and the metrics of its pool processes.

``PUT /v1/traces`` and ``POST /v1/ingest`` parse every upload in one
upload process, never in the event-loop process; ingested traces are
stored as npz archives with one content address per export; a dead
upload process is replaced (the upload it died under is quarantined and
answered 500), and so is an analysis pool whose worker died (the job
retried within its attempts); and the metrics of every pool job --
uploads, analyses, experiments -- reach the server's ``/metrics``, while
their spans are dropped with the job's session.
"""

import asyncio
import json
import os
import signal
from pathlib import Path

import pytest

from repro import obs
from repro.measure.io import decode_trace, trace_archive_bytes, write_trace
from repro.obs.export import trace_chrome_events
from repro.serve.client import http_request
from tests.test_ingest import _apps, _run_app
from tests.test_serve import _client, _make_trace, _service


@pytest.fixture
def session():
    s = obs.enable()
    yield s
    obs.disable()


def _log_pids(monkeypatch, log: Path, *targets):
    """Wrap each ``(module, name)`` so every call appends its process id
    to ``log``; processes forked later inherit the wrappers."""
    for module, name in targets:
        orig = getattr(module, name)

        def logged(*args, _orig=orig, **kw):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return _orig(*args, **kw)

        monkeypatch.setattr(module, name, logged)


def _pids(log: Path):
    return [int(x) for x in log.read_text().split()] if log.exists() else []


def _export(trace) -> bytes:
    return json.dumps({"traceEvents": list(
        trace_chrome_events(trace, embed_raw=True))}).encode()


async def _ingest(svc, body: bytes):
    return await http_request(
        "127.0.0.1", svc.port, "POST", "/v1/ingest", body=body,
        headers={"X-Archive-Name": "export.json"})


async def _put(svc, body: bytes, name: str):
    return await http_request(
        "127.0.0.1", svc.port, "PUT", "/v1/traces", body=body,
        headers={"X-Archive-Name": name})


def test_no_upload_parsed_by_the_event_loop(tmp_path, monkeypatch, session):
    import repro.ingest
    import repro.measure.io as mio

    log = tmp_path / "pids.txt"
    _log_pids(monkeypatch, log, (mio, "_decode"),
              (repro.ingest, "ingest_bytes"))
    trace = _make_trace("ltbb", seed=1)
    jsonl = trace_archive_bytes(trace)
    write_trace(_make_trace("ltbb", seed=2), tmp_path / "b.npz")
    npz = (tmp_path / "b.npz").read_bytes()
    log.unlink(missing_ok=True)

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            return [(await _put(svc, jsonl, "a.trace.json.gz")).status,
                    (await _put(svc, npz, "b.npz")).status,
                    (await _ingest(svc, _export(trace))).status]
        finally:
            await svc.stop()

    assert asyncio.run(main()) == [201, 201, 201]
    pids = _pids(log)
    # two PUT decodes and one ingest, all in one other process
    assert len(pids) == 3
    assert os.getpid() not in pids
    assert len(set(pids)) == 1


def test_ingest_stores_one_npz_per_export(tmp_path, session):
    exports = {name: _run_app(make()) for name, make in _apps().items()}

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            out = {}
            for name, trace in exports.items():
                body = _export(trace)
                out[name] = [await _ingest(svc, body) for _ in range(2)]
            return out, svc.store.root
        finally:
            await svc.stop()

    out, root = asyncio.run(main())
    for name, trace in exports.items():
        first, again = (resp.json() for resp in out[name])
        assert [r.status for r in out[name]] == [201, 201]
        assert first["path"].endswith(".npz")
        assert (again["hash"], again["path"]) == (first["hash"],
                                                  first["path"])
        stored = decode_trace((root / first["path"]).read_bytes(),
                              first["path"])
        assert stored.column_backed
        assert trace_archive_bytes(stored) == trace_archive_bytes(trace)
    assert len(list(root.glob("cas-*"))) == len(exports)


def test_pool_metrics_reach_the_metrics_route(tmp_path, session):
    from repro.serve import jobs as J

    trace = _make_trace("ltbb", seed=1)
    J._TRACES.clear()   # the pool worker forks with this process's cache

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            client = _client(svc)
            up = await client.upload_trace(trace_archive_bytes(trace))
            ingested = await _ingest(svc, _export(trace))
            replays = [await client.analyze("replay", up["hash"],
                                            params={"mode": mode})
                       for mode in ("lt1", "ltbb", "lt1")]
            return ingested, replays, await client.metrics(fmt="json")
        finally:
            await svc.stop()

    ingested, replays, metrics = asyncio.run(main())
    assert ingested.status == 201
    assert [r.status for r in replays] == [200, 200, 200]
    names = {row["name"] for row in metrics.json()["metrics"]["counters"]}
    assert {"serve.trace_cache", "clocks.replays", "ingest.records"} <= names
    # two jobs ran (the third replay was a warm hit): one miss, one hit
    assert session.metrics.value("serve.trace_cache", result="miss") == 1.0
    assert session.metrics.value("serve.trace_cache", result="hit") == 1.0


def test_observed_job_keeps_no_spans_and_returns_its_metrics(tmp_path,
                                                             session):
    from repro.serve import jobs as J

    path = tmp_path / "t.trace.json.gz"
    write_trace(_make_trace("ltbb", seed=1), path)
    params = {"mode": "ltbb", "trace": "t"}
    J._TRACES.clear()
    direct = J.execute_analysis_job("replay", str(path), params)
    J._TRACES.clear()
    spans = len(session.spans.snapshot())
    before = session.metrics.snapshot()
    for k in range(3):
        data, metrics = J.observed(J.execute_analysis_job, "replay",
                                   str(path), params)
        assert data == direct
        cache = {row["labels"]["result"]: row["value"]
                 for row in metrics["counters"]
                 if row["name"] == "serve.trace_cache"}
        assert cache == ({"miss": 1.0} if k == 0 else {"hit": 1.0})
    # what the jobs recorded stayed out of the session active around them
    assert len(session.spans.snapshot()) == spans
    assert session.metrics.snapshot() == before
    J._TRACES.clear()


async def _reaped(pid: int) -> None:
    """Wait until the pool that owned ``pid`` has reaped it (a pool
    marks itself broken before it reaps its dead process)."""
    for _ in range(1000):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"process {pid} was never reaped")


def test_dead_idle_upload_process_is_replaced(tmp_path, monkeypatch,
                                              session):
    import repro.measure.io as mio

    log = tmp_path / "pids.txt"
    _log_pids(monkeypatch, log, (mio, "_decode"))
    first = trace_archive_bytes(_make_trace("ltbb", seed=1))
    second = trace_archive_bytes(_make_trace("ltbb", seed=2))

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            a = await _put(svc, first, "a.trace.json.gz")
            dead = _pids(log)[-1]
            assert dead != os.getpid(), "the upload was decoded here"
            os.kill(dead, signal.SIGKILL)
            await _reaped(dead)
            b = await _put(svc, second, "b.trace.json.gz")
            return a, b, dead
        finally:
            await svc.stop()

    a, b, dead = asyncio.run(main())
    assert (a.status, b.status) == (201, 201)
    assert _pids(log)[-1] not in (dead, os.getpid())
    assert session.metrics.value("serve.upload_crashes") is None


def test_upload_process_dying_under_an_upload(tmp_path, monkeypatch,
                                              session):
    # the upload process kills itself while it parses the upload the
    # flag file marks: that upload is quarantined, never stored, and
    # answered 500; the next upload goes to a new process
    import repro.ingest
    import repro.measure.io as mio

    server, flag = os.getpid(), tmp_path / "die"
    for module, name in ((mio, "_decode"), (repro.ingest, "ingest_bytes")):
        def dying(*args, _orig=getattr(module, name), **kw):
            if os.getpid() != server and flag.exists():
                flag.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return _orig(*args, **kw)

        monkeypatch.setattr(module, name, dying)
    trace = _make_trace("ltbb", seed=1)
    body = trace_archive_bytes(trace)

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            flag.touch()
            put = await _put(svc, body, "a.trace.json.gz")
            stored = list(svc.store.root.glob("cas-*-trace*"))
            flag.touch()
            ingest = await _ingest(svc, _export(trace))
            after = [await _put(svc, body, "a.trace.json.gz"),
                     await _ingest(svc, _export(trace))]
            return put, stored, ingest, after, svc.store.root
        finally:
            await svc.stop()

    put, stored, ingest, after, root = asyncio.run(main())
    for resp in (put, ingest):
        assert resp.status == 500
        assert "upload process died" in resp.json()["error"]
        assert resp.headers["x-repro-quarantine"] != "deleted"
    assert all(".corrupt-" in p.name for p in stored)
    assert len(list(root.glob("*.corrupt-*"))) == 2
    assert [r.status for r in after] == [201, 201]
    assert session.metrics.value("serve.upload_crashes") == 2.0


async def _replay(svc, digest: str, counter_seed: int):
    return await _client(svc).analyze("replay", digest,
                                      {"counter_seed": counter_seed})


def test_dead_analysis_worker_is_replaced(tmp_path, monkeypatch, session):
    # the one worker of a workers=1 service is killed between replays:
    # the replays after it run on a new pool
    import repro.serve.jobs as J

    log = tmp_path / "pids.txt"
    _log_pids(monkeypatch, log, (J, "_load_trace"))
    body = trace_archive_bytes(_make_trace("lthwctr", seed=1))

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            digest = (await _client(svc).upload_trace(body))["hash"]
            first = await _replay(svc, digest, 0)
            dead = _pids(log)[-1]
            assert dead != os.getpid(), "the replay ran here"
            os.kill(dead, signal.SIGKILL)
            await _reaped(dead)
            after = [await _replay(svc, digest, s) for s in (1, 2, 3, 4)]
            return first, after, dead
        finally:
            await svc.stop()

    first, after, dead = asyncio.run(main())
    assert [first.status] + [r.status for r in after] == [200] * 5
    assert dead not in _pids(log)[1:]
    assert session.metrics.value("serve.pool_replacements",
                                 pool="analysis") == 1.0
    assert session.metrics.value("serve.pool_replacements",
                                 pool="upload") is None


def test_job_killing_its_worker_fails_alone(tmp_path, monkeypatch, session):
    # a replay that kills its worker on every attempt answers 500 once
    # its attempts are spent, each attempt on a new pool; the next
    # ordinary replay answers 200
    import repro.serve.jobs as J

    server = os.getpid()
    replay = J._ANALYSIS_IMPL["replay"]

    def poisoned(path, params, extra):
        if os.getpid() != server and params["counter_seed"] == 13:
            os.kill(os.getpid(), signal.SIGKILL)
        return replay(path, params, extra)

    monkeypatch.setitem(J._ANALYSIS_IMPL, "replay", poisoned)
    body = trace_archive_bytes(_make_trace("lthwctr", seed=1))

    async def main():
        svc = _service(tmp_path, workers=1)
        await svc.start()
        try:
            digest = (await _client(svc).upload_trace(body))["hash"]
            poison = await _replay(svc, digest, 13)
            ok = [await _replay(svc, digest, s) for s in (14, 15)]
            return poison, ok, svc.config.max_job_attempts
        finally:
            await svc.stop()

    poison, ok, attempts = asyncio.run(main())
    assert poison.status == 500
    assert "BrokenProcessPool" in poison.json()["detail"]
    assert [r.status for r in ok] == [200, 200]
    value = session.metrics.value
    assert value("serve.pool_replacements", pool="analysis") == attempts
    assert value("serve.job_failures", kind="analysis") == attempts
    assert value("serve.jobs_executed", kind="analysis") == 2.0

"""The analysis service and its content-addressed result store.

Covers the issue's acceptance points: N concurrent clients asking for
the same manifest hash trigger exactly one pool computation (asserted
via obs counters), served bytes are bit-identical to a direct
``run_experiment`` serialization, warm-cache requests never touch the
process pool, quota rejections answer 429 + Retry-After and recover,
the bounded queue sheds expensive requests before cheap ones with 503,
and the offline workflow shares the same store: max-bytes LRU eviction,
cross-process single-flight leases, staging-dir sweeping.  The last
section covers the analysis jobs' per-process trace cache: the same
bytes cold and warm, a cached trace never converted or edited, keys
that follow the archive's bytes, the event budget and its counters.
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro import obs
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec
from repro.serve.store import ResultStore, resolve_cache_max_bytes


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache", max_bytes=None)


@pytest.fixture
def session():
    s = obs.enable()
    yield s
    obs.disable()


@pytest.fixture
def tiny_experiment(monkeypatch, tmp_path):
    """A fast registered experiment over an isolated cache dir."""

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=2,
                                        init_segments=2))

    spec = ExperimentSpec("Serve-T", make, nodes=1, reps_ref=1, reps_noisy=1,
                          phases=("init", "solve"))
    monkeypatch.setitem(C.EXPERIMENTS, "Serve-T", spec)
    monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
    return "Serve-T"


def _backdate(path, seconds):
    t = time.time() - seconds
    os.utime(path, (t, t))


def _total(session, name):
    """Counter total summed over label sets (campaign counters carry an
    ``experiment`` label from the workflow's label context)."""
    return session.metrics.totals(name).get(name, 0.0)


# ---------------------------------------------------------------------------
# store: CRC blobs, quarantine, LRU eviction
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_blob_round_trip_touches_on_hit(self, store):
        key = ResultStore.entry_name("a" * 64, "blob")
        store.put_bytes(key, b"payload-bytes")
        _backdate(store.entry_path(key), 500)
        before = store.entry_path(key).stat().st_mtime
        assert store.get_bytes(key) == b"payload-bytes"
        assert store.entry_path(key).stat().st_mtime > before

    def test_corrupt_blob_quarantined(self, store, session):
        key = ResultStore.entry_name("b" * 64, "blob")
        path = store.put_bytes(key, b"good-bytes")
        raw = path.read_bytes()
        path.write_bytes(raw[:-3] + b"XXX")
        assert store.get_bytes(key) is None
        assert not path.exists()
        assert list(store.root.glob("*.corrupt-*"))
        assert session.metrics.value("workflow.cache_corrupt") == 1.0

    def test_missing_key_is_none(self, store):
        assert store.get_bytes("cas-nope-blob") is None

    def test_lru_eviction_frees_oldest_first(self, tmp_path, session):
        # each entry is 1000 payload bytes + the CRC frame; a 3200-byte
        # budget over four entries forces exactly one eviction
        store = ResultStore(tmp_path / "cache", max_bytes=3200)
        keys = [ResultStore.entry_name(f"{i}" * 64, f"e{i}") for i in range(4)]
        for i, key in enumerate(keys):
            store.max_bytes = None      # fill without evicting
            store.put_bytes(key, bytes(1000))
            _backdate(store.entry_path(key), 1000 - i)
        store.max_bytes = 3200
        # oldest entry is keys[0]; an access promotes it over keys[1]
        store.touch(keys[0])
        freed = store.evict()
        assert freed > 0
        assert store.total_bytes() <= 3200
        assert not store.entry_path(keys[1]).exists()   # LRU victim
        assert store.entry_path(keys[0]).exists()       # promoted by touch
        assert session.metrics.value("workflow.cache_evictions") == 1.0

    def test_evict_spares_protected_and_foreign_files(self, tmp_path):
        store = ResultStore(tmp_path / "cache", max_bytes=0)
        store.root.mkdir(parents=True)
        foreign = store.root / "hang-once"
        foreign.write_bytes(bytes(500))
        key = ResultStore.entry_name("c" * 64, "keep")
        store.put_bytes(key, bytes(500))
        store.evict(protect=(key,))
        assert store.entry_path(key).exists()
        assert foreign.exists()
        store.evict()
        assert not store.entry_path(key).exists()
        assert foreign.exists()

    def test_max_bytes_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert resolve_cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1234")
        assert resolve_cache_max_bytes() == 1234
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
            resolve_cache_max_bytes()
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        with pytest.raises(ValueError, match="must be >= 0"):
            resolve_cache_max_bytes()


# ---------------------------------------------------------------------------
# store: single-flight leases
# ---------------------------------------------------------------------------
class TestStoreLeases:
    def test_second_acquire_blocked_until_release(self, store):
        lease = store.acquire("cas-k")
        assert lease is not None
        assert store.acquire("cas-k") is None
        lease.release()
        lease2 = store.acquire("cas-k")
        assert lease2 is not None
        lease2.release()

    def test_stale_lease_taken_over(self, store, session):
        lease = store.acquire("cas-k")
        _backdate(lease.path, store.lease_ttl + 60)
        taken = store.acquire("cas-k")
        assert taken is not None
        assert session.metrics.value("workflow.cache_lock_takeovers") == 1.0
        taken.release()

    def test_refresh_keeps_lease_fresh(self, store):
        lease = store.acquire("cas-k")
        _backdate(lease.path, store.lease_ttl + 60)
        lease.refresh()
        assert store.acquire("cas-k") is None
        lease.release()

    def test_wait_for_sees_published_entry(self, store, session):
        lease = store.acquire("cas-k")

        def publish():
            time.sleep(0.1)
            store.put_bytes("cas-k", b"done")
            lease.release()

        t = threading.Thread(target=publish)
        t.start()
        assert store.wait_for("cas-k", timeout=10.0) is True
        t.join()
        assert session.metrics.value("workflow.cache_lock_waits") == 1.0

    def test_wait_for_gives_up_on_vanished_lock(self, store):
        lease = store.acquire("cas-k")
        lease.release()
        assert store.wait_for("cas-k", timeout=1.0) is False


# ---------------------------------------------------------------------------
# workflow integration: shared cache, eviction, leases, staging sweep
# ---------------------------------------------------------------------------
class TestWorkflowStore:
    def test_cache_budget_evicts_old_results(self, tiny_experiment,
                                             monkeypatch, session):
        W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                         preflight=False)
        _backdate(W._cache_path(tiny_experiment, 0), 5000)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        W.run_experiment(tiny_experiment, seed=1, use_cache=True,
                         preflight=False)
        # seed-0's result was LRU and over budget; seed-1 is protected
        assert not W._cache_path(tiny_experiment, 0).exists()
        assert W._cache_path(tiny_experiment, 1).exists()
        assert _total(session, "workflow.cache_evictions") >= 1.0

    def test_campaign_waits_for_concurrent_publisher(self, tiny_experiment,
                                                     session):
        direct = W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                                  preflight=False)
        cached = W._cache_path(tiny_experiment, 0)
        parked = cached.with_name(cached.name + ".parked")
        cached.rename(parked)

        store = W.cache_store()
        lease = store.acquire(cached.name)
        results = {}

        def campaign():
            results["r"] = W.run_experiment(tiny_experiment, seed=0,
                                            use_cache=True, preflight=False)

        t = threading.Thread(target=campaign)
        t.start()
        time.sleep(0.3)      # the thread is now parked in wait_for
        parked.rename(cached)    # "the other process" publishes
        lease.release()
        t.join(timeout=60)
        assert not t.is_alive()
        assert _total(session, "workflow.cache_lock_waits") >= 1.0
        assert W.serialize_result(results["r"]) == W.serialize_result(direct)

    def test_stale_lease_does_not_block_campaign(self, tiny_experiment,
                                                 session):
        store = W.cache_store()
        key = W.cache_key(tiny_experiment, 0)
        lease = store.acquire(key)
        _backdate(lease.path, store.lease_ttl + 60)
        result = W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                                  preflight=False)
        assert result.name == tiny_experiment
        assert _total(session, "workflow.cache_lock_takeovers") == 1.0

    def test_orphaned_staging_dirs_swept(self, tiny_experiment, session):
        W._CACHE_DIR.mkdir(parents=True, exist_ok=True)
        orphan = W._CACHE_DIR / "cas-dead.tmp-xyz"
        orphan.mkdir()
        (orphan / "partial.json").write_text("{}")
        _backdate(orphan, 4000)
        fresh = W._CACHE_DIR / "cas-live.tmp-abc"
        fresh.mkdir()
        W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                         preflight=False)
        assert not orphan.exists()
        assert fresh.exists()    # younger than the sweep age: spared
        assert _total(session, "workflow.staging_swept") == 1.0

    def test_serialize_round_trip(self, tiny_experiment):
        result = W.run_experiment(tiny_experiment, seed=0, use_cache=False,
                                  preflight=False)
        data = W.serialize_result(result)
        back = W.deserialize_result(data)
        assert W.serialize_result(back) == data


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------
def _service(tmp_path, **overrides):
    from repro.serve.service import AnalysisService, ServeConfig

    defaults = dict(port=0, workers=2, cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    return AnalysisService(ServeConfig(**defaults))


def _client(svc, **kw):
    from repro.serve.client import ServeClient

    return ServeClient("127.0.0.1", svc.port, **kw)


class TestService:
    def test_concurrent_cold_requests_coalesce_to_one_job(
            self, tiny_experiment, tmp_path, session):
        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                burst = await asyncio.gather(
                    *(client.experiment(tiny_experiment, 0)
                      for _ in range(5)))
            finally:
                await svc.stop()
            return burst

        burst = asyncio.run(main())
        assert [r.status for r in burst] == [200] * 5
        assert len({r.body for r in burst}) == 1
        # exactly ONE pool computation for 5 identical requests
        assert session.metrics.value("serve.jobs_executed",
                                     kind="experiment") == 1.0
        assert session.metrics.value("serve.coalesced") == 4.0
        # and the served bytes are bit-identical to a direct computation
        direct = W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                                  preflight=False)
        assert burst[0].body == W.serialize_result(direct)

    def test_warm_request_never_touches_the_pool(self, tiny_experiment,
                                                 tmp_path, session):
        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                cold = await client.experiment(tiny_experiment, 0)
                warm = await client.experiment(tiny_experiment, 0)
            finally:
                await svc.stop()
            return cold, warm

        cold, warm = asyncio.run(main())
        assert cold.status == warm.status == 200
        assert cold.headers["x-repro-cache"] == "miss"
        assert warm.headers["x-repro-cache"] == "hit"
        assert warm.body == cold.body
        assert session.metrics.value("serve.jobs_executed",
                                     kind="experiment") == 1.0
        assert session.metrics.value("serve.cache_hits", tier="mem") == 1.0

    def test_offline_campaign_result_served_without_pool(
            self, tiny_experiment, tmp_path, session):
        direct = W.run_experiment(tiny_experiment, seed=0, use_cache=True,
                                  preflight=False)

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                return await _client(svc).experiment(tiny_experiment, 0)
            finally:
                await svc.stop()

        resp = asyncio.run(main())
        assert resp.status == 200
        assert resp.headers["x-repro-cache"] == "hit"
        assert resp.body == W.serialize_result(direct)
        assert session.metrics.value("serve.jobs_executed",
                                     kind="experiment") is None
        assert session.metrics.value("serve.cache_hits", tier="offline") == 1.0

    def test_quota_429_with_retry_after_then_recovery(
            self, tiny_experiment, tmp_path, session):
        clock = [0.0]

        async def main():
            svc = _service(tmp_path, tenant_rate=1.0, tenant_burst=2.0,
                           time_fn=lambda: clock[0])
            await svc.start()
            try:
                client = _client(svc, tenant="alice")
                ok1 = await client.experiment(tiny_experiment, 0)
                ok2 = await client.experiment(tiny_experiment, 0)
                rejected = await client.experiment(tiny_experiment, 0)
                clock[0] += 5.0      # bucket refills
                recovered = await client.experiment(tiny_experiment, 0)
            finally:
                await svc.stop()
            return ok1, ok2, rejected, recovered

        ok1, ok2, rejected, recovered = asyncio.run(main())
        assert ok1.status == ok2.status == 200
        assert rejected.status == 429
        assert int(rejected.headers["retry-after"]) >= 1
        assert recovered.status == 200
        assert session.metrics.value("serve.quota_rejections",
                                     tenant="alice") == 1.0

    def test_backpressure_sheds_expensive_before_cheap(
            self, tiny_experiment, tmp_path, session):
        from repro.measure import write_trace

        trace_file = tmp_path / "t.trace.json.gz"
        write_trace(_make_trace("ltbb"), trace_file)

        async def main():
            svc = _service(tmp_path, queue_limit=2, start_dispatcher=False)
            await svc.start()
            try:
                client = _client(svc)
                up = await client.upload_trace(trace_file.read_bytes())
                # expensive request occupies the queue (threshold 1) ...
                first = asyncio.create_task(
                    client.experiment(tiny_experiment, 0))
                await asyncio.sleep(0.2)
                # ... a second experiment sheds, a cheap analysis queues
                shed = await client.experiment(tiny_experiment, 1)
                queued = asyncio.create_task(
                    client.analyze("replay", up["hash"]))
                await asyncio.sleep(0.2)
                svc.resume_dispatcher()
                first_resp = await first
                queued_resp = await queued
            finally:
                await svc.stop()
            return shed, first_resp, queued_resp

        shed, first_resp, queued_resp = asyncio.run(main())
        assert shed.status == 503
        assert int(shed.headers["retry-after"]) >= 1
        assert first_resp.status == 200
        assert queued_resp.status == 200
        assert session.metrics.value("serve.shed", kind="experiment") == 1.0
        assert session.metrics.value("serve.shed", kind="analysis") is None

    def test_healthz_and_metrics_endpoints(self, tiny_experiment, tmp_path,
                                           session):
        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                health = await client.healthz()
                await client.experiment(tiny_experiment, 0)
                prom = await client.metrics()
                js = await client.metrics(fmt="json")
            finally:
                await svc.stop()
            return health, prom, js

        health, prom, js = asyncio.run(main())
        assert health["status"] == "ok"
        assert health["workers"] == 2
        text = prom.body.decode("utf-8")
        assert "# TYPE serve_requests counter" in text
        assert 'serve_jobs_executed{kind="experiment"} 1' in text
        doc = json.loads(js.body)
        names = {row["name"] for row in doc["metrics"]["counters"]}
        assert "serve.jobs_executed" in names

    def test_unknown_routes_and_bodies_rejected(self, tmp_path, session):
        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                from repro.serve.client import http_request

                host, port = "127.0.0.1", svc.port
                missing = await http_request(host, port, "GET", "/v1/nope")
                bad = await http_request(host, port, "POST",
                                         "/v1/experiment", body=b"not-json")
                unknown = await http_request(
                    host, port, "POST", "/v1/experiment",
                    body=json.dumps({"name": "No-Such"}).encode())
                wrong = await http_request(host, port, "POST", "/healthz")
            finally:
                await svc.stop()
            return missing, bad, unknown, wrong

        missing, bad, unknown, wrong = asyncio.run(main())
        assert missing.status == 404
        assert bad.status == 400
        assert unknown.status == 404
        assert wrong.status == 405


# ---------------------------------------------------------------------------
# analysis routes over uploaded traces
# ---------------------------------------------------------------------------
def _make_trace(mode="ltbb", seed=1):
    from repro.machine import small_test_cluster
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import Measurement
    from repro.miniapps.minife import MiniFE, MiniFEConfig
    from repro.sim import CostModel, Engine

    cluster = small_test_cluster(cores_per_numa=4, numa_per_socket=2)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    app = MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=2))
    return Engine(app, cluster, cost, measurement=Measurement(mode)).run().trace


class TestAnalysisRoutes:
    def test_upload_analyze_and_warm_hit(self, tmp_path, session):
        from repro.measure import write_trace

        f1 = tmp_path / "a.trace.json.gz"
        f2 = tmp_path / "b.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)
        write_trace(_make_trace("ltbb", seed=2), f2)

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                up1 = await client.upload_trace(f1.read_bytes())
                up2 = await client.upload_trace(f2.read_bytes())
                replay = await client.analyze("replay", up1["hash"])
                again = await client.analyze("replay", up1["hash"])
                blame = await client.analyze("blame", up1["hash"])
                score = await client.analyze("score", up1["hash"],
                                             trace_b=up2["hash"])
                whatif = await client.analyze(
                    "whatif", up1["hash"],
                    params={"scale": {"matvec": 0.5}})
                bad_op = await client.analyze("explode", up1["hash"])
                missing = await client.analyze("replay", "f" * 64)
            finally:
                await svc.stop()
            return up1, replay, again, blame, score, whatif, bad_op, missing

        (up1, replay, again, blame, score, whatif, bad_op,
         missing) = asyncio.run(main())
        assert len(up1["hash"]) == 64
        assert replay.status == 200
        doc = replay.json()
        assert doc["op"] == "replay"
        assert doc["makespan"] > 0
        assert doc["manifest"]["hash"]
        # identical request answers from cache, byte-identical
        assert again.headers["x-repro-cache"] == "hit"
        assert again.body == replay.body
        assert blame.json()["total_wait"] >= 0
        assert 0.0 <= score.json()["score"] <= 1.0
        assert whatif.status == 200
        assert bad_op.status == 400
        assert missing.status == 404
        assert session.metrics.value("serve.jobs_executed",
                                     kind="analysis") == 4.0

    def test_trace_round_trip(self, tmp_path, session):
        from repro.measure import write_trace

        f1 = tmp_path / "a.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)
        data = f1.read_bytes()

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                up = await client.upload_trace(data)
                from repro.serve.client import http_request

                got = await http_request("127.0.0.1", svc.port, "GET",
                                         f"/v1/traces/{up['hash']}")
                gone = await http_request("127.0.0.1", svc.port, "GET",
                                          "/v1/traces/" + "e" * 64)
            finally:
                await svc.stop()
            return got, gone

        got, gone = asyncio.run(main())
        assert got.status == 200
        assert got.body == data
        assert gone.status == 404

    def test_trace_digest_must_be_sha256(self, tmp_path, session):
        # Glob patterns and digest prefixes used to resolve to whichever
        # upload sorted first; only a full lowercase sha256 names a trace.
        from repro.measure import write_trace
        from repro.serve.client import http_request

        f1 = tmp_path / "a.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                up = await client.upload_trace(f1.read_bytes())
                bad = ["*", "?" * 20, "[0-9a-f]*", up["hash"][:20],
                       up["hash"].upper()]
                posts = [await client.analyze("replay", d) for d in bad]
                pair = await client.analyze("score", up["hash"], trace_b="*")
                gets = [await http_request("127.0.0.1", svc.port, "GET",
                                           "/v1/traces/" + d)
                        for d in ("*", "[0-9a-f]*", up["hash"][:20])]
                unknown = await client.analyze("replay", "0" * 64)
                found = await http_request("127.0.0.1", svc.port, "GET",
                                           "/v1/traces/" + up["hash"])
            finally:
                await svc.stop()
            return posts + [pair] + gets, unknown, found

        rejected, unknown, found = asyncio.run(main())
        assert [r.status for r in rejected] == [400] * len(rejected)
        assert all("sha256" in r.json()["error"] for r in rejected)
        assert unknown.status == 404
        assert found.status == 200 and found.body == f1.read_bytes()


# ---------------------------------------------------------------------------
# hardened upload + ingest endpoints
# ---------------------------------------------------------------------------
class TestIngestHardening:
    def test_oversize_body_answers_413(self, tmp_path, session):
        async def main():
            svc = _service(tmp_path, max_body_bytes=1024)
            await svc.start()
            try:
                from repro.serve.client import http_request

                return await http_request(
                    "127.0.0.1", svc.port, "PUT", "/v1/traces",
                    body=b"x" * 5000,
                    headers={"X-Archive-Name": "big.trace.json.gz"})
            finally:
                await svc.stop()

        resp = asyncio.run(main())
        assert resp.status == 413
        assert "byte limit" in resp.json()["error"]

    def test_malformed_archive_upload_400_and_quarantined(
            self, tmp_path, session):
        import gzip
        import io

        import numpy as np

        from repro.measure import write_trace
        from repro.sim.events import LEAVE, MPI_RECV

        f1 = tmp_path / "a.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)
        data = bytearray(f1.read_bytes())
        data[len(data) // 2] ^= 0xFF          # corrupt the gzip stream
        # a well-formed npz whose offsets drop the last location's tail
        f2 = tmp_path / "b.npz"
        write_trace(_make_trace("ltbb", seed=2), f2)
        with np.load(f2) as npz:
            arrays = dict(npz)
        arrays["offsets"][-1] -= 5
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        # a well-formed JSON-lines archive whose LEAVE record carries a
        # payload its kind has none of: no analysis could replay it
        f3 = tmp_path / "c.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=3), f3)
        lines = gzip.decompress(f3.read_bytes()).decode().splitlines(True)
        k = next(k for k in range(1, len(lines))
                 if json.loads(lines[k])[1] == LEAVE)
        rec = json.loads(lines[k])
        rec[5] = "odd"
        lines[k] = json.dumps(rec) + "\n"
        # and one whose receive payload does not fit the int64 columns
        f4 = tmp_path / "d.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=4), f4)
        big = gzip.decompress(f4.read_bytes()).decode().splitlines(True)
        j = next(j for j in range(1, len(big))
                 if json.loads(big[j])[1] == MPI_RECV)
        rec = json.loads(big[j])
        rec[5] = 2**70
        big[j] = json.dumps(rec) + "\n"
        uploads = [(bytes(data), "bad.trace.json.gz"),
                   (buf.getvalue(), "bad.npz"),
                   (gzip.compress("".join(lines).encode()),
                    "odd.trace.json.gz"),
                   (gzip.compress("".join(big).encode()),
                    "big.trace.json.gz")]

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                from repro.serve.client import http_request

                resps = [await http_request(
                    "127.0.0.1", svc.port, "PUT", "/v1/traces",
                    body=body, headers={"X-Archive-Name": name})
                    for body, name in uploads]
                root = svc.store.root
            finally:
                await svc.stop()
            return resps, root

        resps, root = asyncio.run(main())
        for resp in resps:
            assert resp.status == 400
            assert "malformed trace archive" in resp.json()["error"]
            assert resp.headers.get("x-repro-quarantine")
        assert len(list(root.glob("*.corrupt-*"))) == 4
        assert _total(session, "serve.upload_rejects") == 4.0

    def test_analyze_on_archive_corrupted_in_store_answers_400(
            self, tmp_path, session):
        from repro.measure import write_trace

        f1 = tmp_path / "a.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                client = _client(svc)
                up = await client.upload_trace(f1.read_bytes())
                path = svc._trace_path(up["hash"])
                blob = bytearray(path.read_bytes())
                blob[len(blob) // 2] ^= 0xFF
                path.write_bytes(bytes(blob))
                return await client.analyze("replay", up["hash"])
            finally:
                await svc.stop()

        resp = asyncio.run(main())
        assert resp.status == 400
        assert "malformed trace archive" in resp.json()["error"]

    def test_upload_with_non_int_kind_or_region_400_and_quarantined(
            self, tmp_path, session):
        # a float or bool kind or region would be truncated into the int64
        # columns (0.9 read back as ENTER): the upload is refused instead
        import gzip

        from repro.measure import write_trace

        f1 = tmp_path / "a.trace.json.gz"
        write_trace(_make_trace("ltbb", seed=1), f1)
        lines = gzip.decompress(f1.read_bytes()).decode().splitlines(True)
        k = next(k for k in range(1, len(lines))
                 if json.loads(lines[k])[5] is None)
        uploads = []
        for field, value in ((1, 0.9), (1, True), (2, 2.5)):
            rec = json.loads(lines[k])
            rec[field] = value
            bad = lines[:k] + [json.dumps(rec) + "\n"] + lines[k + 1:]
            uploads.append(gzip.compress("".join(bad).encode()))

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                from repro.serve.client import http_request

                resps = [await http_request(
                    "127.0.0.1", svc.port, "PUT", "/v1/traces", body=body,
                    headers={"X-Archive-Name": "u.trace.json.gz"})
                    for body in uploads]
                root = svc.store.root
            finally:
                await svc.stop()
            return resps, root

        resps, root = asyncio.run(main())
        for resp in resps:
            assert resp.status == 400
            assert f"line {k + 1}" in resp.json()["detail"]
            assert resp.headers.get("x-repro-quarantine")
        assert len(list(root.glob("*.corrupt-*"))) == 3
        assert not list(root.glob("cas-*-trace.trace.json.gz"))
        assert _total(session, "serve.upload_rejects") == 3.0

    def test_stray_leave_upload_refused_alike_by_call_path_ops(
            self, tmp_path, session):
        # Archives that decode but that the sanitizer finds errors in: a
        # LEAVE that pops an empty region stack (TRC006), a collective
        # missing a member (TRC007) and a send whose receive is gone
        # (TRC002).  The analysis ops cannot read them (score, blame and
        # what-if fail in the pool worker), so PUT refuses them as
        # /v1/ingest refuses its output: 400 with the findings,
        # quarantined, never stored.
        from repro.measure import trace_archive_bytes
        from repro.serve.client import http_request
        from repro.sim.events import COLL_END, LEAVE, MPI_RECV, Ev

        def damaged(edit):
            trace = _make_trace("ltbb", seed=1)
            edit(trace.events)
            return trace_archive_bytes(trace)

        def stray_leave(events):
            evs = events[0]
            evs.append(Ev(LEAVE, evs[-1].region, evs[-1].t))

        def drop_first(kind):
            def edit(events):
                evs = next(evs for evs in events
                           if any(ev.etype == kind for ev in evs))
                evs.remove(next(ev for ev in evs if ev.etype == kind))
            return edit

        uploads = [("TRC006", damaged(stray_leave)),
                   ("TRC007", damaged(drop_first(COLL_END))),
                   ("TRC002", damaged(drop_first(MPI_RECV)))]

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                resps = [await http_request(
                    "127.0.0.1", svc.port, "PUT", "/v1/traces", body=body,
                    headers={"X-Archive-Name": "u.trace.json.gz"})
                    for _rule, body in uploads]
                root = svc.store.root
            finally:
                await svc.stop()
            return resps, root

        resps, root = asyncio.run(main())
        for (rule, _body), resp in zip(uploads, resps):
            assert resp.status == 400
            assert resp.json()["error"] == "trace fails the sanitizer"
            assert resp.json()["detail"].startswith(f"{rule}: ")
            assert resp.headers.get("x-repro-quarantine")
        assert len(list(root.glob("*.corrupt-*"))) == 3
        assert not list(root.glob("cas-*-trace.trace.json.gz"))
        assert _total(session, "serve.upload_rejects") == 3.0

    def test_ingest_accept_chrome_then_analyze(self, tmp_path, session):
        from repro.obs.export import trace_chrome_events
        from repro.serve.client import http_request

        trace = _make_trace("lt1", seed=1)
        events = list(trace_chrome_events(trace, embed_raw=True))
        payload = json.dumps({"traceEvents": events}).encode()

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                resp = await http_request(
                    "127.0.0.1", svc.port, "POST", "/v1/ingest",
                    body=payload,
                    headers={"X-Archive-Name": "export.json"})
                doc = resp.json()
                replay = await _client(svc).analyze("replay", doc["hash"])
            finally:
                await svc.stop()
            return resp, doc, replay

        resp, doc, replay = asyncio.run(main())
        assert resp.status == 201
        assert doc["kind"] == "trace"
        assert doc["report"]["accepted"]
        assert replay.status == 200
        assert replay.json()["makespan"] > 0

    def test_ingest_reject_int64_overflow_400_with_report(self, tmp_path,
                                                          session):
        # a lossless export whose collective id no int64 column holds:
        # the record check drops those records (ING003), the rest is a
        # trace without that collective
        import numpy as np

        from repro.measure import read_trace
        from repro.obs.export import trace_chrome_events
        from repro.serve.client import http_request
        from repro.sim.events import COLL_END

        events = list(trace_chrome_events(_make_trace("lt1", seed=1),
                                          embed_raw=True))
        raw = [e["args"] for e in events if e.get("cat") == "repro.raw"
               and e["args"]["etype"] == COLL_END]
        gid = raw[0]["aux"][0]
        members = [a for a in raw if a["aux"][0] == gid]
        assert len(members) == raw[0]["aux"][1] > 1
        for a in members:
            a["aux"][0] = 2**70
        payload = json.dumps({"traceEvents": events}).encode()

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                return await http_request(
                    "127.0.0.1", svc.port, "POST", "/v1/ingest",
                    body=payload, headers={"X-Archive-Name": "big.json"}), \
                    svc.store.root
            finally:
                await svc.stop()

        resp, root = asyncio.run(main())
        assert resp.status == 201
        doc = resp.json()
        assert doc["report"]["accepted"]
        assert [d["rule"] for d in doc["report"]["repairs"]] == ["ING003"]
        assert doc["report"]["n_dropped"] == len(members)
        stored = read_trace(root / doc["path"])
        assert stored.n_events == sum(
            1 for e in events if e.get("cat") == "repro.raw") - len(members)
        cols = stored.columns()
        assert not np.any((cols.column("etype") == COLL_END)
                          & (cols.column("aux_a") == gid))

    def test_ingest_reject_garbage_400_with_report(self, tmp_path, session):
        from repro.serve.client import http_request

        async def main():
            svc = _service(tmp_path)
            await svc.start()
            try:
                resp = await http_request(
                    "127.0.0.1", svc.port, "POST", "/v1/ingest",
                    body=b"\x00\xffnot a trace at all",
                    headers={"X-Archive-Name": "junk.bin"})
                root = svc.store.root
            finally:
                await svc.stop()
            return resp, root

        resp, root = asyncio.run(main())
        assert resp.status == 400
        doc = resp.json()
        assert doc["error"] == "ingest rejected"
        assert not doc["report"]["accepted"]
        assert any(d["rule"].startswith("ING")
                   for d in doc["report"]["rejections"])
        assert list(root.glob("*.corrupt-*"))


# ---------------------------------------------------------------------------
# the analysis jobs' per-process trace cache
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def minife1_traces():
    """Two MiniFE-1 runs (ltbb, noise seeds 1 and 2)."""
    from repro.experiments.configs import make_app, make_cluster
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import Measurement
    from repro.sim import CostModel, Engine

    cluster = make_cluster("MiniFE-1")
    return [Engine(make_app("MiniFE-1"), cluster,
                   CostModel(cluster, noise=NoiseModel(NoiseConfig(),
                                                       seed=seed)),
                   measurement=Measurement("ltbb")).run().trace
            for seed in (1, 2)]


@pytest.fixture
def trace_cache():
    """The process's trace cache, empty before and after the test."""
    from repro.serve import jobs as J

    J._TRACES.clear()
    yield J._TRACES
    J._TRACES.clear()


def _columns_digest(trace):
    import hashlib

    from repro.measure.columnar import COLUMN_FIELDS

    cols = trace.columns()
    h = hashlib.sha256(cols.offsets().tobytes())
    for f in COLUMN_FIELDS:
        h.update(cols.column(f).tobytes())
    return h.hexdigest()


def _cached(path):
    from repro.measure.io import archive_hash
    from repro.serve import jobs as J

    return J._TRACES._traces.get(archive_hash(path.read_bytes()))


class TestTraceCache:
    @pytest.mark.parametrize("suffix", [".trace.json.gz", ".npz"])
    def test_ops_answer_the_same_bytes_cold_and_warm(
            self, tmp_path, minife1_traces, trace_cache, suffix):
        from repro.measure import MODES, write_trace
        from repro.serve.jobs import execute_analysis_job

        a, b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
        write_trace(minife1_traces[0], a)
        write_trace(minife1_traces[1], b)
        jobs = [("replay", {"mode": m, "counter_seed": cs}, None)
                for m in MODES for cs in (0, 7)]
        jobs += [("blame", {"mode": "ltbb", "top": 5}, None),
                 ("score", {"mode": "lt1"}, b),
                 ("score", {}, a),
                 ("whatif", {"mode": "ltstmt", "scale": {"matvec": 0.5},
                             "drop": ["dot"]}, None)]

        def run(op, params, extra):
            return execute_analysis_job(op, str(a), params,
                                        None if extra is None else str(extra))

        cold = []
        for job in jobs:
            trace_cache.clear()
            cold.append(run(*job))
        trace_cache.clear()
        first = run(*jobs[0])
        cached = _cached(a)
        digest = _columns_digest(cached)
        # every op after the first, then all of them again, reads the
        # cached trace with the plans the ops before it compiled; none
        # converts or edits it
        warm = [first]
        for job in jobs[1:] + jobs:
            warm.append(run(*job))
            assert _cached(a) is cached
            assert cached.column_backed
            assert _columns_digest(cached) == digest
        assert warm == cold + cold

    def test_replaced_or_rewritten_archive_decoded_afresh(
            self, tmp_path, minife1_traces, trace_cache):
        from repro.measure import TraceFormatError, write_trace
        from repro.serve import jobs as J

        path = tmp_path / "u.trace.json.gz"
        other = tmp_path / "v.trace.json.gz"
        write_trace(minife1_traces[0], path)
        write_trace(minife1_traces[1], other)
        first = J._load_trace(str(path))
        assert J._load_trace(str(path)) is first
        os.replace(other, path)
        second = J._load_trace(str(path))
        assert second is not first
        assert _columns_digest(second) == _columns_digest(minife1_traces[1])
        # the same size and mtime, one bit flipped: a path-and-stat key
        # would serve the old decode
        st = path.stat()
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert path.stat().st_size == st.st_size
        for _ in range(2):
            with pytest.raises(TraceFormatError):
                J._load_trace(str(path))
            with pytest.raises(TraceFormatError):
                J.execute_analysis_job("replay", str(path), {"mode": "lt1"})
        assert trace_cache.events == 2 * first.n_events

    def test_lru_evicts_at_the_event_budget_and_counts(
            self, tmp_path, minife1_traces, session):
        from repro.measure import write_trace
        from repro.serve.jobs import _TraceCache

        # three archives, three distinct byte strings (hence keys)
        paths = []
        for i, (k, suffix) in enumerate(((0, ".trace.json.gz"), (1, ".npz"),
                                         (1, ".trace.json.gz"))):
            paths.append(str(tmp_path / f"t{i}{suffix}"))
            write_trace(minife1_traces[k], paths[-1])
        n = minife1_traces[0].n_events
        cache = _TraceCache(2 * n)
        t0, t1 = cache.load(paths[0]), cache.load(paths[1])
        assert cache.load(paths[0]) is t0          # t0 most recently used
        cache.load(paths[2])                       # evicts t1
        assert cache.events == 2 * n
        assert cache.load(paths[0]) is t0
        assert cache.load(paths[1]) is not t1      # evicts t2
        assert cache.events == 2 * n

        def count(result):
            return session.metrics.value("serve.trace_cache", result=result)

        assert (count("hit"), count("miss"), count("evict")) == (2, 4, 2)

    def test_trace_over_the_budget_never_cached(
            self, tmp_path, minife1_traces, session):
        from repro.measure import write_trace
        from repro.serve.jobs import _TraceCache

        path = tmp_path / "t.npz"
        write_trace(minife1_traces[0], path)
        cache = _TraceCache(minife1_traces[0].n_events - 1)
        assert cache.load(str(path)) is not cache.load(str(path))
        assert cache.events == 0
        assert session.metrics.value("serve.trace_cache", result="miss") == 2
        assert session.metrics.value("serve.trace_cache", result="hit") is None
        assert session.metrics.value("serve.trace_cache",
                                     result="evict") is None

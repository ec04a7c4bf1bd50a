"""``serve``: mixed closed-loop traffic against ``repro-serve``.

The server runs in its own process with its default pool of one worker
(``serve_server.py``), so server + worker fill two cores.  Two clients
of this process, each on one keep-alive connection, send a seeded,
fixed request mix back to back (closed loop):

* ~60 % warm reads: analysis results and MiniFE-1 experiment results
  precomputed in set-up, Zipf-skewed over a key set twice the size of
  the service's 128-entry memory LRU, so hits split between the memory
  and disk tiers;
* ~30 % misses: replay / blame / score / whatif with fresh parameters,
  some on traces uploaded during the run;
* ~10 % writes: ``PUT /v1/traces`` of new jsonl/npz archives and
  ``POST /v1/ingest`` of Chrome exports.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import common
import ledger

HOST = "127.0.0.1"
#: (base traces, experiment seeds, counter seeds per warm key) per size
SIZES = {"full": (4, 2, 11), "tiny": (2, 1, 2)}
CLIENTS = 2
MEM_LRU = 128
WARM, MISS = 0.60, 0.30          # the rest are writes
BLOCK = 20                       # requests per block of the fixed mix
PUT_BODIES = 30
ZIPF_S = 1.0
#: misses re-computed in-process after the window and compared bytewise
SAMPLED_MISSES = 6


def _trace(seed: int):
    import wl_archive

    return wl_archive._simulate("MiniFE-1", seed)


def _archive_bytes(trace, fmt: str, work: Path, manifest=None) -> bytes:
    from repro.measure import io as mio

    if fmt == "jsonl":
        return mio.trace_archive_bytes(trace, manifest)
    path = work / "upload.trace.npz"
    mio.write_trace(trace, path, manifest=manifest)
    data = path.read_bytes()
    path.unlink()
    return data


def _warm_result(job):
    """Set-up worker: one warm analysis result and its store key."""
    from repro.serve import jobs as J
    from repro.serve.store import ResultStore

    op, path, params = job
    key = ResultStore.entry_name(J.analysis_manifest(op, params)["hash"],
                                 f"analysis-{op}")
    return key, J.execute_analysis_job(op, path, params)


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection(HOST, port))

    async def request(self, method, path, body=b"", headers=None):
        head = [f"{method} {path} HTTP/1.1", f"Host: {HOST}",
                f"Content-Length: {len(body)}"]
        head += [f"{k}: {v}" for k, v in (headers or {}).items()]
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                          + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        hdrs = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            k, _, v = line.decode("latin-1").partition(":")
            hdrs[k.strip().lower()] = v.strip()
        body = await self.reader.readexactly(int(hdrs["content-length"]))
        return status, hdrs, body

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Server:
    """The server subprocess and its stdin command channel."""

    def __init__(self, store: Path, spool: Path, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "serve_server.py"),
             str(store), str(spool), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(common.ROOT))
        self._port = None

    @property
    def port(self) -> int:
        """The bound port; the first use waits for the boot to finish."""
        if self._port is None:
            self._port = json.loads(self.proc.stdout.readline())["port"]
        return self._port

    def command(self, line: str, reply: bool = False) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        if reply:
            self.proc.stdout.readline()

    def stop(self) -> None:
        try:
            self.command("quit")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _setup(opts, work: Path, store: Path):
    """Seeded inputs, offline experiment results and warm analysis results
    written straight into the service's store; returns the inputs."""
    from repro.experiments import workflow as W
    from repro.measure.io import archive_hash
    from repro.obs.export import trace_chrome_events

    n_traces, n_exps, n_cs = SIZES[opts.size]
    rng = random.Random(opts.seed)
    traces = [_trace(rng.randrange(1 << 30)) for _ in range(n_traces)]
    regions = sorted(set(traces[0].regions.names))
    base = []          # (digest, local path, bytes) of uploaded base traces
    for i, tr in enumerate(traces):
        for fmt, ext in (("npz", ".trace.npz"), ("jsonl", ".trace.json.gz")):
            data = _archive_bytes(tr, fmt, work)
            path = work / f"base-{i}{ext}"
            path.write_bytes(data)
            base.append((archive_hash(data), path, data))
    # experiment results, computed offline into the service's store
    W._CACHE_DIR = store
    exp_seeds = [rng.randrange(1 << 20) for _ in range(n_exps)]
    for s in exp_seeds:
        W.run_experiment("MiniFE-1", seed=s, workers=2, preflight=True)
    # warm analysis results: replay of every npz base trace per mode and
    # counter seed, computed on two processes straight into the store
    warm_jobs = [("replay", str(path), {"mode": m, "counter_seed": c,
                                        "trace": digest})
                 for digest, path, _ in base if path.suffix == ".npz"
                 for m in ledger.MODES for c in range(n_cs)]
    from repro.serve.store import ResultStore

    st = ResultStore(store)
    # fork: this process runs no threads yet, and spawn would leave a
    # resource-tracker process running past the benchmark's exit
    with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
        for key, data in pool.map(_warm_result, warm_jobs, chunksize=8):
            st.put_bytes(key, data)
    puts = []
    for k in range(PUT_BODIES):
        fmt = ("jsonl", "npz")[k % 2]
        data = _archive_bytes(traces[k % n_traces], fmt, work,
                              manifest={"pipebench_upload": k,
                                        "seed": opts.seed})
        puts.append((fmt, data))
    chrome = [json.dumps({"traceEvents": list(trace_chrome_events(
        tr, embed_raw=True))}).encode() for tr in traces[:2]]
    warm = [("POST", "/v1/analyze", json.dumps(
        {"op": op, "trace": p["trace"],
         "params": {k: v for k, v in p.items() if k != "trace"}}).encode())
        for op, _path, p in warm_jobs]
    warm += [("POST", "/v1/experiment",
              json.dumps({"name": "MiniFE-1", "seed": s}).encode())
             for s in exp_seeds]
    return {"base": [(d, p.name, data) for d, p, data in base],
            "puts": puts, "chrome": chrome, "warm": warm,
            "regions": regions,
            "events": [t.n_events for t in traces],
            "locations": traces[0].n_locations}


def _plan(seed: int, warm: list, regions: list):
    """The seeded request mix, endless: yields (class, spec).

    Requests come in blocks of BLOCK with exactly the mix's shares,
    shuffled within the block, so every prefix of the plan carries the
    same mix whatever the seed.
    """
    rng = random.Random(seed)
    order = list(range(len(warm)))
    rng.shuffle(order)
    cum, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    ops = itertools.cycle(("replay", "blame", "score", "whatif"))
    writes = itertools.cycle(("put", "ingest"))
    block = ["hit"] * round(BLOCK * WARM) + ["miss"] * round(BLOCK * MISS)
    block += ["write"] * (BLOCK - len(block))
    counts = {"put": 0, "ingest": 0}
    for b in itertools.count():
        rng.shuffle(block)
        for j, cls in enumerate(block):
            if cls == "hit":
                yield "hit", warm[rng.choices(order, cum_weights=cum)[0]]
            elif cls == "miss":
                op, fresh = next(ops), 1_000_000 + b * BLOCK + j
                if op == "whatif":
                    params = {"mode": rng.choice(("lt1", "ltbb", "ltstmt")),
                              "scale": {rng.choice(regions):
                                        1.0 + (fresh % 997) / 1000.0}}
                else:
                    params = {"mode": rng.choice(ledger.MODES),
                              "counter_seed": fresh}
                yield "miss", (op, params, rng.random(), rng.random())
            else:
                kind = next(writes)
                yield "write", (kind, counts[kind])
                counts[kind] += 1


async def _drive(port, plan, inputs, seconds, on_half=None):
    """Closed-loop load: CLIENTS connections draining ``plan`` in order."""
    base_digests = [d for d, _name, _data in inputs["base"]]
    uploaded = []
    records = []
    it = iter(enumerate(plan))
    t_start = time.perf_counter()
    deadline = t_start + seconds
    half = [on_half]  # awaited once, by the first request past half time

    def pick(u: float) -> str:
        pool = uploaded[-8:] if uploaded and u < 0.3 else base_digests
        return pool[int(u * 1e6) % len(pool)]

    async def client():
        conn = await Conn.open(port)
        try:
            for i, (cls, spec) in it:
                now = time.perf_counter()
                if now >= deadline:
                    break
                if half[0] is not None and now >= t_start + seconds / 2:
                    cb, half[0] = half[0], None
                    await cb()
                headers = {"X-Tenant": f"t{i % 16}"}
                if cls == "hit":
                    method, path, body = spec
                elif cls == "miss":
                    op, params, u1, u2 = spec
                    req = {"op": op, "trace": pick(u1), "params": params}
                    if op == "score":
                        req["trace_b"] = pick(u2)
                    method, path = "POST", "/v1/analyze"
                    body = json.dumps(req).encode()
                elif spec[0] == "put":
                    fmt, body = inputs["puts"][spec[1] % len(inputs["puts"])]
                    method, path = "PUT", "/v1/traces"
                    headers["X-Archive-Name"] = (
                        "u.trace.npz" if fmt == "npz" else "u.trace.json.gz")
                else:
                    body = inputs["chrome"][spec[1] % len(inputs["chrome"])]
                    method, path = "POST", "/v1/ingest"
                    headers["X-Archive-Name"] = "export.json"
                t0 = time.perf_counter()
                status, hdrs, payload = await conn.request(method, path,
                                                           body, headers)
                t1 = time.perf_counter()
                if cls == "write" and spec[0] == "put" and status == 201:
                    uploaded.append(json.loads(payload)["hash"])
                records.append({
                    "cls": cls, "path": path, "t0": t0, "t1": t1,
                    "status": status,
                    "cache": hdrs.get("x-repro-cache", ""),
                    "key": hashlib.sha256(method.encode() + path.encode()
                                          + body).hexdigest(),
                    "sha": hashlib.sha256(payload).hexdigest(),
                    "req": body if cls == "miss" else None,
                    "body": payload if cls == "miss" else None})
        finally:
            await conn.close()

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return records, t_start


async def _metrics(port):
    conn = await Conn.open(port)
    try:
        _s, _h, body = await conn.request("GET", "/metrics?format=json")
    finally:
        await conn.close()
    return json.loads(body)


def _diff(after: dict, before: dict, name: str, **labels) -> float:
    return (ledger.counter_total(after, name, **labels)
            - ledger.counter_total(before, name, **labels))


def _hist_mean(after, before, name):
    def tot(snap):
        rows = [r for r in snap["metrics"]["histograms"] if r["name"] == name]
        return sum(r["sum"] for r in rows), sum(r["count"] for r in rows)
    (s1, c1), (s0, c0) = tot(after), tot(before)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def run(opts, work: Path, digests: dict) -> dict:
    t_setup = time.perf_counter()
    store, spool = work / "store", work / "spool"
    store.mkdir()
    spool.mkdir()
    server = Server(store, spool, bool(opts.trace))
    try:
        inputs = _setup(opts, work, store)
        asyncio.run(_prepare(server.port, inputs))
        setup_s = time.perf_counter() - t_setup
        plan = _plan(opts.seed, inputs["warm"], inputs["regions"])
        snaps = {"start": asyncio.run(_metrics(server.port))}
        cpu0 = common.tree_cpu_s(server.proc.pid)
        on_half = None
        if opts.trace:
            async def on_half():
                server.command("trace 1")
        records, t_start = asyncio.run(_drive(server.port, plan, inputs,
                                              opts.seconds, on_half))
        snaps["end"] = asyncio.run(_metrics(server.port))
        snaps["cpu_s"] = common.tree_cpu_s(server.proc.pid) - cpu0
        if opts.trace:
            server.command("trace 0")
            server.command("dump", reply=True)
    finally:
        server.stop()
    return _result(opts, records, t_start, snaps, inputs, store, spool,
                   setup_s, (t_setup, t_setup + setup_s))


async def _prepare(port, inputs):
    """Upload the base traces, then read every warm key once: experiment
    keys load the offline results into the store, and the memory LRU
    starts the window in its steady state."""
    conn = await Conn.open(port)
    try:
        for digest, name, data in inputs["base"]:
            status, _h, body = await conn.request(
                "PUT", "/v1/traces", data, {"X-Archive-Name": name})
            if status != 201 or json.loads(body)["hash"] != digest:
                raise RuntimeError(f"upload of {name} answered {status}")
        # one computed job per op forks the pool worker and loads what
        # its jobs import, so the window starts warm
        digests = [d for d, _name, _data in inputs["base"]]
        for op in ("replay", "blame", "score", "whatif"):
            params = ({"scale": {inputs["regions"][0]: 0.5}, "mode": "ltbb"}
                      if op == "whatif" else {"mode": "ltbb",
                                              "counter_seed": -1})
            req = {"op": op, "trace": digests[0], "params": params,
                   "trace_b": digests[1]}
            status, _h, _b = await conn.request(
                "POST", "/v1/analyze", json.dumps(req).encode())
            if status != 200:
                raise RuntimeError(f"{op} warm-up answered {status}")
        for i, (method, path, body) in enumerate(inputs["warm"]):
            # spread over tenants: one tenant's quota would refuse a burst
            status, _h, _b = await conn.request(
                method, path, body, {"X-Tenant": f"warm{i % 32}"})
            if status != 200:
                raise RuntimeError(f"warm-up of {path} answered {status}")
    finally:
        await conn.close()


def _stored_trace(store: Path, digest: str) -> str:
    hits = sorted(p for p in store.glob(f"cas-{digest[:20]}-trace*")
                  if ".corrupt-" not in p.name and ".tmp-" not in p.name)
    return str(hits[0])


def _result(opts, records, t_start, snaps, inputs, store, spool, setup_s,
            setup_window):
    from repro.serve import jobs as J

    problems, first = [], {}
    failed = 0
    for r in records:
        ok = r["status"] in (200, 201)
        if not ok:
            problems.append(f"{r['cls']} request answered {r['status']}")
        elif r["cls"] != "write" and \
                first.setdefault(r["key"], r["sha"]) != r["sha"]:
            ok = False
            problems.append("a 200 response differs from the key's first")
        failed += not ok
    # a seeded sample of misses, recomputed in this process
    misses = [r for r in records if r["cls"] == "miss" and r["status"] == 200]
    sample = random.Random(opts.seed).sample(
        misses, min(SAMPLED_MISSES, len(misses)))
    bitwise = {}   # op -> sampled misses equal only to DIGITS (README)
    for r in sample:
        req = json.loads(r["req"])
        params = dict(req["params"], trace=req["trace"])
        extra = None
        if "trace_b" in req:
            params["trace_b"] = req["trace_b"]
            extra = _stored_trace(store, req["trace_b"])
        direct = J.execute_analysis_job(
            req["op"], _stored_trace(store, req["trace"]), params, extra)
        if direct == r["body"]:
            continue
        if common.close_json(direct, r["body"]):
            bitwise[req["op"]] = bitwise.get(req["op"], 0) + 1
        else:
            failed += 1
            problems.append(f"served {req['op']} differs from a direct "
                            "execute_analysis_job call")

    t_end = max(r["t1"] for r in records)
    lat = [r["t1"] - r["t0"] for r in records]
    a, b = snaps["start"], snaps["end"]
    mem = _diff(b, a, "serve.cache_hits", tier="mem")
    disk = _diff(b, a, "serve.cache_hits", tier="store")
    reads = [r for r in records if r["cls"] != "write"]
    hit_ratio = sum(r["cache"] == "hit" for r in reads) / max(1, len(reads))
    classes = {c: sum(r["cls"] == c for r in records)
               for c in ("hit", "miss", "write")}
    props = {
        "requests": classes, "clients": CLIENTS,
        "warm_keys": len(inputs["warm"]), "memory_lru_entries": MEM_LRU,
        "hit_ratio": round(hit_ratio, 4),
        "hit_tiers": {"mem": mem, "store": disk},
        "base_traces": len(inputs["base"]),
        "trace_events": inputs["events"],
        "trace_locations": inputs["locations"],
        "uploaded_during_run": sum(r["path"] == "/v1/traces"
                                   and r["status"] == 201 for r in records),
        "sampled_misses_checked": len(sample),
        "sampled_misses_bitwise_apart": bitwise,
    }
    for cls in classes:
        vals = [r["t1"] - r["t0"] for r in records if r["cls"] == cls]
        props[f"{cls}_p50_ms"] = round(1000 * common.median(vals), 3)
    out = {"attempted": len(records) + len(sample), "failed": failed,
           "problems": sorted(set(problems)), "setup_s": setup_s,
           "setup_window": setup_window, "window": (t_start, t_end),
           "op_times": lat, "op_cpu": [snaps["cpu_s"] / len(records)],
           # the median user-facing latency is a warm read's: the median
           # of the whole mix falls in the hits' tail and swings with it
           "p50_times": [r["t1"] - r["t0"] for r in records
                         if r["cls"] == "hit"],
           "elapsed": t_end - t_start, "props": props,
           "op_label": "one HTTP request of the mix"}
    if opts.trace:
        out["layers"] = _layers(records, t_start, opts.seconds, snaps,
                                spool, hit_ratio, mem, disk)
    return out


def _layers(records, t_start, seconds, snaps, spool, hit_ratio, mem, disk):
    """Per-layer metrics of a traced run (second half traced)."""
    t_half = t_start + seconds / 2
    first = [r for r in records if r["t1"] < t_half]
    second = [r for r in records if r["t0"] >= t_half]
    spans = ledger.load_spool(spool)
    a, b = snaps["start"], snaps["end"]

    def p50(rows, cls=None):
        vals = [r["t1"] - r["t0"] for r in rows
                if cls is None or r["cls"] == cls]
        return 1000.0 * common.median(vals) if vals else 0.0

    def span_p50(name):
        vals = ledger.durations(spans, name)
        return 1000.0 * common.median(vals) if vals else 0.0

    layers = ledger.layer_metrics(spans, b, per=max(1, len(second)))
    job = span_p50("execute_analysis_job")
    layers.update({
        "ingest.ingest_ms": span_p50("ingest_bytes"),
        "ingest.repairs": _diff(b, a, "ingest.repairs"),
        "serve.job_ms": job,
        "serve.queue_wait_ms": p50(second, "miss") - job,
        "serve.store_get_ms": span_p50("ResultStore.get_bytes"),
        "serve.store_put_ms": span_p50("ResultStore.put_bytes"),
        "serve.hit_ratio": hit_ratio,
        "serve.mem_hit_ratio": mem / (mem + disk) if mem + disk else 0.0,
        "serve.jobs_executed": _diff(b, a, "serve.jobs_executed"),
        "serve.coalesced": _diff(b, a, "serve.coalesced"),
        "serve.shed": _diff(b, a, "serve.shed"),
        "serve.job_retries": _diff(b, a, "serve.job_retries"),
        "serve.batch_size_mean": _hist_mean(b, a, "serve.batch_size"),
        "serve.hit_p50_ms": p50(first, "hit"),
        "serve.miss_p50_ms": p50(first, "miss"),
        "serve.write_p50_ms": p50(first, "write"),
        "serve.tail_ms": 1000.0 * common.tail(
            [r["t1"] - r["t0"] for r in first])[0],
        "obs.overhead_frac": p50(second, "hit") / p50(first, "hit") - 1.0,
        "unattributed_frac": 0.0,
    })
    return layers



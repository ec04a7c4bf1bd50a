"""Serving smoke: boot the service, drive cold/warm/coalesced load.

Run by the CI ``serve-smoke`` job.  Boots the ``repro-serve`` asyncio
service on an ephemeral port over a scratch cache, then asserts the
serving design's load-bearing claims end to end:

* **cold** -- the first request for an experiment computes through the
  process pool and carries ``X-Repro-Cache: miss``;
* **warm** -- the repeat answers from the content-addressed cache
  (``hit``) with bytes identical to the cold response, and the
  ``serve.jobs_executed`` counter proves the pool was not touched;
* **coalesced** -- K concurrent requests for one new key execute
  exactly one computation (``serve.coalesced`` == K-1);
* **bit-identity** -- the served bytes equal
  ``serialize_result(run_experiment(...))`` computed directly;
* **quota** -- a tenant with a tiny bucket gets ``429`` + Retry-After;
* **analysis** -- an uploaded trace answers blame requests, warm on
  repeat; replay under two modes and a what-if on the same upload (a
  pool worker keeps the trace it decoded for the blame) answer the bytes
  ``execute_analysis_job`` computes cold in this process;
* **ingest** -- a lossless Chrome export of the uploaded trace ingests
  (201) into an npz archive that answers a replay, and the same export
  ingested again answers the same content address;
* **upload check** -- an archive that decodes but lost a receive record
  (the sanitizer's TRC002) is refused at ``PUT /v1/traces`` with a 400
  and a quarantine header instead of being stored;
* **pool metrics** -- ``/metrics`` lists the counters the pool processes
  count (``clocks.replays``, ``serve.trace_cache``, ``ingest.records``).

Artifacts left for upload: ``serve_load.json`` (the load report) and
``serve_metrics.json`` (the service's obs snapshot).

Usage::

    PYTHONPATH=src python examples/serve_smoke.py
"""

import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec

EXPERIMENT = "Serve-Smoke"


def register_experiment():
    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3,
                                        init_segments=2))

    C.EXPERIMENTS[EXPERIMENT] = ExperimentSpec(
        EXPERIMENT, make, nodes=1, reps_ref=1, reps_noisy=1,
        phases=("init", "solve"))


def check(name, ok, detail=""):
    mark = "ok" if ok else "FAIL"
    print(f"  [{mark}] {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        raise SystemExit(f"serve smoke failed: {name}")


async def main() -> int:
    from repro.serve.client import ServeClient, format_load_report, run_load
    from repro.serve.service import AnalysisService, ServeConfig

    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    cache = tmp / "cache"
    W._CACHE_DIR = cache
    session = obs.enable()

    service = AnalysisService(ServeConfig(
        port=0, workers=2, cache_dir=str(cache),
        tenant_rate=50.0, tenant_burst=100.0))
    await service.start()
    print(f"service on 127.0.0.1:{service.port}, store at {cache}")
    try:
        # -- cold / warm / coalesced load phases ---------------------------
        report = await run_load("127.0.0.1", service.port, EXPERIMENT,
                                seed=0, coalesce=4)
        print(format_load_report(report))
        check("cold request computed", report["cold_cache"] == "miss")
        check("warm request cached", report["warm_cache"] == "hit")
        check("warm bytes identical to cold", report["warm_identical"])
        check("coalesced burst all 200",
              report["coalesce_statuses"] == [200])
        check("coalesced bytes identical", report["coalesce_identical"])

        jobs = session.metrics.value("serve.jobs_executed",
                                     kind="experiment")
        check("exactly one job per unique key", jobs == 2.0,
              f"jobs_executed={jobs} for 2 unique keys")
        coalesced = session.metrics.value("serve.coalesced")
        check("single flight coalesced K-1 clients", coalesced == 3.0,
              f"coalesced={coalesced}")

        # -- served bytes == direct computation ----------------------------
        direct = W.run_experiment(EXPERIMENT, seed=0, use_cache=True,
                                  preflight=False, workers=1)
        client = ServeClient("127.0.0.1", service.port)
        served = await client.experiment(EXPERIMENT, 0)
        check("served bit-identical to run_experiment",
              served.body == W.serialize_result(direct))
        check("identity check stayed warm",
              served.headers.get("x-repro-cache") == "hit")

        # -- quota: a starved tenant gets 429 + Retry-After ----------------
        service.quotas.rate = 0.5
        starved = ServeClient("127.0.0.1", service.port, tenant="starved")
        service.quotas.bucket("starved").tokens = 0.0
        resp = await starved.experiment(EXPERIMENT, 0)
        check("starved tenant rejected", resp.status == 429)
        check("429 carries Retry-After",
              int(resp.headers.get("retry-after", "0")) >= 1)

        # -- analysis over an uploaded trace -------------------------------
        from repro.machine import small_test_cluster
        from repro.machine.noise import NoiseConfig, NoiseModel
        from repro.measure import Measurement, write_trace
        from repro.miniapps.minife import MiniFE, MiniFEConfig
        from repro.sim import CostModel, Engine

        cluster = small_test_cluster(cores_per_numa=4, numa_per_socket=2)
        cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=1))
        trace = Engine(MiniFE(MiniFEConfig.tiny(nx=48, cg_iters=2)),
                       cluster, cost,
                       measurement=Measurement("ltbb")).run().trace
        trace_file = tmp / "smoke.trace.json.gz"
        write_trace(trace, trace_file)
        up = await client.upload_trace(trace_file.read_bytes())
        blame = await client.analyze("blame", up["hash"])
        check("blame on uploaded trace", blame.status == 200,
              f"makespan={blame.json().get('makespan'):.3f}")
        again = await client.analyze("blame", up["hash"])
        check("repeated analysis warm",
              again.headers.get("x-repro-cache") == "hit")
        check("repeated analysis byte-identical", again.body == blame.body)

        # -- later ops on the upload: served == cold in-process job ---------
        from repro.serve import jobs as J

        stored = str(service._trace_path(up["hash"]))
        for op, params in (("replay", {"mode": "lt1"}),
                           ("replay", {"mode": "lthwctr", "counter_seed": 3}),
                           ("whatif", {"mode": "ltbb",
                                       "scale": {"matvec": 0.5}})):
            served = await client.analyze(op, up["hash"], params=params)
            J._TRACES.clear()
            cold = J.execute_analysis_job(op, stored,
                                          dict(params, trace=up["hash"]))
            check(f"{op} {params} as computed cold",
                  served.status == 200 and served.body == cold)

        # -- ingest: a lossless export is stored as one npz archive -------
        from repro.obs.export import trace_chrome_events
        from repro.serve.client import http_request

        export = json.dumps({"traceEvents": list(
            trace_chrome_events(trace, embed_raw=True))}).encode()
        ingested = [await http_request(
            "127.0.0.1", service.port, "POST", "/v1/ingest", body=export,
            headers={"X-Archive-Name": "smoke-export.json"})
            for _ in range(2)]
        doc = ingested[0].json()
        check("lossless export ingested as npz (201)",
              ingested[0].status == 201
              and doc.get("path", "").endswith(".npz"), doc.get("path"))
        replay = await client.analyze("replay", doc["hash"])
        check("replay on the ingested trace", replay.status == 200)
        check("same export ingested again, same hash",
              ingested[1].status == 201
              and ingested[1].json().get("hash") == doc["hash"])

        # -- an upload the sanitizer refuses is never stored ----------------
        from repro.measure import trace_archive_bytes
        from repro.sim.events import MPI_RECV

        evs = next(evs for evs in trace.events
                   if any(ev.etype == MPI_RECV for ev in evs))
        evs.remove(next(ev for ev in evs if ev.etype == MPI_RECV))
        resp = await http_request(
            "127.0.0.1", service.port, "PUT", "/v1/traces",
            body=trace_archive_bytes(trace),
            headers={"X-Archive-Name": "dropped-recv.trace.json.gz"})
        check("upload without a receive refused (400)", resp.status == 400,
              resp.json().get("detail", "")[:60])
        check("refused upload quarantined",
              bool(resp.headers.get("x-repro-quarantine")))

        # -- the pool processes' metrics reach /metrics ----------------------
        metrics = (await client.metrics(fmt="json")).json()
        names = {row["name"] for row in metrics["metrics"]["counters"]}
        for name in ("clocks.replays", "serve.trace_cache",
                     "ingest.records"):
            check(f"/metrics lists {name}", name in names)

        # -- artifacts ------------------------------------------------------
        Path("serve_load.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        Path("serve_metrics.json").write_text(
            json.dumps(session.snapshot(), indent=1) + "\n")
        print("artifacts: serve_load.json serve_metrics.json")
    finally:
        await service.stop()
        obs.disable()
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    register_experiment()
    sys.exit(asyncio.run(main()))

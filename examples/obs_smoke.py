"""Observability smoke: tiny observed campaign, validated end to end.

Run by the CI ``obs-smoke`` job with ``REPRO_OBS=1``.  Executes a
miniature parallel campaign under the environment-activated session,
then checks the whole observability surface: the archive written at
(simulated) exit, the Chrome trace-event export (required keys on every
event, at least one span per instrumented layer), the per-experiment
summary rendering, and that the provenance manifest hash is reproducible
across an identical re-run.

Usage::

    REPRO_OBS=1 REPRO_OBS_OUT=obs_smoke.json PYTHONPATH=src python examples/obs_smoke.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.cli import main_obs
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec
from repro.obs import CHROME_REQUIRED_KEYS


def make_app():
    from repro.miniapps.minife import MiniFE, MiniFEConfig

    return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3,
                                    init_segments=2))


def main() -> int:
    session = obs.active()
    if session is None:
        print("REPRO_OBS is not set -- run with REPRO_OBS=1", file=sys.stderr)
        return 2

    C.EXPERIMENTS["Obs-Smoke"] = ExperimentSpec(
        "Obs-Smoke", make_app, nodes=1, reps_ref=1, reps_noisy=1,
        phases=("init", "solve"))
    W._CACHE_DIR = Path(tempfile.mkdtemp(prefix="obs-smoke-cache-"))

    result = W.run_experiment("Obs-Smoke", use_cache=False, workers=2)
    rerun = W.run_experiment("Obs-Smoke", use_cache=False, workers=1)
    assert result.manifest is not None, "campaign produced no manifest"
    assert result.manifest["hash"] == rerun.manifest["hash"], \
        "manifest hash not reproducible across identical runs"

    out = os.environ.get("REPRO_OBS_OUT", "obs_trace.json")
    session.save(out)

    doc = obs.load_archive(out)
    totals = session.metrics.totals("")
    for required in ("sim.events_emitted", "sim.scheduler_steps",
                     "clocks.replays", "noise.injections",
                     "workflow.runs_executed", "workflow.worker_runs"):
        assert totals.get(required, 0) > 0, f"metric {required} missing/zero"

    chrome_path = out + ".chrome.json"
    rc = main_obs(["export", out, "--chrome", "-o", chrome_path])
    assert rc == 0, f"repro-obs export failed with {rc}"
    chrome = json.loads(Path(chrome_path).read_text())
    events = chrome["traceEvents"]
    assert events, "chrome export has no events"
    for ev in events:
        for key in CHROME_REQUIRED_KEYS:
            assert key in ev, f"chrome event missing {key!r}: {ev}"
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    for expected in ("experiment", "engine.run", "engine.drain",
                     "engine.finish", "replay"):
        assert expected in span_names, f"span {expected!r} missing"
    assert len({e["pid"] for e in events if e["ph"] == "X"}) >= 2, \
        "expected spans from more than one process (parallel campaign)"

    rc = main_obs(["summary", out])
    assert rc == 0, f"repro-obs summary failed with {rc}"
    rc = main_obs(["diff", out, out])
    assert rc == 0, f"repro-obs diff (self) failed with {rc}"

    print(f"obs smoke OK: {len(events)} chrome events, "
          f"{len(doc['spans'])} spans, manifest {result.manifest['hash'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

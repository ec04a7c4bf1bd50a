"""The measurement workflow (paper Sec. IV-B) plus result caching.

"To obtain reference timings, the application is run five times without
instrumentation.  Then, we perform an instrumented measurement and
Scalasca trace analysis with the physical clock ... and each of the
logical clocks ...  Additionally, tsc and lt_hwctr measurements are
influenced by noise, therefore we repeat these measurements five times.
We base our evaluation ... on the arithmetic mean of the five call-path
profiles."

Every (reference | mode, repetition) run of a campaign is independently
seeded via :func:`repro.util.rng.stream_seed`, so runs are embarrassingly
parallel: ``run_experiment(..., workers=N)`` fans the runs out over a
process pool and reassembles the results in canonical order, making the
campaign **bit-identical** to the serial execution (``workers=1``, the
default; the ``REPRO_WORKERS`` environment variable overrides it).
Completed runs are also checkpointed individually, so an interrupted
campaign resumes instead of recomputing.

A campaign supervisor makes long campaigns self-healing (paper campaigns
are hours of simulated measurement; losing them to one flaky worker or a
truncated file is not acceptable):

* **bounded retry** -- a task failing with :class:`CampaignTaskError` is
  re-attempted up to ``max_task_attempts`` times with exponential backoff
  plus deterministic jitter (derived from the task seed, so schedules are
  reproducible); retries surface as the ``workflow.retries`` counter.
* **watchdog** -- ``task_timeout`` bounds how long the supervisor waits
  on any pool task; a stuck worker is abandoned and the task resubmitted
  (``workflow.task_timeouts``).
* **checksummed checkpoints** -- per-run checkpoint files carry a CRC-32
  over their payload; a corrupt or truncated file is *quarantined*
  (renamed ``*.corrupt-N``) and the run recomputed
  (``workflow.checkpoint_corrupt``), never silently trusted.  The
  aggregate result cache quarantines the same way
  (``workflow.cache_corrupt``).
* **atomic persistence** -- every checkpoint/result write goes through
  tmp + fsync + rename (:mod:`repro.measure.io` helpers), so a kill at
  any instant leaves either the old file or the new file, never a
  partial one.
* **graceful interrupt** -- ``KeyboardInterrupt`` drains already-finished
  pool results into checkpoints before cancelling the rest
  (``workflow.interrupted``), making ``Ctrl-C`` + rerun a lossless
  resume.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.cube import CubeProfile, read_profile, write_profile
from repro.cube.io import profile_doc, profile_from_doc
from repro.experiments.configs import EXPERIMENTS, make_app, make_cluster
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import MODES, Measurement
from repro.measure.config import NOISY_MODES
from repro.measure.io import atomic_write_text, quarantine
from repro.obs.provenance import canonical_json
from repro.serve.store import ResultStore
from repro.sim import CostModel, Engine
from repro.util.rng import stream_seed

__all__ = [
    "CampaignTaskError",
    "ExperimentResult",
    "experiment_manifest",
    "preflight_lint",
    "run_experiment",
    "resolve_workers",
    "cache_key",
    "cache_store",
    "serialize_result",
    "deserialize_result",
    "result_document",
    "CACHE_VERSION",
    "RESULT_FORMAT",
]

#: bump to invalidate cached results after calibration/code changes
CACHE_VERSION = 10

#: format tag of the canonical served-result serialization
RESULT_FORMAT = "repro-result-1"

_CACHE_DIR = Path(__file__).resolve().parents[3] / ".results_cache"

#: task key for uninstrumented reference runs (``mode`` is otherwise a
#: measurement mode name)
_REF = "ref"


class CampaignTaskError(RuntimeError):
    """A campaign run failed inside a pool worker.

    Exceptions raised in a worker cross the process-pool boundary
    stripped of their traceback, so the worker wraps them here carrying
    the failing ``(name, mode, seed, rep)`` task tag and the original
    formatted traceback.
    """

    def __init__(self, name: str, mode: str, seed: int, rep: int,
                 original_tb: str):
        super().__init__(
            f"campaign task ({name!r}, mode={mode!r}, seed={seed}, "
            f"rep={rep}) failed in worker; original traceback:\n{original_tb}"
        )
        self.task = (name, mode, seed, rep)
        self.original_tb = original_tb

    def __reduce__(self):
        return (CampaignTaskError, (*self.task, self.original_tb))


@dataclass
class ExperimentResult:
    """Everything the tables/figures need for one configuration."""

    name: str
    seed: int
    ref_runtimes: List[float]
    ref_phases: Dict[str, List[float]]
    #: mode -> list of total runtimes (one per repetition)
    runtimes: Dict[str, List[float]]
    #: mode -> {phase: [durations per repetition]}
    phases: Dict[str, Dict[str, List[float]]]
    #: mode -> per-repetition normalized profiles
    profiles: Dict[str, List[CubeProfile]]
    #: mode -> arithmetic mean of the normalized repetition profiles
    mean_profiles: Dict[str, CubeProfile] = field(default_factory=dict)
    #: provenance manifest (see :mod:`repro.obs.provenance`); persisted
    #: with the cached result so loaded artifacts stay traceable
    manifest: Optional[dict] = None

    def overhead(self, mode: str, phase: Optional[str] = None) -> float:
        """Mean overhead in percent vs. the mean reference (Table I/II)."""
        if phase is None:
            ref = float(np.mean(self.ref_runtimes))
            val = float(np.mean(self.runtimes[mode]))
        else:
            ref = float(np.mean(self.ref_phases[phase]))
            val = float(np.mean(self.phases[mode][phase]))
        return 100.0 * (val - ref) / ref

    def mean_profile(self, mode: str) -> CubeProfile:
        return self.mean_profiles[mode]


def _reps_for(mode: str, spec) -> int:
    return spec.reps_noisy if mode in NOISY_MODES else 1


def _run_once(name: str, mode: Optional[str], seed: int, rep: int):
    """One (possibly instrumented) run; returns the engine's SimResult."""
    app = make_app(name)
    cluster = make_cluster(name)
    noise = NoiseModel(NoiseConfig(), seed=stream_seed(seed, name, mode or _REF, rep))
    cost = CostModel(cluster, noise=noise)
    measurement = Measurement(mode) if mode is not None else None
    engine = Engine(app, cluster, cost, measurement=measurement)
    return engine.run()


def _run_task(name: str, mode: str, seed: int, rep: int):
    """One campaign task, self-contained for process-pool workers.

    Returns ``(runtime, {phase: duration})`` for reference runs
    (``mode == "ref"``) and ``(runtime, {phase: duration}, profile)`` for
    instrumented runs, where ``profile`` is the normalized analysis
    result.  Every output is a pure function of the arguments (the run's
    noise and counter seeds derive from them), which is what makes the
    parallel campaign bit-identical to the serial one.
    """
    spec = EXPERIMENTS[name]
    if mode == _REF:
        res = _run_once(name, None, seed, rep)
        return res.runtime, {p: res.phase(p) for p in spec.phases}
    res = _run_once(name, mode, seed, rep)
    tt = timestamp_trace(
        res.trace, mode, counter_seed=stream_seed(seed, name, "ctr", rep)
    )
    profile = analyze_trace(tt).normalized()
    return res.runtime, {p: res.phase(p) for p in spec.phases}, profile


def _pool_task(name: str, mode: str, seed: int, rep: int, with_obs: bool):
    """One campaign task as executed inside a pool worker.

    Wraps :func:`_run_task` twice over: any failure is re-raised as
    :class:`CampaignTaskError` carrying the task tag and the *original*
    traceback (which would otherwise be lost at the pool boundary), and
    when observability is on the task runs under a fresh scoped session
    whose snapshot rides back with the payload so the parent can merge
    per-worker metrics into campaign totals.
    """
    try:
        if with_obs:
            parent = _obs.active()
            session = _obs.ObsSession(
                t_base=parent.spans.t_base if parent is not None else None
            )
            with _obs.scoped(session), session.labels(experiment=name):
                payload = _run_task(name, mode, seed, rep)
            return payload, {"pid": os.getpid(), **session.snapshot()}
        return _run_task(name, mode, seed, rep), None
    except Exception:
        raise CampaignTaskError(
            name, mode, seed, rep, traceback.format_exc()
        ) from None


def experiment_manifest(name: str, seed: int, workers: int = 1) -> dict:
    """Provenance manifest of one campaign.

    The hashed config covers everything that determines the result
    (experiment spec, seed, clock modes, package/cache versions); the
    worker count is environment-only because the parallel campaign is
    bit-identical to the serial one.
    """
    spec = EXPERIMENTS[name]
    config = {
        "experiment": name,
        "seed": seed,
        "nodes": spec.nodes,
        "reps_ref": spec.reps_ref,
        "reps_noisy": spec.reps_noisy,
        "phases": list(spec.phases),
        "modes": list(MODES),
        "noisy_modes": list(NOISY_MODES),
        "cache_version": CACHE_VERSION,
        "version": _obs.package_version(),
    }
    return _obs.build_manifest(
        "experiment", config,
        environment=_obs.default_environment(workers=workers),
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Campaign parallelism: explicit argument, else ``REPRO_WORKERS``, else 1.

    Raises :class:`ValueError` naming the source of the bad value -- a
    misspelled ``REPRO_WORKERS=auto`` in a batch script should fail the
    campaign loudly at startup, not crash a worker pool later.
    """
    source = "workers argument"
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "1")
        source = f"REPRO_WORKERS environment variable ({raw!r})"
        try:
            workers = int(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"invalid worker count from {source}: expected a positive "
                f"integer"
            ) from None
    if workers < 1:
        raise ValueError(
            f"invalid worker count from {source}: must be >= 1, got {workers}"
        )
    return workers


def preflight_lint(name: str) -> None:
    """Statically check the experiment's mini-app before burning CPU.

    Runs the linter and the determinism prover.  Raises
    :class:`repro.verify.VerificationError` when either finds an
    error-severity diagnostic (warnings are tolerated): a buggy program
    would deadlock or corrupt the archive hours into the measurement
    campaign, and an order-racy one would silently void the
    bit-identity claim every downstream analysis leans on.
    """
    from repro.verify import (
        VerificationError,
        analyze_determinism,
        has_errors,
        lint_program,
    )

    program = make_app(name)
    report = lint_program(program)
    if not report.ok:
        raise VerificationError(
            f"pre-flight lint of {name!r} found "
            f"{len(report.errors)} error(s)",
            report.diagnostics,
        )
    det = analyze_determinism(program)
    if has_errors(det.diagnostics):
        raise VerificationError(
            f"pre-flight determinism check of {name!r} failed: logical "
            "traces would not be bit-identical across noise",
            det.diagnostics,
        )


def _retry_delay(seed: int, name: str, mode: str, rep: int, attempt: int,
                 base: float) -> float:
    """Backoff before retry ``attempt`` (1-based): exponential with
    deterministic jitter derived from the task seed."""
    jitter = random.Random(
        stream_seed(seed, name, mode, rep, "retry", attempt)
    ).random()
    return base * (2.0 ** (attempt - 1)) * (1.0 + jitter)


def run_experiment(
    name: str,
    seed: int = 0,
    use_cache: bool = True,
    verbose: bool = False,
    preflight: bool = True,
    workers: Optional[int] = None,
    obs: Optional["_obs.ObsSession"] = None,
    task_timeout: Optional[float] = None,
    max_task_attempts: int = 3,
    retry_backoff: float = 0.25,
) -> ExperimentResult:
    """Run (or load from cache) the complete workflow for ``name``.

    ``workers`` sets the campaign fan-out (process pool); ``None`` reads
    ``REPRO_WORKERS`` and defaults to serial.  Results are reassembled in
    canonical (reference first, then mode, repetition) order and each run
    is seeded independently, so the outcome is bit-identical for any
    worker count.  With ``use_cache`` enabled, finished runs checkpoint
    individually, letting an interrupted campaign resume where it
    stopped; the per-run checkpoints are dropped once the aggregate
    result is stored.

    Campaign supervision (see the module docstring): a task failing with
    :class:`CampaignTaskError` is retried up to ``max_task_attempts``
    times with exponential backoff starting at ``retry_backoff`` seconds;
    ``task_timeout`` (seconds, parallel campaigns only) bounds how long
    the supervisor waits on a pool task before abandoning the worker and
    resubmitting; a timeout consumes one attempt.  Corrupt checkpoint or
    cache files are quarantined and recomputed, and ``KeyboardInterrupt``
    persists all finished runs before propagating.

    ``obs`` makes an :class:`repro.obs.ObsSession` active for the
    campaign (default: whatever session ``REPRO_OBS``/:func:`repro.obs.
    enable` activated, if any).  Pool workers observe their tasks under
    fresh sessions whose snapshots are merged back here, so parallel
    metric totals equal the serial ones.
    """
    if max_task_attempts < 1:
        raise ValueError(
            f"max_task_attempts must be >= 1, got {max_task_attempts}"
        )
    session = obs if obs is not None else _obs.active()
    with _obs.scoped(session):
        return _run_campaign(
            name, seed, use_cache, verbose, preflight, workers, session,
            task_timeout, max_task_attempts, retry_backoff,
        )


def _run_campaign(
    name: str,
    seed: int,
    use_cache: bool,
    verbose: bool,
    preflight: bool,
    workers: Optional[int],
    session: Optional["_obs.ObsSession"],
    task_timeout: Optional[float],
    max_task_attempts: int,
    retry_backoff: float,
) -> ExperimentResult:
    spec = EXPERIMENTS[name]
    with _obs.span("experiment", experiment=name, seed=seed), \
            _obs.labels(experiment=name):
        store = cache_store() if use_cache else None
        lease = None
        if use_cache:
            store.sweep_staging()
            cache = _cache_path(name, seed)
            result = _load_cached(cache, name, seed, store, session)
            if result is not None:
                return result
            # Cross-process single flight: concurrent campaigns racing
            # on the same cache key must not all compute.  One takes the
            # lease; the rest wait for its publish and load it.  A stale
            # lease (holder died) is taken over, and a wait that ends
            # without a loadable entry falls through to computing --
            # duplicated work is the safe failure mode, the atomic
            # publish keeps whichever copy lands last consistent.
            lease = store.acquire(cache.name)
            if lease is None:
                if store.wait_for(cache.name):
                    result = _load_cached(cache, name, seed, store, session)
                    if result is not None:
                        return result
                lease = store.acquire(cache.name)
        _obs.counter("workflow.cache_misses").inc()
        try:
            return _compute_campaign(
                name, seed, spec, use_cache, verbose, preflight, workers,
                session, task_timeout, max_task_attempts, retry_backoff,
                store, lease)
        finally:
            if lease is not None:
                lease.release()


def _load_cached(
    cache: Path,
    name: str,
    seed: int,
    store: ResultStore,
    session: Optional["_obs.ObsSession"],
) -> Optional[ExperimentResult]:
    """Load the aggregate cache entry; quarantine corruption."""
    if not cache.exists():
        return None
    try:
        result = _load(cache, name, seed)
    except Exception:
        _obs.counter("workflow.cache_corrupt").inc()
        quarantine(cache)
        return None
    _obs.counter("workflow.cache_hits").inc()
    store.touch(cache.name)
    if session is not None and result.manifest is not None:
        session.add_manifest(result.manifest)
    return result


def _compute_campaign(
    name: str,
    seed: int,
    spec,
    use_cache: bool,
    verbose: bool,
    preflight: bool,
    workers: Optional[int],
    session: Optional["_obs.ObsSession"],
    task_timeout: Optional[float],
    max_task_attempts: int,
    retry_backoff: float,
    store: Optional[ResultStore],
    lease,
) -> ExperimentResult:
    heartbeat = lease.refresh if lease is not None else (lambda: None)
    if preflight:
        preflight_lint(name)

    tasks: List[Tuple[str, int]] = [
        (_REF, rep) for rep in range(spec.reps_ref)
    ]
    for mode in MODES:
        tasks.extend((mode, rep) for rep in range(_reps_for(mode, spec)))

    runs_dir = _runs_dir(name, seed)
    payloads = {}
    if use_cache:
        for task in tasks:
            payload = _load_run(runs_dir, task)
            if payload is not None:
                payloads[task] = payload
    _obs.counter("workflow.checkpoint_hits").add(len(payloads))

    pending = [t for t in tasks if t not in payloads]
    _obs.counter("workflow.runs_executed").add(len(pending))
    n_workers = min(resolve_workers(workers), max(1, len(pending)))
    _obs.gauge("workflow.workers").set(n_workers)
    if pending and n_workers > 1:
        _run_parallel(name, seed, pending, payloads, runs_dir,
                      use_cache, verbose, n_workers, session,
                      task_timeout, max_task_attempts, retry_backoff,
                      heartbeat)
    else:
        _run_serial(name, seed, pending, payloads, runs_dir, use_cache,
                    verbose, max_task_attempts, retry_backoff, heartbeat)

    return _assemble(name, seed, spec, payloads, use_cache, n_workers,
                     session, store)


def _run_serial(name, seed, pending, payloads, runs_dir, use_cache,
                verbose, max_task_attempts, retry_backoff,
                heartbeat=lambda: None) -> None:
    """Serial campaign path with bounded retry."""
    for task in pending:
        for attempt in range(1, max_task_attempts + 1):
            try:
                payload, _ = _pool_task(name, task[0], seed, task[1], False)
            except CampaignTaskError:
                if attempt >= max_task_attempts:
                    raise
                _obs.counter("workflow.retries").inc()
                time.sleep(_retry_delay(seed, name, task[0], task[1],
                                        attempt, retry_backoff))
            else:
                break
        payloads[task] = payload
        heartbeat()
        if use_cache:
            _store_run(runs_dir, task, payload)
        if verbose:
            print(f"[{name}] {task[0]} rep {task[1]}: {payload[0]:.3f}s")


def _run_parallel(name, seed, pending, payloads, runs_dir, use_cache,
                  verbose, n_workers, session, task_timeout,
                  max_task_attempts, retry_backoff,
                  heartbeat=lambda: None) -> None:
    """Parallel campaign path: process pool under the supervisor.

    Fork inherits the experiment registry (including entries added at
    runtime, e.g. by tests or the benchmark harness) and the parent
    writes all checkpoints, so workers stay side-effect-free.  Each task
    gets a per-wait watchdog (``task_timeout``) and bounded retries;
    ``KeyboardInterrupt`` checkpoints every already-finished task before
    cancelling the rest, so a rerun resumes losslessly.
    """
    ctx = get_context("fork")
    with_obs = session is not None
    # Longest first: the instrumented runs, then the short uninstrumented
    # reference runs, which fill the pool's tail.  Harvesting in the same
    # order keeps the checkpoint writes overlapping the pool.
    pending = sorted(pending, key=lambda t: t[0] == _REF)
    attempts = {t: 1 for t in pending}
    pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
    futures: Dict[Tuple[str, int], object] = {}
    try:
        futures = {
            t: pool.submit(_pool_task, name, t[0], seed, t[1], with_obs)
            for t in pending
        }

        def harvest(task, payload, wdoc) -> None:
            payloads[task] = payload
            heartbeat()
            if wdoc is not None:
                session.merge_worker(wdoc)
                _obs.counter("workflow.worker_runs", pid=wdoc["pid"]).inc()
            if use_cache:
                _store_run(runs_dir, task, payload)
            if verbose:
                print(f"[{name}] {task[0]} rep {task[1]}: "
                      f"{payload[0]:.3f}s")

        for task in pending:
            while task not in payloads:
                try:
                    payload, wdoc = futures[task].result(
                        timeout=task_timeout)
                except _FuturesTimeout:
                    # Watchdog: the worker is stuck (or the task is
                    # pathologically slow).  Abandon the old future and
                    # resubmit; the stale result, if it ever arrives, is
                    # simply never read.
                    attempts[task] += 1
                    _obs.counter("workflow.task_timeouts").inc()
                    if attempts[task] > max_task_attempts:
                        futures[task].cancel()
                        raise CampaignTaskError(
                            name, task[0], seed, task[1],
                            f"task exceeded the {task_timeout}s watchdog "
                            f"timeout on all {max_task_attempts} attempts",
                        )
                    futures[task].cancel()
                    futures[task] = pool.submit(
                        _pool_task, name, task[0], seed, task[1], with_obs)
                except CampaignTaskError:
                    attempts[task] += 1
                    if attempts[task] > max_task_attempts:
                        raise
                    _obs.counter("workflow.retries").inc()
                    time.sleep(_retry_delay(seed, name, task[0], task[1],
                                            attempts[task] - 1,
                                            retry_backoff))
                    futures[task] = pool.submit(
                        _pool_task, name, task[0], seed, task[1], with_obs)
                else:
                    harvest(task, payload, wdoc)
    except KeyboardInterrupt:
        # Drain whatever already finished into checkpoints before
        # cancelling the rest -- the interrupted campaign resumes without
        # recomputing any completed run.
        _obs.counter("workflow.interrupted").inc()
        for task, fut in futures.items():
            if task in payloads or not fut.done() or fut.cancelled():
                continue
            if fut.exception() is None:
                payload, wdoc = fut.result()
                harvest(task, payload, wdoc)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)


def _assemble(
    name: str,
    seed: int,
    spec,
    payloads: dict,
    use_cache: bool,
    n_workers: int,
    session: Optional["_obs.ObsSession"],
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    """Reassemble payloads in canonical order into an ExperimentResult."""
    ref_runtimes: List[float] = []
    ref_phases: Dict[str, List[float]] = {p: [] for p in spec.phases}
    for rep in range(spec.reps_ref):
        runtime, phase_times = payloads[(_REF, rep)]
        ref_runtimes.append(runtime)
        for p in spec.phases:
            ref_phases[p].append(phase_times[p])

    runtimes: Dict[str, List[float]] = {}
    phases: Dict[str, Dict[str, List[float]]] = {}
    profiles: Dict[str, List[CubeProfile]] = {}
    for mode in MODES:
        runtimes[mode] = []
        phases[mode] = {p: [] for p in spec.phases}
        profiles[mode] = []
        for rep in range(_reps_for(mode, spec)):
            runtime, phase_times, profile = payloads[(mode, rep)]
            runtimes[mode].append(runtime)
            for p in spec.phases:
                phases[mode][p].append(phase_times[p])
            profiles[mode].append(profile)

    result = ExperimentResult(
        name=name,
        seed=seed,
        ref_runtimes=ref_runtimes,
        ref_phases=ref_phases,
        runtimes=runtimes,
        phases=phases,
        profiles=profiles,
        manifest=experiment_manifest(name, seed, workers=n_workers),
    )
    for mode in MODES:
        result.mean_profiles[mode] = CubeProfile.mean(profiles[mode])
    if session is not None:
        session.add_manifest(result.manifest)
    if use_cache:
        cache = _cache_path(name, seed)
        runs_dir = _runs_dir(name, seed)
        _store(result, cache, runs_dir)
        shutil.rmtree(runs_dir, ignore_errors=True)
        # Honor the size budget *after* publishing: the freshest entry
        # is protected, older least-recently-used ones make room.
        (store if store is not None else cache_store()).evict(
            protect=(cache.name,))
    return result


# ---------------------------------------------------------------------------
# canonical result serialization (the service's wire format)
# ---------------------------------------------------------------------------


def result_document(result: ExperimentResult) -> dict:
    """JSON document capturing everything in an :class:`ExperimentResult`.

    Profiles are embedded via :func:`repro.cube.io.profile_doc` (the
    same encoding the disk cache uses, so values survive a cache round
    trip bit-for-bit).  The manifest's hash-exempt ``environment`` block
    is dropped: two bit-identical computations of the same manifest hash
    must serialize to the same bytes even when produced under different
    worker counts or interpreter builds.
    """
    manifest = {k: v for k, v in (result.manifest or {}).items()
                if k != "environment"}
    return {
        "format": RESULT_FORMAT,
        "name": result.name,
        "seed": result.seed,
        "ref_runtimes": result.ref_runtimes,
        "ref_phases": result.ref_phases,
        "runtimes": result.runtimes,
        "phases": result.phases,
        "profiles": {m: [profile_doc(p) for p in profs]
                     for m, profs in result.profiles.items()},
        "mean_profiles": {m: profile_doc(p)
                          for m, p in result.mean_profiles.items()},
        "manifest": manifest or None,
    }


def serialize_result(result: ExperimentResult) -> bytes:
    """Canonical bytes of ``result`` (sorted keys, no whitespace).

    This is the payload ``repro-serve`` returns: because the encoding is
    canonical and every float round-trips exactly through JSON, a served
    response is byte-identical to serializing a direct
    :func:`run_experiment` call for the same manifest hash.
    """
    return (canonical_json(result_document(result)) + "\n").encode("utf-8")


def deserialize_result(data: bytes) -> ExperimentResult:
    """Invert :func:`serialize_result` (used by the service client)."""
    doc = json.loads(data.decode("utf-8"))
    if doc.get("format") != RESULT_FORMAT:
        raise ValueError(f"not a {RESULT_FORMAT} document "
                         f"(format={doc.get('format')!r})")
    return ExperimentResult(
        name=doc["name"],
        seed=doc["seed"],
        ref_runtimes=doc["ref_runtimes"],
        ref_phases=doc["ref_phases"],
        runtimes=doc["runtimes"],
        phases={m: dict(v) for m, v in doc["phases"].items()},
        profiles={m: [profile_from_doc(d) for d in docs]
                  for m, docs in doc["profiles"].items()},
        mean_profiles={m: profile_from_doc(d)
                       for m, d in doc["mean_profiles"].items()},
        manifest=doc.get("manifest"),
    )


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def cache_key(name: str, seed: int) -> str:
    """Content address of one campaign's result in the shared store.

    Derived from the experiment's provenance-manifest hash (which covers
    the spec geometry, seed, clock modes and cache version), so the
    service and ``run_experiment`` agree on the entry without sharing
    any state beyond the cache directory; the human-readable
    ``name``/``seed`` suffix is informational only.
    """
    return ResultStore.entry_name(
        experiment_manifest(name, seed)["hash"], f"{name}-s{seed}")


def cache_store(max_bytes: Optional[int] = None) -> ResultStore:
    """The shared content-addressed store over the result cache dir.

    ``max_bytes`` defaults to ``REPRO_CACHE_MAX_BYTES`` (unset =
    unbounded).  Constructed per call so tests (and the service) can
    repoint ``_CACHE_DIR``/the env between uses.
    """
    return ResultStore(_CACHE_DIR, max_bytes=max_bytes)


def _cache_path(name: str, seed: int) -> Path:
    return cache_store().entry_path(cache_key(name, seed))


def _runs_dir(name: str, seed: int) -> Path:
    """Per-run checkpoints of an unfinished campaign (resume support)."""
    return _CACHE_DIR / f"v{CACHE_VERSION}-{name}-s{seed}.runs"


def _store(result: ExperimentResult, path: Path,
           runs_dir: Optional[Path] = None) -> None:
    # Stage into a unique temp dir (mkdtemp) so concurrent campaigns of
    # the same experiment never scribble into each other's staging area;
    # the final rename publishes atomically, and losing a publish race
    # just discards this copy of the identical result.  A repetition
    # profile is serialized once: its run checkpoint in ``runs_dir``
    # (written by this campaign, or CRC-checked on resume) is hard-linked
    # into the entry, and only a missing checkpoint is written anew.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=path.name + ".tmp-"))
    try:
        doc = {
            "name": result.name,
            "seed": result.seed,
            "ref_runtimes": result.ref_runtimes,
            "ref_phases": result.ref_phases,
            "runtimes": result.runtimes,
            "phases": result.phases,
            "reps": {m: len(result.profiles[m]) for m in result.profiles},
            "manifest": result.manifest,
        }
        (tmp / "summary.json").write_text(json.dumps(doc))
        for mode, profs in result.profiles.items():
            for i, prof in enumerate(profs):
                dest = tmp / f"profile-{mode}-{i}.json.gz"
                if runs_dir is not None:
                    try:
                        os.link(_profile_checkpoint(runs_dir, (mode, i)), dest)
                        continue
                    except OSError:  # no checkpoint, or no hard links here
                        pass
                write_profile(prof, dest)
            write_profile(result.mean_profiles[mode], tmp / f"profile-{mode}-mean.json.gz")
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _load(path: Path, name: str, seed: int) -> ExperimentResult:
    doc = json.loads((path / "summary.json").read_text())
    if doc["name"] != name or doc["seed"] != seed:
        raise ValueError("cache mismatch")
    profiles = {}
    mean_profiles = {}
    for mode, n in doc["reps"].items():
        profiles[mode] = [read_profile(path / f"profile-{mode}-{i}.json.gz") for i in range(n)]
        mean_profiles[mode] = read_profile(path / f"profile-{mode}-mean.json.gz")
    return ExperimentResult(
        name=doc["name"],
        seed=doc["seed"],
        ref_runtimes=doc["ref_runtimes"],
        ref_phases=doc["ref_phases"],
        runtimes=doc["runtimes"],
        phases={m: dict(v) for m, v in doc["phases"].items()},
        profiles=profiles,
        mean_profiles=mean_profiles,
        manifest=doc.get("manifest"),
    )


def _run_tag(task: Tuple[str, int]) -> str:
    return f"{task[0]}-r{task[1]}"


def _profile_checkpoint(runs_dir: Path, task: Tuple[str, int]) -> Path:
    return runs_dir / f"{_run_tag(task)}-profile.json.gz"


def _store_run(runs_dir: Path, task: Tuple[str, int], payload) -> None:
    """Checkpoint one finished run, atomically and checksummed.

    The summary JSON wraps its document with a CRC-32 over the canonical
    payload encoding, plus the CRC-32 of the profile archive's bytes for
    instrumented runs, so :func:`_load_run` detects truncation or bit rot
    in either file.  The summary is written last: its presence marks the
    checkpoint complete.
    """
    runs_dir.mkdir(parents=True, exist_ok=True)
    tag = _run_tag(task)
    if len(payload) == 3:
        runtime, phase_times, profile = payload
        profile_path = _profile_checkpoint(runs_dir, task)
        write_profile(profile, profile_path)
        profile_crc = zlib.crc32(profile_path.read_bytes())
    else:
        runtime, phase_times = payload
        profile_crc = None
    doc = {"runtime": runtime, "phases": phase_times}
    body = json.dumps(doc, sort_keys=True)
    atomic_write_text(
        runs_dir / f"{tag}.json",
        json.dumps({"crc32": zlib.crc32(body.encode("utf-8")),
                    "profile_crc32": profile_crc,
                    "doc": doc}),
    )


def _load_run(runs_dir: Path, task: Tuple[str, int]):
    """Load one checkpointed run, or ``None`` if absent or corrupt.

    Any unreadable or checksum-failing file is quarantined (see
    :func:`~repro.measure.io.quarantine`) and counted on
    ``workflow.checkpoint_corrupt``; the supervisor then recomputes the
    run, so corruption degrades to a cache miss rather than poisoning the
    campaign result.
    """
    summary = runs_dir / f"{_run_tag(task)}.json"
    profile_path = _profile_checkpoint(runs_dir, task)
    if not summary.exists():
        return None
    try:
        wrapper = json.loads(summary.read_text())
        doc = wrapper["doc"]
        body = json.dumps(doc, sort_keys=True)
        if wrapper["crc32"] != zlib.crc32(body.encode("utf-8")):
            raise ValueError(f"{summary}: summary checksum mismatch")
        if task[0] == _REF:
            return doc["runtime"], doc["phases"]
        if wrapper["profile_crc32"] != zlib.crc32(profile_path.read_bytes()):
            raise ValueError(f"{profile_path}: profile checksum mismatch")
        profile = read_profile(profile_path)
        return doc["runtime"], doc["phases"], profile
    except Exception:
        _obs.counter("workflow.checkpoint_corrupt").inc()
        quarantine(summary)
        if task[0] != _REF and profile_path.exists():
            quarantine(profile_path)
        return None

"""Campaign supervisor: retries, watchdog, checksums, kill-and-resume.

Complements test_workflow_parallel.py (determinism and resume) with the
robustness surface of docs/robustness.md: worker failures heal through
bounded retry, corrupt on-disk state is quarantined and recomputed, and
every error path is loud and specific.
"""

import json
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro import obs
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec
from repro.experiments.workflow import (
    CampaignTaskError,
    resolve_workers,
    run_experiment,
)
from repro.measure import MODES
from repro.measure.io import atomic_write_bytes, atomic_write_text, quarantine


@pytest.fixture
def tiny_experiment(monkeypatch, tmp_path):
    """Register a fast throwaway experiment and isolate the cache dir."""

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3,
                                        init_segments=2))

    spec = ExperimentSpec("Tiny-R", make, nodes=1, reps_ref=2, reps_noisy=2,
                          phases=("init", "solve"))
    monkeypatch.setitem(C.EXPERIMENTS, "Tiny-R", spec)
    monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
    return "Tiny-R"


class TestResolveWorkers:
    def test_env_var_non_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'auto'"):
            resolve_workers(None)

    def test_env_var_nonpositive_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_explicit_argument_error_names_the_argument(self):
        with pytest.raises(ValueError, match="workers argument"):
            resolve_workers(0)

    def test_valid_values_still_resolve(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        assert resolve_workers(2) == 2


def _raise_campaign_error():
    raise CampaignTaskError("Exp", "lt1", 3, 1, "Traceback: boom at line 9")


class TestCampaignTaskErrorPickling:
    def test_reduce_round_trip(self):
        err = CampaignTaskError("Exp", "ltbb", 7, 2, "tb text")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, CampaignTaskError)
        assert clone.task == ("Exp", "ltbb", 7, 2)
        assert clone.original_tb == "tb text"
        assert "ltbb" in str(clone) and "tb text" in str(clone)

    def test_survives_a_real_process_pool_boundary(self):
        # The whole point of __reduce__: the exception must arrive intact
        # (tag + original traceback) after crossing an actual pool
        # boundary, where default pickling of RuntimeError subclasses
        # with custom __init__ signatures breaks.
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            fut = pool.submit(_raise_campaign_error)
            with pytest.raises(CampaignTaskError) as exc:
                fut.result()
        assert exc.value.task == ("Exp", "lt1", 3, 1)
        assert "boom at line 9" in exc.value.original_tb
        assert "boom at line 9" in str(exc.value)


# Module-level so the fork-based pool can pickle the reference; fails on
# the first attempt of one specific task, then succeeds (via a sentinel
# file the forked child shares with the parent filesystem).
_FLAKY_SENTINEL = None


def _flaky_run_task(name, mode, seed, rep):
    if mode == "lt1" and rep == 0 and not _FLAKY_SENTINEL.exists():
        _FLAKY_SENTINEL.write_text("tripped")
        raise RuntimeError("transient worker failure (injected)")
    return _ORIG_RUN_TASK(name, mode, seed, rep)


_ORIG_RUN_TASK = W._run_task


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_injected_failure_heals_and_result_is_bit_identical(
            self, tiny_experiment, tmp_path, monkeypatch, workers):
        baseline = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                  workers=1)

        global _FLAKY_SENTINEL
        _FLAKY_SENTINEL = tmp_path / f"tripped-{workers}"
        monkeypatch.setattr(W, "_run_task", _flaky_run_task)
        session = obs.ObsSession()
        healed = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                workers=workers, obs=session,
                                retry_backoff=0.01)
        assert _FLAKY_SENTINEL.exists()  # the failure really happened
        assert session.metrics.totals("").get("workflow.retries", 0) >= 1
        assert healed.ref_runtimes == baseline.ref_runtimes
        assert healed.runtimes == baseline.runtimes
        assert healed.phases == baseline.phases

    def test_persistent_failure_raises_after_max_attempts(
            self, tiny_experiment, monkeypatch):
        def always_fail(name, mode, seed, rep):
            raise RuntimeError("permanent failure (injected)")

        monkeypatch.setattr(W, "_run_task", always_fail)
        with pytest.raises(CampaignTaskError) as exc:
            run_experiment(tiny_experiment, seed=0, use_cache=False,
                           workers=1, max_task_attempts=2,
                           retry_backoff=0.0)
        assert "permanent failure" in exc.value.original_tb

    def test_max_attempts_validated(self, tiny_experiment):
        with pytest.raises(ValueError, match="max_task_attempts"):
            run_experiment(tiny_experiment, max_task_attempts=0)

    def test_retry_delay_is_deterministic_and_growing(self):
        d1 = W._retry_delay(0, "X", "lt1", 0, 1, 0.25)
        d1b = W._retry_delay(0, "X", "lt1", 0, 1, 0.25)
        d2 = W._retry_delay(0, "X", "lt1", 0, 2, 0.25)
        assert d1 == d1b
        assert 0.25 <= d1 <= 0.5
        assert 0.5 <= d2 <= 1.0


class TestCorruptionQuarantine:
    def test_kill_and_resume_with_corrupted_checkpoint(self, tiny_experiment):
        """Satellite: corrupt one per-run checkpoint of an interrupted
        campaign; the resume must quarantine it, recompute that run, and
        produce a result bit-identical to an uninterrupted campaign."""
        uninterrupted = run_experiment(tiny_experiment, seed=0,
                                       use_cache=False, workers=1)

        # Build the "killed mid-campaign" state: all per-run checkpoints
        # on disk, no aggregate cache.
        runs_dir = W._runs_dir(tiny_experiment, 0)
        tasks = [("ref", r) for r in range(2)] + \
            [(m, r) for m in MODES
             for r in range(len(uninterrupted.runtimes[m]))]
        for task in tasks:
            W._store_run(runs_dir, task, W._run_task(
                tiny_experiment, task[0], 0, task[1]))

        # Corrupt one instrumented run's profile (summary CRC still
        # valid -- the profile checksum must catch it).
        victim = runs_dir / "ltbb-r0-profile.json.gz"
        victim.write_bytes(victim.read_bytes()[:-7])

        session = obs.ObsSession()
        resumed = run_experiment(tiny_experiment, seed=0, use_cache=True,
                                 workers=1, obs=session)
        quarantined = list(runs_dir.glob("*.corrupt-*")) if runs_dir.exists() \
            else list(W._CACHE_DIR.glob("**/*.corrupt-*"))
        # The runs dir is dropped after assembly; corruption must still
        # have been observed and the run recomputed.
        totals = session.metrics.totals("")
        assert totals.get("workflow.checkpoint_corrupt", 0) == 1
        assert totals.get("workflow.runs_executed", 0) == 1  # just the victim
        assert resumed.ref_runtimes == uninterrupted.ref_runtimes
        assert resumed.runtimes == uninterrupted.runtimes
        assert resumed.phases == uninterrupted.phases
        for mode in MODES:
            assert resumed.mean_profiles[mode].as_mapping(per_location=True) \
                == uninterrupted.mean_profiles[mode].as_mapping(
                    per_location=True)
        del quarantined  # inspected via counters; dir is cleaned up

    def test_truncated_summary_is_quarantined_not_trusted(
            self, tiny_experiment, tmp_path):
        runs_dir = tmp_path / "runs"
        payload = W._run_task(tiny_experiment, "ref", 0, 0)
        W._store_run(runs_dir, ("ref", 0), payload)
        marker = runs_dir / "ref-r0.json"
        marker.write_text(marker.read_text()[:10])

        assert W._load_run(runs_dir, ("ref", 0)) is None
        assert not marker.exists()
        assert (runs_dir / "ref-r0.json.corrupt-0").exists()

    def test_checksum_mismatch_detected(self, tiny_experiment, tmp_path):
        runs_dir = tmp_path / "runs"
        payload = W._run_task(tiny_experiment, "ref", 0, 0)
        W._store_run(runs_dir, ("ref", 0), payload)
        marker = runs_dir / "ref-r0.json"
        wrapper = json.loads(marker.read_text())
        wrapper["doc"]["runtime"] = 42.0  # tamper without re-signing
        marker.write_text(json.dumps(wrapper))
        assert W._load_run(runs_dir, ("ref", 0)) is None

    def test_valid_checkpoint_round_trips(self, tiny_experiment, tmp_path):
        runs_dir = tmp_path / "runs"
        payload = W._run_task(tiny_experiment, "ltbb", 0, 0)
        W._store_run(runs_dir, ("ltbb", 0), payload)
        wrapper = json.loads((runs_dir / "ltbb-r0.json").read_text())
        body = json.dumps(wrapper["doc"], sort_keys=True)
        assert wrapper["crc32"] == zlib.crc32(body.encode("utf-8"))
        loaded = W._load_run(runs_dir, ("ltbb", 0))
        assert loaded[0] == payload[0]
        assert loaded[2].as_mapping(per_location=True) == \
            payload[2].as_mapping(per_location=True)

    def test_corrupt_aggregate_cache_quarantined_and_recomputed(
            self, tiny_experiment):
        first = run_experiment(tiny_experiment, seed=0, use_cache=True,
                               workers=1)
        cache = W._cache_path(tiny_experiment, 0)
        (cache / "summary.json").write_text("{definitely not json")

        session = obs.ObsSession()
        again = run_experiment(tiny_experiment, seed=0, use_cache=True,
                               workers=1, obs=session)
        assert session.metrics.totals("").get("workflow.cache_corrupt",
                                              0) == 1
        assert list(W._CACHE_DIR.glob("*.corrupt-*"))
        assert again.ref_runtimes == first.ref_runtimes
        assert again.runtimes == first.runtimes

    def test_quarantine_numbers_do_not_collide(self, tmp_path):
        for i in range(3):
            victim = tmp_path / "state.json"
            victim.write_text(f"garbage {i}")
            quarantine(victim)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["state.json.corrupt-0", "state.json.corrupt-1",
                         "state.json.corrupt-2"]

    def test_quarantine_missing_file_is_noop(self, tmp_path):
        assert quarantine(tmp_path / "never-existed") is None


class TestAtomicWrites:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        atomic_write_text(target, "three")
        assert target.read_text() == "three"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_write_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"precious")

        import repro.measure.io as MIO

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(MIO.os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"clobber")
        assert target.read_bytes() == b"precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestWatchdog:
    def test_task_timeout_abandons_stuck_worker_and_recovers(
            self, tiny_experiment, monkeypatch):
        # The first attempt of one task hangs far past the watchdog; the
        # supervisor must abandon the stuck worker, resubmit, and still
        # assemble a result bit-identical to the serial baseline.  The
        # hang is one-shot via a sentinel file because forked pool
        # children each inherit a copy of parent memory -- only a path
        # on the shared filesystem distinguishes attempt 1 from attempt 2.
        import time as _time

        baseline = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                  workers=1)
        hang_file = W._CACHE_DIR / "hang-once"
        hang_file.parent.mkdir(parents=True, exist_ok=True)

        def hang_once(name, mode, seed, rep):
            if mode == "lt1" and rep == 0 and not hang_file.exists():
                hang_file.write_text("hung")
                _time.sleep(60.0)
            return _ORIG_RUN_TASK(name, mode, seed, rep)

        monkeypatch.setattr(W, "_run_task", hang_once)
        session = obs.ObsSession()
        healed = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                workers=2, obs=session, task_timeout=15.0,
                                retry_backoff=0.01)
        assert session.metrics.totals("").get("workflow.task_timeouts",
                                              0) >= 1
        assert healed.ref_runtimes == baseline.ref_runtimes
        assert healed.runtimes == baseline.runtimes

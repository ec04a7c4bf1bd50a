"""Parallel measurement campaigns: determinism, resume, cache safety.

The workflow's contract is that ``workers=N`` is *bit-identical* to the
serial campaign -- every run is independently seeded and the parent
reassembles results in canonical order -- and that per-run checkpoints
let an interrupted campaign resume without recomputation.
"""

import gzip
import json
import shutil

import pytest

from repro.cube.io import profile_doc
from repro.experiments import configs as C
from repro.experiments import workflow as W
from repro.experiments.configs import ExperimentSpec
from repro.experiments.workflow import resolve_workers, run_experiment
from repro.measure import MODES
from repro.measure.config import NOISY_MODES


@pytest.fixture
def tiny_experiment(monkeypatch, tmp_path):
    """Register a fast throwaway experiment and isolate the cache dir."""

    def make():
        from repro.miniapps.minife import MiniFE, MiniFEConfig

        return MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, cg_iters=3, init_segments=2))

    spec = ExperimentSpec("Tiny-P", make, nodes=1, reps_ref=2, reps_noisy=2,
                          phases=("init", "solve"))
    monkeypatch.setitem(C.EXPERIMENTS, "Tiny-P", spec)
    monkeypatch.setattr(W, "_CACHE_DIR", tmp_path / "cache")
    return "Tiny-P"


def _profile_cells(result):
    """Exact per-location severity cells of every repetition profile."""
    return {
        mode: [p.as_mapping(per_location=True) for p in profs]
        for mode, profs in result.profiles.items()
    }


class TestParallelDeterminism:
    def test_workers4_bit_identical_to_serial(self, tiny_experiment):
        serial = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                workers=1)
        parallel = run_experiment(tiny_experiment, seed=0, use_cache=False,
                                  workers=4)
        # Float-exact equality throughout, not approx: the parallel
        # campaign must reproduce the serial one bit for bit.
        assert parallel.ref_runtimes == serial.ref_runtimes
        assert parallel.ref_phases == serial.ref_phases
        assert parallel.runtimes == serial.runtimes
        assert parallel.phases == serial.phases
        assert _profile_cells(parallel) == _profile_cells(serial)
        for mode in MODES:
            assert parallel.mean_profiles[mode].as_mapping(per_location=True) \
                == serial.mean_profiles[mode].as_mapping(per_location=True)

    def test_env_var_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit argument wins

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestNoiseInvariance:
    def test_logical_mean_profiles_equal_across_seeds(self, tiny_experiment):
        """The campaign's means hold the paper's claim byte for byte: two
        noise seeds give equal logical mean profiles, and different tsc
        and lthwctr ones."""
        a, b = (run_experiment(tiny_experiment, seed=seed, use_cache=False)
                for seed in (1, 2))
        for mode in MODES:
            same = (json.dumps(profile_doc(a.mean_profiles[mode]))
                    == json.dumps(profile_doc(b.mean_profiles[mode])))
            assert same == (mode not in NOISY_MODES), mode


class TestCampaignResume:
    def test_per_run_checkpoints_are_reused(self, tiny_experiment):
        # Checkpoint the full campaign, then delete the aggregate result
        # but keep the per-run checkpoints: the rerun must load every run
        # from disk and reproduce the same summary.
        first = run_experiment(tiny_experiment, seed=0, use_cache=True)
        cache = W._cache_path(tiny_experiment, 0)
        runs_dir = W._runs_dir(tiny_experiment, 0)
        assert cache.exists()
        assert not runs_dir.exists()  # dropped once the aggregate landed

        # Simulate an interrupted campaign: per-run checkpoints present,
        # aggregate absent, with one run's timing forged so we can prove
        # the checkpoint (not a recomputation) is what gets used.
        for task in [("ref", 0), ("ref", 1)] + \
                [(m, r) for m in MODES for r in range(len(first.runtimes[m]))]:
            payload = W._run_task(tiny_experiment, task[0], 0, task[1])
            W._store_run(runs_dir, task, payload)
        marker = runs_dir / "ref-r0.json"
        wrapper = json.loads(marker.read_text())
        wrapper["doc"]["runtime"] = 123.456
        # Keep the checkpoint valid under the new payload: re-sign it.
        import zlib

        body = json.dumps(wrapper["doc"], sort_keys=True)
        wrapper["crc32"] = zlib.crc32(body.encode("utf-8"))
        marker.write_text(json.dumps(wrapper))
        import shutil

        shutil.rmtree(cache)

        resumed = run_experiment(tiny_experiment, seed=0, use_cache=True)
        assert resumed.ref_runtimes[0] == 123.456
        assert resumed.ref_runtimes[1] == first.ref_runtimes[1]
        assert resumed.runtimes == first.runtimes
        assert not runs_dir.exists()

    def test_corrupt_checkpoint_recomputed(self, tiny_experiment):
        runs_dir = W._runs_dir(tiny_experiment, 0)
        runs_dir.mkdir(parents=True)
        (runs_dir / "ref-r0.json").write_text("{not json")
        res = run_experiment(tiny_experiment, seed=0, use_cache=True)
        assert len(res.ref_runtimes) == 2  # fell back to recomputing

    def test_checkpoint_round_trip_is_exact(self, tiny_experiment, tmp_path):
        payload = W._run_task(tiny_experiment, "ltbb", 0, 0)
        runs_dir = tmp_path / "runs"
        W._store_run(runs_dir, ("ltbb", 0), payload)
        loaded = W._load_run(runs_dir, ("ltbb", 0))
        assert loaded[0] == payload[0]
        assert loaded[1] == payload[1]
        assert loaded[2].as_mapping(per_location=True) == \
            payload[2].as_mapping(per_location=True)

    def test_load_run_missing_returns_none(self, tmp_path):
        assert W._load_run(tmp_path / "nowhere", ("ref", 0)) is None


class TestStoreCollisionSafety:
    def test_concurrent_stores_leave_valid_cache(self, tiny_experiment):
        # Two campaigns of the same experiment racing to publish must not
        # corrupt each other: whichever rename lands last wins, and the
        # published directory is always complete.
        result = run_experiment(tiny_experiment, seed=0, use_cache=False)
        cache = W._cache_path(tiny_experiment, 0)
        W._store(result, cache)
        W._store(result, cache)  # second publish over an existing dir
        loaded = W._load(cache, tiny_experiment, 0)
        assert loaded.ref_runtimes == result.ref_runtimes
        assert loaded.runtimes == result.runtimes
        leftovers = [p for p in cache.parent.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_failed_store_cleans_up_temp_dir(self, tiny_experiment, monkeypatch):
        result = run_experiment(tiny_experiment, seed=0, use_cache=False)
        cache = W._cache_path(tiny_experiment, 0)

        def boom(*_a, **_k):
            raise OSError("disk full")

        monkeypatch.setattr(W, "write_profile", boom)
        with pytest.raises(OSError):
            W._store(result, cache)
        assert not cache.exists()
        leftovers = [p for p in cache.parent.iterdir() if ".tmp-" in p.name]
        assert leftovers == []


def _count_write_profile(monkeypatch):
    """Record the destination of every ``write_profile`` the workflow makes."""
    dests = []
    real = W.write_profile

    def spy(profile, path):
        dests.append(path)
        real(profile, path)

    monkeypatch.setattr(W, "write_profile", spy)
    return dests


def _n_profiles(result):
    return sum(len(p) for p in result.profiles.values())


class TestWriteOnce:
    def test_published_profiles_are_the_checkpoints(self, tiny_experiment,
                                                     monkeypatch):
        checkpoints = {}
        real_store_run = W._store_run

        def store_run(runs_dir, task, payload):
            real_store_run(runs_dir, task, payload)
            if task[0] != "ref":
                checkpoints[task] = \
                    W._profile_checkpoint(runs_dir, task).read_bytes()

        monkeypatch.setattr(W, "_store_run", store_run)
        dests = _count_write_profile(monkeypatch)
        result = run_experiment(tiny_experiment, seed=0, use_cache=True,
                                workers=2)
        cache = W._cache_path(tiny_experiment, 0)
        assert len(checkpoints) == _n_profiles(result)
        for (mode, i), data in checkpoints.items():
            assert (cache / f"profile-{mode}-{i}.json.gz").read_bytes() == data
        # one write per repetition profile (its checkpoint) + one per mean
        assert len(dests) == _n_profiles(result) + len(MODES)

    def test_resumed_entry_loads_equal(self, tiny_experiment, monkeypatch):
        uninterrupted = W.serialize_result(
            run_experiment(tiny_experiment, seed=0, use_cache=True))
        cache = W._cache_path(tiny_experiment, 0)
        assert W.serialize_result(W._load(cache, tiny_experiment, 0)) == \
            uninterrupted
        shutil.rmtree(cache)

        # every run checkpointed by an interrupted campaign of an earlier
        # build, which wrote its profiles at gzip level 9
        import repro.cube.io as cube_io

        spec = C.EXPERIMENTS[tiny_experiment]
        runs_dir = W._runs_dir(tiny_experiment, 0)
        with monkeypatch.context() as m:
            m.setattr(cube_io, "_GZIP_LEVEL", 9)
            for task in [("ref", r) for r in range(spec.reps_ref)] + \
                    [(mode, r) for mode in MODES for r in range(W._reps_for(mode, spec))]:
                W._store_run(runs_dir, task,
                             W._run_task(tiny_experiment, task[0], 0, task[1]))

        # the means of the read-back checkpoints hold the same bytes
        resumed = run_experiment(tiny_experiment, seed=0, use_cache=True)
        assert W.serialize_result(W._load(cache, tiny_experiment, 0)) == \
            uninterrupted
        assert W.serialize_result(resumed) == uninterrupted

    @pytest.mark.parametrize("runs_dir", [None, "empty"])
    def test_store_without_checkpoints_writes(self, tiny_experiment,
                                              monkeypatch, tmp_path, runs_dir):
        result = run_experiment(tiny_experiment, seed=0, use_cache=False)
        cache = W._cache_path(tiny_experiment, 0)
        dests = _count_write_profile(monkeypatch)
        W._store(result, cache, None if runs_dir is None else tmp_path / runs_dir)
        assert len(dests) == _n_profiles(result) + len(MODES)
        assert W.serialize_result(W._load(cache, tiny_experiment, 0)) == \
            W.serialize_result(result)

    def test_level9_profile_reads_back(self, tiny_experiment, tmp_path):
        from repro.cube import read_profile, write_profile

        profile = W._run_task(tiny_experiment, "ltbb", 0, 0)[2]
        doc = json.dumps(profile_doc(profile)).encode("utf-8")
        old = tmp_path / "old.json.gz"
        old.write_bytes(gzip.compress(doc, compresslevel=9, mtime=0))
        new = tmp_path / "new.json.gz"
        write_profile(profile, new)
        assert old.read_bytes() != new.read_bytes()
        for path in (old, new):
            assert json.dumps(profile_doc(read_profile(path))).encode("utf-8") == doc

"""Golden fingerprints of the bytes the trace hand-offs must not change.

For each mini-app's ``tiny()`` configuration, recorded at two noise seeds
under every measurement mode, ``goldens.json`` holds (keyed seed, app,
mode) the sha256 of

* ``trace_archive_bytes(trace)`` -- the JSON-lines archive the serving
  layer stores content-addressed (``archive``), and
* ``gzip.decompress`` of those bytes -- the archive's JSON-lines text
  (``archive_text``), which pins the spelling of the records apart from
  their compression, and
* ``json.dumps(profile_doc(analyze_trace(timestamp_trace(trace))))`` --
  the wait-state profile of that trace in its own mode, and
* ``json.dumps(profile_doc(profile.normalized()))`` -- the normalized
  profile.  Both documents list call paths and cells in the one profile
  order (:mod:`repro.cube.profile`: the root, then paths sorted by name
  tuple; each metric's cells sorted by call path and location;
  metrics sorted), so these bytes pin that order too, and
* the little-endian float64 bytes of every location's final clock value
  under that replay (``0.0`` for an empty location) -- the clock finals
  the replay itself produces, before the analyzer normalizes anything,

plus the float hex of the mode's ``J_(M,C)`` score against the tsc run
at the same seed, both profiles normalized (the paper's Figs. 3 and 4).

A change to the archive writer, the merged order, the clock replay or
the analyzer that moves a single byte fails here.  Re-record (only for
an intended format change) with::

    PYTHONPATH=src python -m tests.test_goldens

A change to the archive's compression alone moves ``archive`` and
nothing else; after re-recording, every other value (``archive_text``
included) must read as before.

The paper's claim is checked on the fingerprints themselves: under the
four logical modes the two noise seeds give equal profiles, raw and
normalized, and under tsc and lthwctr they do not.
"""

import gzip
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_trace
from repro.clocks import timestamp_trace
from repro.cube.io import profile_doc
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import MODES, Measurement, trace_archive_bytes
from repro.measure.config import NOISY_MODES
from repro.miniapps.lulesh import Lulesh, LuleshConfig
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.scoring import jaccard_metric_callpath
from repro.sim import CostModel, Engine

GOLDENS = Path(__file__).with_name("goldens.json")
SEEDS = (3, 8)
APPS = {
    "minife": lambda: MiniFE(MiniFEConfig.tiny()),
    "lulesh": lambda: Lulesh(LuleshConfig.tiny()),
    "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny()),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _doc_sha(profile) -> str:
    return _sha(json.dumps(profile_doc(profile)).encode("utf-8"))


def golden_trace(app: str, seed: int, mode: str):
    """The trace ``app``'s ``tiny()`` configuration records under
    ``mode`` at noise ``seed``, as the fingerprints take it."""
    cluster = jureca_dc(1)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(APPS[app](), cluster, cost,
                  measurement=Measurement(mode)).run().trace


@lru_cache(maxsize=None)
def fingerprints(app: str, seed: int) -> dict:
    """``{mode: fingerprint dict}`` for one app at one noise seed."""
    out, normalized = {}, {}
    for mode in MODES:
        trace = golden_trace(app, seed, mode)
        tt = timestamp_trace(trace, mode, counter_seed=seed)
        finals = [float(t[-1]) if len(t) else 0.0 for t in tt.times]
        profile = analyze_trace(tt)
        normalized[mode] = profile.normalized()
        archive = trace_archive_bytes(trace)
        out[mode] = {
            "archive": _sha(archive),
            "archive_text": _sha(gzip.decompress(archive)),
            "finals": _sha(np.array(finals, dtype="<f8").tobytes()),
            "profile": _doc_sha(profile),
            "normalized": _doc_sha(normalized[mode]),
        }
    for mode in MODES:
        out[mode]["jaccard_vs_tsc"] = jaccard_metric_callpath(
            normalized[mode], normalized["tsc"]).hex()
    return out


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_golden_fingerprints(goldens, app, mode):
    for seed in SEEDS:
        assert fingerprints(app, seed)[mode] == goldens[str(seed)][app][mode], seed


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_logical_profiles_equal_across_noise_seeds(app, mode):
    a, b = (fingerprints(app, seed)[mode] for seed in SEEDS)
    for key in ("profile", "normalized"):
        assert (a[key] != b[key]) == (mode in NOISY_MODES), key


if __name__ == "__main__":
    doc = {str(seed): {app: fingerprints(app, seed) for app in sorted(APPS)}
           for seed in SEEDS}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")

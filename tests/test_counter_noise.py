"""Keyed instruction-counter noise (the lthwctr readings).

Reading ``i`` of location ``(rank, thread)`` under counter seed ``s`` is
a pure function of ``(s, rank, thread, i)``
(:class:`repro.machine.noise.CounterNoise` over
:func:`repro.util.rng.keyed_uniforms`): a location's first readings do
not depend on how many follow, the trace-wide pass equals one call per
location, the keys separate locations and seeds, and the two noise
components are keyed apart.  The moments are those of the configured
lognormal factor and exponential offset, and no import on the replay's
path pulls in scipy (a fresh interpreter pays for every import).
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.clocks import columnar_increments
from repro.machine.noise import CounterNoise, NoiseConfig
from repro.util.rng import keyed_uniforms
from tests.test_serve import _make_trace

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the readings the subprocess test recomputes
_SNIPPET = """
import hashlib, numpy as np
from repro.machine.noise import CounterNoise, NoiseConfig
counts = np.arange(1000, dtype=np.float64) * 977.0
r = CounterNoise(11, NoiseConfig()).perturb_many([(3, 1), (0, 0)], [600, 400],
                                                 counts)
print(hashlib.sha256(r.tobytes()).hexdigest())
"""


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def _one(noise, loc, counts):
    return noise.perturb_many([loc], [len(counts)], counts)


@pytest.fixture(scope="module")
def cols():
    return _make_trace("lthwctr", seed=1).columns()


def test_keyed_uniforms_lie_in_the_open_interval():
    keys = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    u = keyed_uniforms(keys[:, None], np.arange(5000, dtype=np.uint64))
    assert u.shape == (4, 5000)
    assert 0.0 < u.min() and u.max() < 1.0
    assert np.isfinite(np.log(u)).all() and np.isfinite(np.log1p(-u)).all()


def test_prefix_readings_do_not_depend_on_what_follows():
    counts = np.random.default_rng(5).random(300) * 1e6
    noise = CounterNoise(7, NoiseConfig())
    full = _one(noise, (2, 1), counts)
    for k in (0, 1, 2, 17, 299):
        assert _bits(_one(noise, (2, 1), counts[:k])) == _bits(full[:k])


def test_trace_wide_pass_equals_per_location_calls(cols):
    noise = CounterNoise(3, NoiseConfig())
    counts = [len(lc) for lc in cols.locs]
    whole = noise.perturb_many(cols.locations, counts, cols.column("instr"))
    each = np.concatenate([_one(noise, loc, lc.instr)
                           for loc, lc in zip(cols.locations, cols.locs)])
    assert _bits(whole) == _bits(each)
    inc = columnar_increments(cols, "lthwctr", noise)
    assert [len(a) for a in inc] == counts
    assert _bits(np.concatenate(inc)) == _bits(np.maximum(1.0, each))


def test_locations_and_seeds_key_different_readings():
    counts = np.full(64, 1e6)
    base = _one(CounterNoise(3, NoiseConfig()), (1, 0), counts)
    for seed, loc in ((3, (0, 1)), (3, (1, 1)), (3, (0, 0)), (4, (1, 0))):
        other = _one(CounterNoise(seed, NoiseConfig()), loc, counts)
        assert (other != base).all(), (seed, loc)
    again = _one(CounterNoise(3, NoiseConfig()), (1, 0), counts)
    assert _bits(again) == _bits(base)


def test_same_readings_in_a_fresh_interpreter():
    out = subprocess.run([sys.executable, "-c", _SNIPPET], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": SRC, "PATH": ""}).stdout.strip()
    counts = np.arange(1000, dtype=np.float64) * 977.0
    here = CounterNoise(11, NoiseConfig()).perturb_many(
        [(3, 1), (0, 0)], [600, 400], counts)
    assert out == hashlib.sha256(here.tobytes()).hexdigest()


def test_components_are_keyed_apart():
    # zeroing the lognormal sigma leaves the offsets as they were, and
    # zeroing the offset leaves the factors as they were
    n = 2000
    loc = (5, 2)
    offsets = _one(CounterNoise(9, NoiseConfig()), loc, np.zeros(n))
    assert _bits(offsets) == _bits(
        _one(CounterNoise(9, NoiseConfig(counter_sigma=0.0)), loc, np.zeros(n)))
    counts = np.full(n, 1e6)
    factors = _one(CounterNoise(9, NoiseConfig(counter_offset_instructions=0.0)),
                   loc, counts)
    full = _one(CounterNoise(9, NoiseConfig()), loc, counts)
    np.testing.assert_allclose(full - offsets, factors, rtol=1e-12, atol=0.0)
    assert (factors != counts).all() and (offsets > 0.0).all()


def test_moments_of_200k_readings():
    n, instr = 200_000, 1e6
    counts = np.full(n, instr)
    cfg = NoiseConfig()
    lognormal = _one(CounterNoise(21, NoiseConfig(counter_offset_instructions=0.0)),
                     (0, 0), counts) / instr
    se = lognormal.std() / np.sqrt(n)
    assert abs(lognormal.mean() - 1.0) < 5 * se
    assert lognormal.std() == pytest.approx(cfg.counter_sigma, rel=0.02)
    offset = _one(CounterNoise(21, NoiseConfig(counter_sigma=0.0)),
                  (0, 0), counts) - instr
    se = offset.std() / np.sqrt(n)
    assert abs(offset.mean() - cfg.counter_offset_instructions) < 5 * se
    full = CounterNoise(21, cfg)
    for true in (counts, np.zeros(n)):
        readings = _one(full, (0, 0), true)
        assert np.isfinite(readings).all() and (readings >= 0.0).all()
        assert np.maximum(1.0, readings).min() >= 1.0


def test_no_scipy_on_the_import_path():
    code = ("import sys, repro.clocks, repro.machine.noise, "
            "repro.experiments.workflow, repro.serve.service\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": SRC, "PATH": ""}).stdout.strip()
    assert out == "[]"

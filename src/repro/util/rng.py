"""Deterministic, named random-number streams.

Reproducibility is a first-class requirement of this project: the paper's
central experiment repeats the same measurement five times under different
noise realizations and shows that logical traces are bit-identical while
physical ones vary.  To express "same program, different noise realization"
we derive independent :class:`numpy.random.Generator` instances from a
``(base_seed, stream_name, *key)`` tuple via ``numpy``'s ``SeedSequence``
spawning.  Two properties matter:

* Streams with distinct names/keys are statistically independent.
* A stream's output depends only on its key, never on how many draws other
  streams have made.  Adding a new noise source therefore never perturbs an
  existing one -- essential when comparing measurement modes.

:func:`keyed_uniforms` goes one step further: a counter-based generator
whose ``n``-th draw of a stream is a pure function of ``(stream key, n)``,
so draws need no order and a whole array of them is one NumPy expression.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["stream_seed", "keyed_uniforms", "first_normals", "RngStreams"]


def stream_seed(base_seed: int, *key) -> int:
    """Derive a 64-bit child seed from ``base_seed`` and an arbitrary key.

    The key elements are rendered with ``repr`` and hashed, so any mix of
    strings, ints and tuples is acceptable.  The result is stable across
    processes and Python versions (no reliance on ``hash()``).
    """
    h = hashlib.sha256()
    h.update(str(int(base_seed)).encode())
    for part in key:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest()[:8], "little")


# splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): the Weyl increment and the two multipliers
# of its output mix
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)
_U64 = tuple(np.uint64(k) for k in (1, 11, 27, 30, 31))


def keyed_uniforms(keys, counters) -> np.ndarray:
    """Uniform doubles in the open interval (0, 1), one per element of the
    broadcast ``keys`` and ``counters`` (uint64 arrays, at least 1-d).

    Element ``j`` is splitmix64's output for state ``keys[j] + (counters[j]
    + 1) * gamma``: the ``counters[j]``-th draw of a SplitMix64 stream
    seeded with ``keys[j]``, computed without the draws before it.  Its
    top 53 bits ``k`` give ``(k + 0.5) / 2**53``, which is never 0 or 1,
    so ``log(u)`` and ``log1p(-u)`` stay finite.  Only NumPy uint64
    arithmetic (wrapping) is used; the result depends on nothing but the
    two inputs.
    """
    one, s11, s27, s30, s31 = _U64
    z = np.asarray(counters, dtype=np.uint64) + one
    z *= _SM_GAMMA
    z = np.asarray(keys, dtype=np.uint64) + z
    # in place: at most two arrays of the result's size are live
    z ^= z >> s30
    z *= _SM_MUL1
    z ^= z >> s27
    z *= _SM_MUL2
    z ^= z >> s31
    z >>= s11
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


# numpy.random.SeedSequence's hash constants (bit_generator.pyx) and the
# 128-bit LCG multiplier PCG64 steps with (pcg64.h).  A SeedSequence hash
# advances its multiplier once per word whatever the data, so the values
# it takes are precomputed: 17 over the 16 hashes that mix the 4-word
# pool, 9 over the 8 words that expand it.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _multipliers(init: int, mult: int, n: int) -> Tuple[np.uint32, ...]:
    out = [init]
    for _ in range(n):
        out.append((out[-1] * mult) & _M32)
    return tuple(np.uint32(x) for x in out)


_MIX_MULTS = _multipliers(0x43B0D7E5, 0x931E8875, 16)
_GEN_MULTS = _multipliers(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def first_normals(seeds: Sequence[int], loc: float, scale: float,
                  scratch: np.random.Generator) -> List[float]:
    """``[np.random.default_rng(s).normal(loc, scale) for s in seeds]``, bit
    for bit, without building one generator per seed.

    ``default_rng(s)`` seeds ``PCG64`` through ``SeedSequence(s)``: the
    64-bit seed enters as one or two uint32 words (the same pool either
    way, since a missing second word hashes as 0), is mixed into a 4-word
    pool and expanded to 4 uint64 words -- the LCG's initial state and
    increment.  This runs those hashes for the whole batch at once in
    uint32 arithmetic, then sets ``scratch`` (a ``Generator`` over a
    ``PCG64``, overwritten on every call) to each seed's state and takes
    its first normal.
    """
    if type(scratch.bit_generator) is not np.random.PCG64:
        raise TypeError("first_normals needs a Generator over PCG64")
    s = np.asarray(seeds, dtype=np.uint64)
    words = ((s & np.uint64(_M32)).astype(np.uint32),
             (s >> np.uint64(32)).astype(np.uint32),
             np.zeros(len(s), np.uint32), np.zeros(len(s), np.uint32))
    mix_mults = iter(zip(_MIX_MULTS, _MIX_MULTS[1:]))

    def hashmix(v):
        xor, mult = next(mix_mults)
        v = (v ^ xor) * mult
        return v ^ (v >> _SHIFT)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = r ^ (r >> _SHIFT)
    out = []
    for k, (xor, mult) in enumerate(zip(_GEN_MULTS, _GEN_MULTS[1:])):
        v = (pool[k % 4] ^ xor) * mult
        out.append((v ^ (v >> _SHIFT)).astype(np.uint64))
    state_hi, state_lo, inc_hi, inc_lo = (
        (out[2 * k] | (out[2 * k + 1] << np.uint64(32))).tolist()
        for k in range(4))

    bitgen = scratch.bit_generator
    normal = scratch.normal
    doc = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    draws = []
    for a, b, c, d in zip(state_hi, state_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = ((((c << 64) | d) << 1) | 1) & _M128
        doc["state"] = {"state": ((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _M128,
                        "inc": inc}
        bitgen.state = doc
        draws.append(normal(loc, scale))
    return draws


class RngStreams:
    """A factory of independent named random generators.

    Example
    -------
    >>> rngs = RngStreams(seed=7)
    >>> cpu = rngs.get("cpu-noise", rank=3, thread=1)
    >>> net = rngs.get("net-noise", link=(0, 1))
    >>> cpu is rngs.get("cpu-noise", rank=3, thread=1)
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: Dict[Tuple, np.random.Generator] = {}

    def get(self, name: str, **key) -> np.random.Generator:
        """Return (and memoize) the generator for ``name`` + keyword key."""
        k = (name,) + tuple(sorted(key.items()))
        gen = self._cache.get(k)
        if gen is None:
            gen = np.random.default_rng(stream_seed(self.seed, *k))
            self._cache[k] = gen
        return gen

    def fresh(self, name: str, **key) -> np.random.Generator:
        """Return a *new* generator for the key without memoizing it."""
        k = (name,) + tuple(sorted(key.items()))
        return np.random.default_rng(stream_seed(self.seed, *k))

    def child(self, *key) -> "RngStreams":
        """Derive a whole child stream family (e.g. one per repetition)."""
        return RngStreams(stream_seed(self.seed, "child", *key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, cached={len(self._cache)})"
